(* The three workloads: which scenarios at which scale, which explain
   option variants, how many connections, which server flags, and the
   seeded request streams the closed-loop clients replay.

   Dataset seeds stay at their scenario defaults (the gold explanations
   are validated there); the benchmark seed only drives request order
   and the Zipf stream. *)

open Nested

type variant = {
  vname : string;
  use_sas : bool;
  max_sas : int;
  revalidate : bool;
  sample_stride : int option;
  top_k : int option;
}

let default_variant =
  let d = Serve.Protocol.default_options in
  {
    vname = "default";
    use_sas = d.Serve.Protocol.use_sas;
    max_sas = d.Serve.Protocol.max_sas;
    revalidate = d.Serve.Protocol.revalidate;
    sample_stride = None;
    top_k = None;
  }

(* Ten option variants per scenario: seven of them share the default
   handle key (the approximation knobs are cleared from it), the other
   three each get a handle key of their own — four handle keys per
   scenario. *)
let mixed_variants =
  let d = default_variant in
  [
    d;
    { d with vname = "top_k=1"; top_k = Some 1 };
    { d with vname = "top_k=2"; top_k = Some 2 };
    { d with vname = "top_k=3"; top_k = Some 3 };
    { d with vname = "stride=2"; sample_stride = Some 2 };
    { d with vname = "stride=4"; sample_stride = Some 4 };
    { d with vname = "max_sas=1"; max_sas = 1 };
    { d with vname = "use_sas=false"; use_sas = false };
    { d with vname = "revalidate=false"; revalidate = false };
    { d with vname = "stride=2,top_k=1"; sample_stride = Some 2; top_k = Some 1 };
  ]

(* Explain options on the wire: only the fields that differ from the
   protocol defaults. *)
let option_fields v =
  let d = default_variant in
  let opt name = function Some n -> [ (name, Json.J_int n) ] | None -> [] in
  (if v.use_sas <> d.use_sas then [ ("use_sas", Json.J_bool v.use_sas) ] else [])
  @ (if v.max_sas <> d.max_sas then [ ("max_sas", Json.J_int v.max_sas) ] else [])
  @ (if v.revalidate <> d.revalidate then
       [ ("revalidate", Json.J_bool v.revalidate) ]
     else [])
  @ opt "sample_stride" v.sample_stride
  @ opt "top_k" v.top_k

type shape =
  | Cold  (** seeded shuffles of every key, repeated *)
  | Mixed  (** per-connection seeded Zipf streams with parse and SQL explains *)

type t = {
  name : string;
  scenarios : string list;
  scale : int;
  smoke_scale : int;
  variants : variant list;
  conns : int;
  server_args : string list;
  cache_capacity : int;  (** the server's explain-cache capacity *)
  shape : shape;
}

let nested_cold =
  {
    name = "nested-cold";
    scenarios = [ "D1"; "D2"; "D3"; "D4"; "D5"; "T1"; "T2"; "T3"; "T4"; "TASD" ];
    scale = 128;
    smoke_scale = 2;
    variants = [ default_variant ];
    conns = 1;
    server_args = [ "-cache"; "0"; "-handles"; "0" ];
    cache_capacity = 0;
    shape = Cold;
  }

let tpch_cold =
  {
    nested_cold with
    name = "tpch-cold";
    scenarios = [ "Q1"; "Q3"; "Q4"; "Q6"; "Q10"; "Q3F"; "Q10F" ];
    scale = 16;
  }

let serve_mixed =
  {
    name = "serve-mixed";
    scenarios =
      [ "D1"; "D2"; "D3"; "D4"; "D5"; "T1"; "T2"; "T3"; "T4"; "TASD"; "F1"; "F2";
        "RE"; "C1"; "C2"; "C3" ];
    scale = 32;
    smoke_scale = 1;
    variants = mixed_variants;
    conns = 2;
    server_args = [];
    cache_capacity = Serve.Server.default_config.Serve.Server.cache_capacity;
    shape = Mixed;
  }

let all = [ nested_cold; tpch_cold; serve_mixed ]
let find name = List.find_opt (fun w -> w.name = name) all

(* -- keys and requests ---------------------------------------------------- *)

type key = { scenario : string; scale : int; variant : variant }

let key_id k = Fmt.str "%s@%d/%s" k.scenario k.scale k.variant.vname

(* Every (scenario, variant) pair at [scale], scenario-major. *)
let keys w ~scale =
  List.concat_map
    (fun scenario -> List.map (fun variant -> { scenario; scale; variant }) w.variants)
    w.scenarios

(* The smoke transcript's SQL on the running example: [parse] compiles
   it, and an inline-SQL explain of it fingerprints like RE's own query,
   so it shares RE's default cache entry. *)
let smoke_sql =
  "SELECT name, city FROM FLATTEN(person, address2) WHERE year >= 2019 GROUP \
   BY city NEST name INTO nList"

let smoke_whynot = "(tuple (city (str NY)) (nList (bag ? *)))"
let parse_pin_id ~scale = Fmt.str "RE@%d/parse" scale

type check =
  | Explanations of string  (** pin id of the expected explanation list *)
  | Fingerprint of string  (** pin id of the expected parse fingerprint *)

type request = { line : string; check : check }

let line fields = Json.to_line (Json.J_object fields)

let register_line scenario ~scale =
  line
    [ ("op", Json.J_string "register"); ("dataset", Json.J_string scenario);
      ("scale", Json.J_int scale) ]

let explain_request k =
  {
    line =
      line
        ([ ("op", Json.J_string "explain"); ("dataset", Json.J_string k.scenario);
           ("scale", Json.J_int k.scale) ]
        @ option_fields k.variant);
    check = Explanations (key_id k);
  }

let parse_request ~scale =
  {
    line =
      line
        [ ("op", Json.J_string "parse"); ("dataset", Json.J_string "RE");
          ("scale", Json.J_int scale); ("query", Json.J_string smoke_sql);
          ("whynot", Json.J_string smoke_whynot) ];
    check = Fingerprint (parse_pin_id ~scale);
  }

let sql_explain_request ~scale =
  {
    line =
      line
        [ ("op", Json.J_string "explain"); ("dataset", Json.J_string "RE");
          ("scale", Json.J_int scale); ("query", Json.J_string smoke_sql) ];
    check =
      Explanations (key_id { scenario = "RE"; scale; variant = default_variant });
  }

(* -- streams ---------------------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Cold workloads: one seeded shuffle of every key per pass. *)
let cold_pass rng keys =
  let a = Array.of_list (List.map explain_request keys) in
  shuffle rng a;
  a

let zipf_s = 1.1
let block = 2_000
let parses_per_block = 200
let sql_explains_per_block = 100

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* (key index, count) of the keyed explains in one block: Zipf weights
   with largest-remainder rounding.  Zipf rank r is served by key
   (r * stride) mod n for a fixed stride coprime with n, so the hot set
   mixes scenarios and variants and is the same for every seed. *)
let block_counts n =
  let explains = block - parses_per_block - sql_explains_per_block in
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> float_of_int explains *. x /. total) w in
  let counts = Array.map int_of_float exact in
  let short = explains - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (exact.(b) -. floor exact.(b)) (exact.(a) -. floor exact.(a)))
    by_remainder;
  for i = 0 to short - 1 do
    counts.(by_remainder.(i)) <- counts.(by_remainder.(i)) + 1
  done;
  let stride =
    let rec go p = if gcd p n = 1 then p else go (p + 1) in
    go 37
  in
  Array.init n (fun r -> (r * stride mod n, counts.(r)))

(* Mixed: each connection replays blocks of [block] requests — 85% keyed
   explains in their exact Zipf (s = 1.1) shares, 10% parses of the smoke
   SQL, 5% inline-SQL explains — each block in its own seeded order.
   Fixing the shares per block keeps the miss mix of a run from
   depending on sampling luck; the seed drives the order. *)
let mixed_stream ~seed ~conn keys ~scale : unit -> request =
  let keys = Array.of_list (List.map explain_request keys) in
  let parse = parse_request ~scale and sql = sql_explain_request ~scale in
  let explains =
    Array.map (fun (k, c) -> Array.make c keys.(k)) (block_counts (Array.length keys))
  in
  let template =
    Array.concat
      (Array.to_list explains
      @ [ Array.make parses_per_block parse; Array.make sql_explains_per_block sql ])
  in
  let rng = Random.State.make [| seed; conn |] in
  let current = Array.copy template and next = ref block in
  fun () ->
    if !next >= Array.length current then begin
      Array.blit template 0 current 0 (Array.length template);
      shuffle rng current;
      next := 0
    end;
    incr next;
    current.(!next - 1)

(* Connection [conn]'s requests, and whether it is between whole passes,
   where it may stop.  The cold workloads have one connection; a mixed
   stream may stop anywhere. *)
let stream w ~seed ~conn ~scale =
  let keys = keys w ~scale in
  match w.shape with
  | Mixed -> (mixed_stream ~seed ~conn keys ~scale, fun () -> true)
  | Cold ->
    let rng = Random.State.make [| seed |] in
    let pass = ref [||] and next = ref 0 in
    let at_boundary () = !next >= Array.length !pass in
    ( (fun () ->
        if at_boundary () then begin
          pass := cold_pass rng keys;
          next := 0
        end;
        incr next;
        !pass.(!next - 1)),
      at_boundary )

(* The request lines the first connection sends, for the in-process
   replays of the serve layers. *)
let stream_prefix w ~seed ~scale n =
  let next, _ = stream w ~seed ~conn:0 ~scale in
  Array.init n (fun _ -> next ())
