(* Canonical, structure-stable fingerprints — the serving layer's cache
   keys.

   64-bit FNV-1a over a token stream of the AST.  Every variable-length
   component (strings, lists) is length-prefixed, so adjacent tokens
   cannot alias across boundaries ("ab"+"c" vs "a"+"bc").  Operator ids
   are excluded from query fingerprints: ids are assigned by whichever
   generator parsed or built the query, and the cache must recognize the
   same query text registered twice (alpha-equivalent parameterization).
   Everything that changes the result — structure, parameters, constants,
   attribute names — is mixed in. *)

open Nested
open Nrab

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_int h n =
  let rec go h i = if i = 8 then h else go (mix_byte h (n asr (8 * i))) (i + 1) in
  go h 0

let mix_int64 h (n : int64) =
  let rec go h i =
    if i = 8 then h
    else go (mix_byte h (Int64.to_int (Int64.shift_right_logical n (8 * i)))) (i + 1)
  in
  go h 0

let mix_string h s =
  let h = mix_int h (String.length s) in
  let r = ref h in
  String.iter (fun c -> r := mix_byte !r (Char.code c)) s;
  !r

(* Constructor tags are single characters; the token they start is always
   followed by length-prefixed payloads, so single-byte tags suffice. *)
let tag h c = mix_byte h (Char.code c)

let mix_list mix h xs =
  List.fold_left mix (mix_int h (List.length xs)) xs

let rec mix_value h (v : Value.t) =
  match v with
  | Value.Null -> tag h 'N'
  | Value.Bool b -> mix_int (tag h 'B') (Bool.to_int b)
  | Value.Int i -> mix_int (tag h 'I') i
  | Value.Float f -> mix_int64 (tag h 'F') (Int64.bits_of_float f)
  | Value.String s -> mix_string (tag h 'S') s
  | Value.Tuple fields ->
    mix_list
      (fun h (l, v) -> mix_value (mix_string h l) v)
      (tag h 'T') fields
  | Value.Bag elems ->
    (* canonical order by construction, so order-sensitive mixing is
       deterministic *)
    mix_list
      (fun h (v, m) -> mix_int (mix_value h v) m)
      (tag h 'G') elems

let rec mix_expr h (e : Expr.t) =
  match e with
  | Expr.Const v -> mix_value (tag h 'c') v
  | Expr.Attr a -> mix_string (tag h 'a') a
  | Expr.Add (x, y) -> mix_expr (mix_expr (tag h '+') x) y
  | Expr.Sub (x, y) -> mix_expr (mix_expr (tag h '-') x) y
  | Expr.Mul (x, y) -> mix_expr (mix_expr (tag h '*') x) y
  | Expr.Div (x, y) -> mix_expr (mix_expr (tag h '/') x) y

let mix_cmp h (c : Expr.cmp) =
  tag h
    (match c with
    | Expr.Eq -> '='
    | Expr.Neq -> '!'
    | Expr.Lt -> '<'
    | Expr.Le -> 'l'
    | Expr.Gt -> '>'
    | Expr.Ge -> 'g')

let rec mix_pred h (p : Expr.pred) =
  match p with
  | Expr.True -> tag h 't'
  | Expr.False -> tag h 'f'
  | Expr.Cmp (c, x, y) -> mix_expr (mix_expr (mix_cmp (tag h 'C') c) x) y
  | Expr.And (a, b) -> mix_pred (mix_pred (tag h '&') a) b
  | Expr.Or (a, b) -> mix_pred (mix_pred (tag h '|') a) b
  | Expr.Not a -> mix_pred (tag h '~') a
  | Expr.IsNull e -> mix_expr (tag h '0') e
  | Expr.IsNotNull e -> mix_expr (tag h '1') e
  | Expr.Contains (e, s) -> mix_string (mix_expr (tag h 's') e) s

let mix_pairs h pairs =
  mix_list (fun h (a, b) -> mix_string (mix_string h a) b) h pairs

let mix_agg_fn h fn = mix_string h (Agg.fn_to_string fn)

let mix_node h (n : Query.node) =
  match n with
  | Query.Table name -> mix_string (tag h 'R') name
  | Query.Select p -> mix_pred (tag h 'S') p
  | Query.Project cols ->
    mix_list (fun h (name, e) -> mix_expr (mix_string h name) e) (tag h 'P') cols
  | Query.Rename pairs -> mix_pairs (tag h 'r') pairs
  | Query.Join (kind, p) ->
    let h = tag h 'J' in
    let h =
      tag h
        (match kind with
        | Query.Inner -> 'i'
        | Query.Left -> 'l'
        | Query.Right -> 'r'
        | Query.Full -> 'f')
    in
    mix_pred h p
  | Query.Product -> tag h 'X'
  | Query.Union -> tag h 'U'
  | Query.Diff -> tag h 'D'
  | Query.Dedup -> tag h 'd'
  | Query.Flatten_tuple a -> mix_string (tag h 'T') a
  | Query.Flatten (kind, a) ->
    let h = tag h 'F' in
    let h = tag h (match kind with Query.Flat_inner -> 'i' | Query.Flat_outer -> 'o') in
    mix_string h a
  | Query.Nest_tuple (pairs, into) -> mix_string (mix_pairs (tag h 'n') pairs) into
  | Query.Nest_rel (pairs, into) -> mix_string (mix_pairs (tag h 'M') pairs) into
  | Query.Agg_tuple (fn, over, into) ->
    mix_string (mix_string (mix_agg_fn (tag h 'A') fn) over) into
  | Query.Group_agg (groups, aggs) ->
    let h = mix_pairs (tag h 'G') groups in
    mix_list
      (fun h (fn, over, out) ->
        let h = mix_agg_fn h fn in
        let h =
          match over with
          | None -> tag h '*'
          | Some a -> mix_string (tag h '.') a
        in
        mix_string h out)
      h aggs

(* Pre-order, children length-prefixed; ids never touched. *)
let rec mix_query h (q : Query.t) =
  mix_list mix_query (mix_node h q.Query.node) q.Query.children

let rec mix_nip h (p : Whynot.Nip.t) =
  match p with
  | Whynot.Nip.Any -> tag h '?'
  | Whynot.Nip.Prim v -> mix_value (tag h 'p') v
  | Whynot.Nip.Pred (c, v) -> mix_value (mix_cmp (tag h 'q') c) v
  | Whynot.Nip.Tup fields ->
    mix_list (fun h (l, p) -> mix_nip (mix_string h l) p) (tag h 't') fields
  | Whynot.Nip.Bag (elems, star) ->
    mix_int (mix_list mix_nip (tag h 'b') elems) (Bool.to_int star)

let mix_alternatives h (alts : Whynot.Alternatives.alternatives) =
  mix_list
    (fun h (table, group) ->
      mix_list
        (fun h path -> mix_list mix_string h path)
        (mix_string h table) group)
    h alts

let value v = mix_value fnv_offset v
let expr e = mix_expr fnv_offset e
let pred p = mix_pred fnv_offset p
let query q = mix_query fnv_offset q
let nip p = mix_nip fnv_offset p
let alternatives a = mix_alternatives fnv_offset a

type options = {
  use_sas : bool;
  max_sas : int;
  revalidate : bool;
  sample_stride : int option;
  top_k : int option;
  budget_ms : float option;
}

let default_options =
  {
    use_sas = true;
    max_sas = 16;
    revalidate = true;
    sample_stride = None;
    top_k = None;
    budget_ms = None;
  }

(* Options absent (the exact path) mix a sentinel distinct from every
   present value, so an exact entry can never alias an approximate one —
   and vice versa — even for degenerate knob values. *)
let mix_int_opt h = function
  | None -> mix_int h (-1)
  | Some v -> mix_int (mix_int h 1) v

let mix_float_opt h = function
  | None -> mix_int h (-1)
  | Some v -> mix_int64 (mix_int h 1) (Int64.bits_of_float v)

let options o =
  let h =
    mix_int
      (mix_int (mix_int fnv_offset (Bool.to_int o.use_sas)) o.max_sas)
      (Bool.to_int o.revalidate)
  in
  mix_float_opt (mix_int_opt (mix_int_opt h o.sample_stride) o.top_k)
    o.budget_ms

let combine hs = List.fold_left mix_int64 fnv_offset hs

let to_hex h = Printf.sprintf "%016Lx" h

let prepare_key ~dataset ~version ~max_sas ~alternatives:alts q =
  to_hex
    (combine
       [ mix_string fnv_offset dataset; Int64.of_int version; mix_int fnv_offset max_sas;
         mix_alternatives fnv_offset alts; query q ])

let explain_key ~dataset ~version ~options:o ~alternatives:alts q pattern =
  to_hex
    (combine
       [ mix_string fnv_offset dataset; Int64.of_int version; options o;
         mix_alternatives fnv_offset alts; query q; nip pattern ])
