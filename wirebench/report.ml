(* The metric list of BENCHMARK.json, quantiles, the results file, and
   the final result line. *)

open Nested

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)
let str = function Some (Json.J_string s) -> s | _ -> ""

let float_of = function
  | Some (Json.J_float f) -> Some f
  | Some (Json.J_int n) -> Some (float_of_int n)
  | _ -> None

type metric = {
  name : string;
  unit : string;
  lower : bool;  (** lower is better *)
  bound : float option;  (** per-layer metrics have none *)
}

(* The metrics of a BENCHMARK.json section ("end_to_end" or "per_layer"),
   in the order they are printed.  The file sits at the repository root,
   where the benchmark runs. *)
let spec =
  let j = lazy (read_json "BENCHMARK.json") in
  fun section ->
    match Pins.member section (Lazy.force j) with
    | Some (Json.J_array ms) ->
      List.map
        (fun m ->
          let field name = Pins.member name m in
          {
            name = str (field "name");
            unit = str (field "unit");
            lower = str (field "better") = "lower";
            bound = float_of (field "bound");
          })
        ms
    | _ -> failwith ("BENCHMARK.json has no " ^ section ^ " list")

let unit_of name =
  match List.find_opt (fun m -> m.name = name) (spec "end_to_end" @ spec "per_layer") with
  | Some m -> m.unit
  | None -> failwith ("BENCHMARK.json does not list " ^ name)

(* -- statistics ------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted xs) 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

type row = {
  layer : string;
  metric : string;
  unit : string;
  n : int;
  median : float;
  p25 : float;
  p75 : float;
  p95 : float;
}

let row ~layer ~metric ~unit xs =
  let a = sorted xs in
  {
    layer;
    metric;
    unit;
    n = Array.length a;
    median = quantile a 0.5;
    p25 = quantile a 0.25;
    p75 = quantile a 0.75;
    p95 = quantile a 0.95;
  }

(* -- output ---------------------------------------------------------------- *)

let num f = if Float.is_finite f then Json.J_float f else Json.J_null

(* %.17g keeps every digit of the measurement; plain JSON numbers *)
let number f = Printf.sprintf "%.17g" f

(* Commit of the checkout, read from .git without running git (which
   would search parent directories); "unknown" outside a clone. *)
let git_commit () =
  let read p = String.trim (In_channel.with_open_bin p In_channel.input_all) in
  try
    let head = read (Filename.concat ".git" "HEAD") in
    match String.starts_with ~prefix:"ref: " head with
    | false -> head
    | true ->
      let r = String.sub head 5 (String.length head - 5) in
      let loose = Filename.concat ".git" r in
      if Sys.file_exists loose then read loose
      else
        read (Filename.concat ".git" "packed-refs")
        |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; name ] when name = r -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

type outcome = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  rows : row list;
  provenance : (string * Json.json) list;
}

(* {provenance, correct, attempted, failed, metrics, rows}, one row per
   line. *)
let write_results path o =
  Wire.mkdir_p (Filename.dirname path);
  let row_json r =
    Json.J_object
      [
        ("workload", Json.J_string o.workload);
        ("layer", Json.J_string r.layer);
        ("metric", Json.J_string r.metric);
        ("unit", Json.J_string r.unit);
        ("n", Json.J_int r.n);
        ("median", num r.median);
        ("p25", num r.p25);
        ("p75", num r.p75);
        ("p95", num r.p95);
      ]
  in
  let metric (name, v) =
    (name, Json.J_object [ ("value", num v); ("unit", Json.J_string (unit_of name)) ])
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"provenance\": ";
      output_string oc (Json.to_line (Json.J_object o.provenance));
      Printf.fprintf oc
        ",\n \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n \"metrics\": " o.correct
        o.attempted o.failed;
      output_string oc (Json.to_line (Json.J_object (List.map metric o.metrics)));
      output_string oc ",\n \"rows\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc ("  " ^ Json.to_line (row_json r)))
        o.rows;
      output_string oc "\n ]}\n")

(* Every metric by name and unit, then the result object as the last
   line of standard output. *)
let print o =
  List.iter
    (fun (name, v) ->
      Printf.printf "%-12s %-36s %18.6f %s\n" o.workload name v (unit_of name))
    o.metrics;
  let str s = Json.to_line (Json.J_string s) in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str name) (number v)
             (str (unit_of name)))
         o.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" o.correct
    o.attempted o.failed metrics
