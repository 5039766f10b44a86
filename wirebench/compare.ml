(* [main.exe compare PARENT... -- CHANGE...]: results files of the parent
   commit against results files of the change, per (workload, metric),
   under the bounds and directions of BENCHMARK.json.

   - regression: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: either side's interquartile spread is wider than the
     bound, unless every change run beats every parent run;
   - a named claim (--claim WORKLOAD:METRIC) holds when there are at
     least 10 parent/change pairs, the change wins at least 9 in 10 of
     them (ties count for neither), and the medians differ by more than
     the parent's interquartile range.

   Exits 1 on a regression or an unmet claim. *)

open Nested

let member = Pins.member

(* workload, (metric, value) list *)
let load_run path =
  let j = Report.read_json path in
  let workload = Report.str (Option.bind (member "provenance" j) (member "workload")) in
  match member "metrics" j with
  | Some (Json.J_object ms) ->
    let value (k, v) = Option.map (fun f -> (k, f)) (Report.float_of (member "value" v)) in
    (workload, List.filter_map value ms)
  | _ -> (workload, [])

let quartiles xs =
  let a = Report.sorted xs in
  (Report.quantile a 0.25, Report.quantile a 0.5, Report.quantile a 0.75)

let rec pairs a b = match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []

let run ~claims parents changes =
  let spec = Report.spec "end_to_end" @ Report.spec "per_layer" in
  let parents = List.map load_run parents and changes = List.map load_run changes in
  let failed = ref false in
  Printf.printf "%-12s %-34s %-28s %-28s %9s  %s\n" "workload" "metric"
    "parent median [p25, p75]" "change median [p25, p75]" "delta" "verdict";
  let compare_metric w { Report.name; lower; bound; _ } =
    let values side =
      List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None) side
    in
    let p = values parents and c = values changes in
    if p <> [] && c <> [] then begin
      let p25, pm, p75 = quartiles p and c25, cm, c75 = quartiles c in
      let better a b = if lower then a < b else a > b in
      let delta = (cm -. pm) /. Float.abs pm in
      let worse = if lower then delta else -.delta in
      let verdict =
        match bound with
        | None -> ""
        | Some b ->
          let beats_all = List.for_all (fun ci -> List.for_all (better ci) p) c in
          let spread =
            Float.max ((p75 -. p25) /. Float.abs pm) ((c75 -. c25) /. Float.abs cm)
          in
          if spread > b && not beats_all then "unresolved (spread > bound)"
          else if worse > b then begin
            failed := true;
            Printf.sprintf "REGRESSION (> %.0f%%)" (100. *. b)
          end
          else "ok"
      in
      let verdict =
        if not (List.mem (w, name) claims) then verdict
        else begin
          let ps = pairs p c in
          let wins = List.length (List.filter (fun (pi, ci) -> better ci pi) ps) in
          let n = List.length ps in
          let met = n >= 10 && wins * 10 >= 9 * n && Float.abs (cm -. pm) > p75 -. p25 in
          if not met then failed := true;
          Printf.sprintf "%s claim %s (%d of %d pairs won)" verdict
            (if met then "met" else "NOT met")
            wins n
        end
      in
      Printf.printf
        "%-12s %-34s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+8.2f%%  %s\n" w name pm
        p25 p75 cm c25 c75 (100. *. delta) verdict
    end
  in
  List.iter
    (fun w -> List.iter (compare_metric w) spec)
    (List.sort_uniq compare (List.map fst (parents @ changes)));
  if !failed then exit 1
