(* Execution statistics collected by the engine: per-operator input/output
   cardinalities and shuffle volumes, mirroring what one reads off a Spark
   UI when profiling the paper's implementation. *)

type op_stats = {
  op_id : int;
  op_label : string;
  mutable input_rows : int;
  mutable output_rows : int;
  mutable shuffled_rows : int;
}

type t = {
  mutable ops : op_stats list;
  mutable stages : int;  (* narrow chains broken by shuffles *)
}

let create () = { ops = []; stages = 1 }

let op (t : t) ~op_id ~op_label : op_stats =
  match List.find_opt (fun o -> o.op_id = op_id) t.ops with
  | Some o -> o
  | None ->
    let o = { op_id; op_label; input_rows = 0; output_rows = 0; shuffled_rows = 0 } in
    t.ops <- o :: t.ops;
    o

let record_shuffle (t : t) (o : op_stats) rows =
  o.shuffled_rows <- o.shuffled_rows + rows;
  if rows > 0 then t.stages <- t.stages + 1

(* Deterministic op_id order — find-or-create builds the list in
   insertion order, which must not leak into output or golden tests. *)
let ops (t : t) = List.sort (fun a b -> compare a.op_id b.op_id) t.ops

let stages (t : t) = t.stages

let total_output (t : t) =
  List.fold_left (fun acc o -> acc + o.output_rows) 0 t.ops

let total_shuffled (t : t) =
  List.fold_left (fun acc o -> acc + o.shuffled_rows) 0 t.ops

(* Fold the per-operator counters into an observability registry: totals
   as counters, per-operator cardinalities as log-scale histograms — the
   registry view of what [pp] prints. *)
let fold_into ?registry (t : t) =
  let counter n = Obs.Metrics.counter ?registry n in
  let histogram n = Obs.Metrics.histogram ?registry n in
  Obs.Metrics.Counter.incr ~by:(total_output t) (counter "engine.rows.output");
  Obs.Metrics.Counter.incr ~by:(total_shuffled t)
    (counter "engine.rows.shuffled");
  Obs.Metrics.Counter.incr ~by:t.stages (counter "engine.stages");
  Obs.Metrics.Counter.incr ~by:(List.length t.ops) (counter "engine.operators");
  List.iter
    (fun o ->
      Obs.Metrics.Histogram.observe
        (histogram "engine.op.input_rows")
        (float_of_int o.input_rows);
      Obs.Metrics.Histogram.observe
        (histogram "engine.op.output_rows")
        (float_of_int o.output_rows);
      if o.shuffled_rows > 0 then
        Obs.Metrics.Histogram.observe
          (histogram "engine.op.shuffled_rows")
          (float_of_int o.shuffled_rows))
    t.ops

let pp ppf (t : t) =
  let ops = ops t in
  Fmt.pf ppf "@[<v>stages: %d@,%a@]" t.stages
    (Fmt.list ~sep:Fmt.cut (fun ppf o ->
         Fmt.pf ppf "op %2d %-14s in=%-8d out=%-8d shuffled=%d" o.op_id
           o.op_label o.input_rows o.output_rows o.shuffled_rows))
    ops
