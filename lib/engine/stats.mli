(** Execution statistics: per-operator input/output cardinalities and
    shuffle volumes — what one reads off a Spark UI when profiling the
    paper's implementation. *)

type op_stats = {
  op_id : int;
  op_label : string;
  mutable input_rows : int;
  mutable output_rows : int;
  mutable shuffled_rows : int;
}

type t

val create : unit -> t

(** Find-or-create the stats record of an operator. *)
val op : t -> op_id:int -> op_label:string -> op_stats

(** Record a shuffle; a non-empty shuffle starts a new stage. *)
val record_shuffle : t -> op_stats -> int -> unit

(** All operator records, in [op_id] order (deterministic, independent
    of find-or-create insertion order). *)
val ops : t -> op_stats list

val stages : t -> int
val total_output : t -> int
val total_shuffled : t -> int

(** Fold the counters into an {!Obs.Metrics} registry (the default one
    if none is given): totals as counters, per-operator cardinalities as
    histograms. *)
val fold_into : ?registry:Obs.Metrics.t -> t -> unit

(** Prints operators in [op_id] order. *)
val pp : Format.formatter -> t -> unit
