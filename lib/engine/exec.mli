(** The mini-DISC executor: runs NRAB plans over partitioned datasets.

    Narrow operators (selection, projection, renaming, flattening, tuple
    nesting, per-tuple aggregation) run partition-local; blocking
    operators (joins, relation nesting, group aggregation, deduplication,
    difference) shuffle by key first, as a DISC system would.  The
    executor is a partition/shuffle driver: every operator's column
    logic is an {!Kernel} call, the same kernels data tracing runs.  It
    resolves attribute columns strictly (an unknown attribute raises
    {!Engine_error}, except where the reference evaluator reads Null)
    and builds hash joins on the smaller side.  Results agree with the
    reference evaluator {!Nrab.Eval} (tested). *)

open Nested
open Nrab

exception Engine_error of string

type config = {
  partitions : int;
  retry : Fault.policy;
      (** per-partition task retry budget; {!Fault.no_retry} by default.
          A partition task that raises {!Fault.Transient} is recomputed
          from its (immutable) input partition — Spark's task-retry
          model.  Retried attempts are marked with an [attempt] span
          attribute on the operator's span; exhaustion raises
          {!Fault.Exhausted} attributed as ["op:<symbol>#<id>/p<i>"]. *)
}

val default_config : config

(** Execute a plan; returns the result relation and execution
    statistics.

    With [?parent], the run is traced: an [engine.run] span is opened
    under the parent, one [op:<symbol>#<id>] child span per operator
    (carrying [input_rows]/[output_rows]/[shuffled_rows] attributes) and
    one [shuffle] child span per shuffle stage (carrying [rows_moved]).
    Without a parent no spans are allocated.  The {!Stats} counters are
    always folded into the {!Obs.Metrics} registry ([?registry],
    defaulting to {!Obs.Metrics.default}). *)
val run :
  ?config:config ->
  ?parent:Obs.Span.t ->
  ?registry:Obs.Metrics.t ->
  Relation.Db.t ->
  Query.t ->
  Relation.t * Stats.t

(** The same execution as {!run} — shuffles, retries, spans and
    statistics alike — returning the result rows in
    engine order (partition by partition) instead of a relation.  The
    rows are the multiset [Relation.tuples (fst (run db q))] holds, in
    another order: callers that only count rows or test membership skip
    the relation's canonical sort.  [run] is [Relation.of_tuples] over
    this. *)
val rows :
  ?config:config ->
  ?parent:Obs.Span.t ->
  ?registry:Obs.Metrics.t ->
  Relation.Db.t ->
  Query.t ->
  Value.t list * Stats.t
