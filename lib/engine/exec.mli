(** The mini-DISC executor: runs NRAB plans over partitioned datasets.

    Narrow operators (selection, projection, renaming, flattening, tuple
    nesting, per-tuple aggregation) run partition-local; blocking
    operators (joins, relation nesting, group aggregation, deduplication,
    difference) shuffle by key first, as a DISC system would.  The
    executor is a partition/shuffle driver: every operator's column
    logic is an {!Kernel} call, the same kernels data tracing runs.  It
    resolves attribute columns strictly (an unknown attribute raises
    {!Engine_error}, except where the reference evaluator reads Null)
    and builds hash joins on the smaller side.  Each table batch is
    narrowed to the columns the query reads ({!Kernel.reads}) before it
    is distributed, and a bag only its one flatten reads is dropped
    before that flatten gathers the parent rows.  Results agree with the
    reference evaluator {!Nrab.Eval} (tested). *)

open Nested
open Nrab

exception Engine_error of string

(** Execute a plan over [partitions] partitions (default 4, at least
    1); returns the result relation and execution statistics.

    The result is the same for every partition count up to
    {!Nested.Value.equal}, not as printed: where a γ group or a δ class
    holds floats that are equal but print apart ([-0.0]/[0.0],
    [nan]/[-nan]), which of them the result keeps depends on the
    partition count.

    The engine does not retry: an exception, {!Fault.Transient} included,
    propagates out of the run unwrapped, and the caller replays the
    whole run (the why-not pipeline's phase retry does).  The
    ["engine.run"] chaos site fires once per run, before any work.

    With [?parent], the run is traced: an [engine.run] span is opened
    under the parent, one [op:<symbol>#<id>] child span per operator
    (carrying [input_rows]/[output_rows]/[shuffled_rows] attributes, and
    for a table access [columns_kept]/[columns_pruned]) and
    one [shuffle] child span per shuffle stage (carrying [rows_moved]).
    Without a parent no spans are allocated.  The {!Stats} counters are
    always folded into the {!Obs.Metrics} registry ([?registry],
    defaulting to {!Obs.Metrics.default}). *)
val run :
  ?partitions:int ->
  ?parent:Obs.Span.t ->
  ?registry:Obs.Metrics.t ->
  Relation.Db.t ->
  Query.t ->
  Relation.t * Stats.t

(** The same execution as {!run} — shuffles, spans and statistics
    alike — returning the result as one batch: the partitions stacked
    in partition order ({!Columnar.vstack}), not a relation.  Its rows
    are the multiset [Relation.tuples (fst (run db q))] holds, in
    another order: callers that only count rows or test membership skip
    the relation's canonical sort and never rebuild a row.  [run] is
    [Relation.of_tuples] over this batch's rows. *)
val rows :
  ?partitions:int ->
  ?parent:Obs.Span.t ->
  ?registry:Obs.Metrics.t ->
  Relation.Db.t ->
  Query.t ->
  Columnar.t * Stats.t
