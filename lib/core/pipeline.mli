(** Algorithm 1 — the four-step heuristic why-not pipeline:

    + schema backtracing ({!Backtrace})
    + schema alternatives ({!Alternatives})
    + data tracing ({!Tracing})
    + approximate MSRs ({!Msr})

    [explain ~use_sas:false] is the paper's RPnoSA configuration (only the
    original schema alternative); [explain] with alternatives is RP. *)

open Nested
open Nrab

type result = {
  question : Question.t;
  sas : Alternatives.sa list;
  explanations : Explanation.t list;  (** pruned and ranked *)
  approx : Approx.report option;
      (** [None] = exact run; [Some r] = the run was budgeted/approximate
          and [r] records the degradation actually applied (mode,
          confidence, largest tracing stride, top-k cutoff, candidates
          skipped unevaluated) *)
  span : Obs.Span.t;
      (** finished root span of the run: one [sa:S<i>] child per schema
          alternative, each with [backtrace]/[tracing]/[msr] children
          (the [msr] child carries the SA's {!Msr.terms} as
          [original_rows], [surviving], [matched] and [ub_minus]), plus
          the [alternatives] enumeration and the final [msr]
          rank/prune *)
}

(** Typing environment of a database. *)
val schema_env : Relation.Db.t -> Typecheck.env

(** Compute query-based why-not explanations.

    Each schema alternative runs its own backtrace→tracing→MSR chain.
    When there is more than one SA and no wall-clock budget ([approx]
    omitted or its [budget_ms] is [None]), the chains run concurrently
    on the shared {!Engine.Pool} and the root span records
    [parallel_sas = true]; each [sa:S<i>] span then carries a
    [queued_ms] attribute (time from submission until the job started
    running).  A budgeted run, or one with a single SA, runs the chains
    one after another, so each SA's degradation decision sees the budget
    its predecessors left.  Either way the per-SA results are recombined
    in SA order before pruning and ranking, so the explanation list is
    the same; only the span tree differs — concurrent [sa:S<i>] phases
    overlap, so per-phase sums can exceed the root span's duration.

    @param approx running approximation budget (see {!Approx}).  Omitted,
           the run is exact and [result.approx] is [None].  Given, each
           schema alternative consults {!Approx.decide} before tracing —
           sampling the NIP re-validation at the decided stride and
           ranking only the decided top k — and [result.approx] reports
           the degradation actually applied.  An [Approx.start
           Approx.exact] budget decides stride 1 / no top-k everywhere,
           and the explanation list is byte-identical to an unbudgeted
           run
    @param use_sas consider schema alternatives (default true)
    @param max_sas cap on enumerated SAs (default 16)
    @param revalidate re-validate consistency at every operator (default
           true); [false] is the no-re-validation ablation, reproducing
           the false positives of prior lineage-based approaches
    @param alternatives attribute-alternative groups per table
    @param cancel cooperative cancellation token (default
           {!Cancel.none}).  Polled at phase and schema-alternative
           boundaries; when it trips, {!Cancel.Cancelled} is raised with
           the boundary's name, and the run's root span is finished with
           a [cancelled_at] attribute (partial-phase attribution)
    @param retry per-phase task retry policy (default
           {!Engine.Fault.no_retry}).  A phase body raising
           {!Engine.Fault.Transient} is recomputed from its immutable
           inputs; exhaustion raises {!Engine.Fault.Exhausted} attributed
           as e.g. ["sa:S2/tracing"].  {!Cancel.Cancelled} is permanent —
           a cancelled run is never retried
    @param parent optional parent span; the run's root span is attached
           under it (and always returned in [result.span]) *)
val explain :
  ?approx:Approx.t ->
  ?use_sas:bool ->
  ?max_sas:int ->
  ?revalidate:bool ->
  ?alternatives:Alternatives.alternatives ->
  ?cancel:Cancel.t ->
  ?retry:Engine.Fault.policy ->
  ?parent:Obs.Span.t ->
  Question.t ->
  result

(** {1 Prepared traced runs}

    The first half of the pipeline — schema-alternative enumeration,
    the execution of ⟦Q⟧_D anchoring the side-effect bounds, and the
    trace of the subtrees no SA changes ({!Tracing.share}) — depends
    only on ⟨query, database, alternatives⟩, not on the missing-answer
    pattern.  A {!handle} captures those artifacts so a long-lived
    service can pay for them once and answer every subsequent why-not
    pattern over the same ⟨Q, D⟩ with {!explain_with}, which runs only
    the pattern-dependent per-SA backtrace→tracing→MSR chains; every
    SA's tracing reuses the handle's shared blocks. *)

type handle

(** Run the pattern-independent phases.  The work is recorded under a
    [pipeline.prepare] span, exactly like the first half of {!explain}'s
    span tree: an [alternatives] child, then the [msr] child that runs
    ⟦Q⟧_D and indexes it for the bounds ({!Msr.original}).  With more than one SA, {!Tracing.share} runs as a job on the
    shared {!Engine.Pool} while ⟦Q⟧_D runs on the calling domain, so the
    two cost the longer of them, not the sum.  The job's
    [tracing.shared] span carries [queued_ms], [shared_blocks] and
    [shared_rows]; a [tracing] child after [msr] covers the wait for the
    job, if any.  The job retries under [retry] as task
    ["prepare/tracing"], and a cancelled run drops it if it has not
    started. *)
val prepare :
  ?use_sas:bool ->
  ?max_sas:int ->
  ?alternatives:Alternatives.alternatives ->
  ?cancel:Cancel.t ->
  ?retry:Engine.Fault.policy ->
  ?parent:Obs.Span.t ->
  db:Nested.Relation.Db.t ->
  Query.t ->
  handle

val handle_query : handle -> Query.t
val handle_sas : handle -> Alternatives.sa list

(** Answer one why-not pattern from a prepared handle.  The result is
    identical to {!explain} on the same inputs (same explanations, same
    ranking); the [pipeline.explain] span just lacks the
    [alternatives]/initial-[msr] children, which were charged to
    {!prepare}. *)
val explain_with :
  ?approx:Approx.t ->
  ?revalidate:bool ->
  ?cancel:Cancel.t ->
  ?retry:Engine.Fault.policy ->
  ?parent:Obs.Span.t ->
  handle ->
  Nip.t ->
  result

(** The four algorithm phases, in pipeline order:
    ["backtrace"; "alternatives"; "tracing"; "msr"]. *)
val phases : string list

(** Wall time per phase in ms, summed across schema alternatives (the
    per-phase breakdown of Figures 8–11); pairs are in {!phases} order. *)
val phase_durations_ms : result -> (string * float) list

(** Allocation pressure per phase — (bytes allocated, minor collections),
    summed across schema alternatives; pairs are in {!phases} order. *)
val phase_gc : result -> (string * (float * int)) list

(** Explanation operator-id sets, in rank order. *)
val explanation_sets : result -> int list list

val pp_result : Format.formatter -> result -> unit
