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
    @param retries how many times a faulted phase is re-run (default 0,
           no retries), the pipeline's one recovery path.
           A phase body raising {!Engine.Fault.Transient} is recomputed
           from its immutable inputs — a fault in the engine's run of
           ⟦Q⟧_D replays that whole run in the [prepare/msr] phase;
           exhaustion raises {!Engine.Fault.Exhausted} attributed as e.g.
           ["sa:S2/tracing"] or ["prepare/msr"].  {!Cancel.Cancelled} is
           permanent — a cancelled run is never retried
    @param parent optional parent span; the run's root span is attached
           under it (and always returned in [result.span]) *)
val explain :
  ?approx:Approx.t ->
  ?use_sas:bool ->
  ?max_sas:int ->
  ?revalidate:bool ->
  ?alternatives:Alternatives.alternatives ->
  ?cancel:Cancel.t ->
  ?retries:int ->
  ?parent:Obs.Span.t ->
  Question.t ->
  result

(** {1 Prepared traced runs}

    The first half of the pipeline — schema-alternative enumeration,
    the execution of ⟦Q⟧_D anchoring the side-effect bounds, the trace
    of the subtrees no SA changes ({!Tracing.share}) and each SA's
    relaxed evaluation ({!Tracing.relax}) — depends only on ⟨query,
    database, alternatives⟩, not on the missing-answer pattern.  A
    {!handle} captures those artifacts so a long-lived service can pay
    for them once and answer every subsequent why-not pattern over the
    same ⟨Q, D⟩ with {!explain_with}.

    A handle holds:
    - the enumerated SAs (at most [max_sas], in enumeration order);
    - ⟦Q⟧_D, indexed for the bounds ({!Msr.original});
    - the shared blocks, with more than one SA;
    - one set-once slot per SA for its {!Tracing.relaxed}.  The slots
      are filled lazily: the first SA chain that completes the SA's
      relaxed evaluation publishes it, and every later chain for that SA
      runs only backtrace → consistency ({!Tracing.annotate}) → MSR.

    Thread-safety: a handle may be shared by concurrent {!explain_with}
    calls on any domains.  Each slot is an [Atomic.t] written by
    compare-and-set from empty, so it never changes once filled; two
    chains that race on an empty slot both compute the (pure) value and
    one of them is kept.  An evaluation that faults or is cancelled
    publishes nothing. *)

type handle

(** Run the pattern-independent phases.  The work is recorded under a
    [pipeline.prepare] span, exactly like the first half of {!explain}'s
    span tree: an [alternatives] child, then the [msr] child that runs
    ⟦Q⟧_D and indexes it for the bounds ({!Msr.original}).  With more than one SA, {!Tracing.share} runs as a job on the
    shared {!Engine.Pool} while ⟦Q⟧_D runs on the calling domain, so the
    two cost the longer of them, not the sum.  The job's
    [tracing.shared] span carries [queued_ms], [shared_blocks] and
    [shared_rows]; a [tracing] child after [msr] covers the wait for the
    job, if any.  The job retries under [retries] as task
    ["prepare/tracing"], and a cancelled run drops it if it has not
    started. *)
val prepare :
  ?use_sas:bool ->
  ?max_sas:int ->
  ?alternatives:Alternatives.alternatives ->
  ?cancel:Cancel.t ->
  ?retries:int ->
  ?parent:Obs.Span.t ->
  db:Nested.Relation.Db.t ->
  Query.t ->
  handle

val handle_sas : handle -> Alternatives.sa list

(** Answer one why-not pattern from a prepared handle.  The result is
    identical to {!explain} with the same options (same explanations,
    same ranking, same SA list); the [pipeline.explain] span just lacks
    the [alternatives]/initial-[msr] children, which were charged to
    {!prepare}.  Each SA's [tracing] span carries [relaxed_reused]: true
    when its relaxed evaluation came from the handle's slot, counted on
    [whynot.tracing.relaxed_reuses].

    The run covers a prefix of the handle's SAs.  Enumeration is a fixed
    order truncated at [max_sas], whose SA 0 is the query itself, so:
    @param use_sas [false] runs SA 0 alone, as [explain ~use_sas:false]
           (default true)
    @param max_sas runs the first [max_sas] SAs (default: the handle's
           [max_sas], which is 1 for a handle prepared without schema
           alternatives).
           @raise Invalid_argument when the handle cannot hold that run:
           a [max_sas] above the handle's when the handle's enumeration
           stopped at its cap *)
val explain_with :
  ?approx:Approx.t ->
  ?use_sas:bool ->
  ?max_sas:int ->
  ?revalidate:bool ->
  ?cancel:Cancel.t ->
  ?retries:int ->
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
