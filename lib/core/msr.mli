(** Approximate MSR computation (Section 5.4, Algorithm 4).

    Algorithm 4's per-operator conditions — a tuple that is valid,
    consistent, NOT retained, and in the lineage of a consistent output
    tuple forces the operator into the partial SR — are computed here per
    derivation: the *failure sets* of a consistent root row's derivations
    are exactly the operator sets that must be reparameterized for that
    row to materialize.  The schema alternative's SR prefix is added,
    side-effect bounds are estimated as in Section 5.4, and explanations
    are pruned and ranked under the partial order of Definition 9.

    {b Representation.}  Each trace gets a dense bit index over its
    reparameterizable operators that fail to retain at least one row
    (no other operator can enter a failure set), bit [b] for the [b]-th
    smallest such op id, so an operator set is an [int] bitmask.  A
    row's failure-set family is one [int] code: a code [m >= 0] is the
    one-set family [{m}] ([0] is [{∅}]), [-1] is ⊥ (the empty family),
    and [-2 - k] names the [k]-th entry of a per-trace side table of
    multi-set families, each at least two masks, deduplicated and
    sorted in {!Int_set.compare} order ({!compare_mask}).  Families are
    built in two flat passes over the annotation vectors of each
    {!Tracing.op_trace}, each specialised on the parents' shape: a
    root-first pass marks the root rows MSR reads — the consistent ones
    and the non-surviving ones the bounds sweep visits — and their
    ancestors; a bottom-up pass computes the marked rows' codes:
    - ⊥ where a parameter-free operator drops the row;
    - for Nest_rel, Group_agg, Dedup and Agg_tuple rows, the union of the
      members' families, preferring the consistent members; repeated
      member masks are dropped by an open-addressing set, so only the
      distinct ones are sorted;
    - for every other operator, the cross-product union over the
      parents (joins have two), a plain [lor] of the codes unless both
      sides hold several sets;
    - plus the operator's own bit where the row is not retained.
    The per-rid vectors of the two passes (a state byte and a code
    word per rid) live in one scratch per domain, grown geometrically
    and reset over the trace's rids at the start of each call, so a
    call allocates nothing per rid once its domain's scratch is large
    enough.  A call takes the scratch out of its [Domain.DLS] slot and
    puts it back when it returns or raises: a nested call on the same
    domain makes its own, and the slot keeps the larger of the two.
    Nothing that outlives a call reads the scratch.  The scratch never
    shrinks: each domain that has run MSR keeps about 9 bytes per rid
    of the largest trace it has seen (up to twice that, from the
    geometric growth) for the life of the process; no cap bounds it.
    The gauge [whynot.msr.scratch_bytes] counts the bytes the scratches
    were grown to: each grow adds the bytes it adds, and a scratch the
    slot drops for a larger one takes its bytes away.  A domain that
    exits frees its scratch but its bytes stay counted, so the gauge
    covers the domains still running and those that have exited; the
    default pool's domains live until the process ends.  The bounds
    sweep keeps the sampled non-surviving root rows as distinct
    (code, count) pairs, and the candidate sets are
    the distinct masks of the consistent root rows' families.
    [Int_set]/[Set_set] appear only at the API edge: candidate sets are
    decoded for {!Explanation.make}, and {!failure_sets} decodes for
    callers outside the pipeline. *)

open Nested

module Int_set = Opset.Int_set
module Set_set = Opset.Set_set

(** Raised (with the operator count) for a trace with more than
    {!max_operators} reparameterizable operators that each fail to
    retain some row: their sets do not fit a bitmask.  Operators that
    retain every row are not counted.  There is no slower fallback; the
    pipeline reports it as an explain error. *)
exception Too_many_operators of int

(** 62: masks use bits 0–61, so they stay non-negative. *)
val max_operators : int

(** Cap on alternative failure sets tracked per row: 64.  A family that
    grows past it keeps its 64 smallest sets by cardinality, ties broken
    by {!Int_set.compare} order.  The cap is applied after each
    cross-product step over a row's parents, to a group's member union,
    and to the row's final family; every application that drops sets
    increments the [whynot.msr.cap_truncations] counter. *)
val max_alternatives : int

(** Orders two masks exactly as {!Int_set.compare} orders the sets they
    encode (with bits assigned in increasing op id): at the lowest
    differing bit, the mask holding it is smaller iff the other mask has
    a higher bit. *)
val compare_mask : int -> int -> int

(** Decoded failure-set families of every root row and of its
    ancestors; other rids raise [Invalid_argument].  The closure reads
    its own copy of the rows' states and codes, so later calls on the
    domain, which overwrite the scratch, do not change its answers. *)
val failure_sets : Tracing.t -> int -> Set_set.t

(** Rids of root rows matching the why-not question under the
    relaxation (flag-vector reads; no tree reconstruction). *)
val consistent_root_rids : Tracing.t -> int list

type bounds_input = {
  original_result : Value.t list;
      (** tuples of ⟦Q⟧_D, expanded, in any order: the bounds only count
          them and test membership *)
}

(** ⟦Q⟧_D matched against one SA's root rows, the two facts the bounds
    need of it: [q_rows] = |⟦Q⟧_D|, and per root row, by index,
    [flags.\[i\]] = ['\001'] when row [i] survives and is
    [Value.equal] to some row of ⟦Q⟧_D (['\000'] otherwise).  A match
    is exactly [Value.equal]: [-0.0] matches [0.0] and any NaN matches
    any NaN.  [verified] counts the hash hits the matching compared
    with {!Engine.Columnar.equal_rows}.  Immutable once built, so SA
    jobs on several domains may read it at once. *)
type matches = { q_rows : int; flags : Bytes.t; verified : int }

(** [matches index data surviving]: [index] is ⟦Q⟧_D's, built once
    per prepare ({!Engine.Columnar.row_index}); [data] is an SA's root
    batch and [surviving] its flags ({!Tracing.relaxed_root}).  Only the
    surviving rows are looked up, each in place
    ({!Engine.Columnar.mem}: nothing is gathered or stacked, and a bag
    row hashes only its own elements).  The batch must share ⟦Q⟧_D's
    row type (an SA preserves the query's output type); their columns
    may differ in representation.  Compute it once per SA's relaxed
    evaluation ({!Pipeline.explain_with} keeps it beside the
    evaluation): every {!explain} of that SA reads it. *)
val matches : Engine.Columnar.row_index -> Engine.Columnar.t -> Bytes.t -> matches

(** The terms of one SA's bounds sweep, shared by every explanation of
    that SA.  With a sampling stride [s > 1], [surviving] and [matched]
    are scaled-up estimates ([s] × the sampled counts).
    - [original_rows]: |⟦Q⟧_D|;
    - [surviving]: the trace's surviving root rows (the SA query's
      result);
    - [matched]: the surviving root rows that match ⟦Q⟧_D;
    - [ub_minus]: UB(Δ−) = max 0 ([original_rows] − [matched]). *)
type terms = {
  original_rows : int;
  surviving : int;
  matched : int;
  ub_minus : int;
}

(** Side-effect bounds (LB, UB) of one explanation per Section 5.4; LB is
    0 for explanations containing selections or joins, and
    max 0 ([surviving] − [original_rows]) + UB(Δ−) otherwise.  UB is
    UB(Δ+) + UB(Δ−), where UB(Δ+) counts the non-surviving root rows
    with a failure set [s] inside the explanation's mask [e]
    ([s land lnot e = 0]).  Matches [bi] first, as {!from_trace}. *)
val bounds :
  bi:bounds_input -> q:Nrab.Query.t -> Tracing.t -> Int_set.t -> int * int

(** Explanations contributed by one schema alternative's trace (not yet
    pruned/ranked across SAs), the number of candidates [?top_k] left
    unevaluated (0 without it), and the sweep's bound terms.

    [matches] must be {!matches} over the trace's root rows (raises
    [Invalid_argument] when its flags are not one per root row).  The
    sweep only counts the sampled surviving rows and those of them it
    flags: no row is hashed or compared here.

    [?sample_stride] (default 1 = exact) samples the side-effect bounds
    sweep: only every s-th root row — keyed on the global rid, exactly
    like {!Tracing.annotate}'s sampler, so tracing and MSR sample the same
    rows — is examined, and the counts are scaled back up into
    estimates.  Candidate operator sets come from the consistent root
    rows' failure sets.  A sampled run does {e not} find the same
    explanations as an exact one: {!Tracing.annotate}'s sampler reads every
    off-sample row as inconsistent, so candidates that only off-sample
    rows witness are lost (ROADMAP, "Stop sampled tracing from silently
    dropping explanations").

    [?top_k] walks the candidates in {!Explanation.rank}'s dominant
    order (cardinality, then elements) and stops once [k] evaluated
    explanations provably rank ahead of every open candidate — strictly
    smaller cardinality, or equal cardinality with a side-effect upper
    bound strictly below UB(Δ−), the candidate-independent floor every
    open candidate's UB shares.  Its explanations are a superset of the
    true per-SA top [k], still to be pruned/ranked across SAs.  With [k]
    ≥ the number of candidates they are the exact run's explanations.

    [?span] gets int attributes that split the call's time, in µs:
    [families_us] (the two passes), [sweep_us] (the bounds sweep) and
    [candidates_us] (candidate sets and their bounds); and its family
    counts: [family_rows] (rows whose family was computed) and
    [multi_families] (entries of the side table). *)
val explain :
  ?span:Obs.Span.t ->
  ?sample_stride:int ->
  ?top_k:int ->
  matches:matches ->
  q:Nrab.Query.t ->
  Tracing.t ->
  Explanation.t list * int * terms

(** [explain]'s explanations, with ⟦Q⟧_D given as [bi] and matched
    ({!matches} against the {!Engine.Columnar.row_index} of
    [Engine.Columnar.of_rows bi.original_result]) for this one call. *)
val from_trace :
  ?sample_stride:int ->
  bi:bounds_input ->
  q:Nrab.Query.t ->
  Tracing.t ->
  Explanation.t list

(** [explain ~top_k:k]'s explanations and skipped-candidate count, with
    ⟦Q⟧_D given as [bi] and matched for this one call. *)
val from_trace_topk :
  ?sample_stride:int ->
  bi:bounds_input ->
  q:Nrab.Query.t ->
  k:int ->
  Tracing.t ->
  Explanation.t list * int
