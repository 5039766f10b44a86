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
    smallest such op id, so an operator set is an [int] bitmask and a
    row's failure-set family is a small [int array] of masks,
    deduplicated and sorted in
    {!Int_set.compare} order ({!compare_mask}).  Families are built in
    two flat passes over the annotation vectors ({!Tracing.vann}): a
    root-first pass marks the root rows MSR reads — the consistent ones
    and the non-surviving ones the bounds sweep visits — and their
    ancestors; a bottom-up pass computes the marked rows' families:
    - ⊥ (the empty family) where a parameter-free operator drops the row;
    - for Nest_rel, Group_agg, Dedup and Agg_tuple rows, the union of the
      members' families, preferring the consistent members;
    - for every other operator, the cross-product union over the
      parents (joins have two);
    - plus the operator's own bit where the row is not retained.
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
    ancestors; other rids raise [Invalid_argument]. *)
val failure_sets : Tracing.t -> int -> Set_set.t

(** Rids of root rows matching the why-not question under the
    relaxation (flag-vector reads; no tree reconstruction). *)
val consistent_root_rids : Tracing.t -> int list

type bounds_input = {
  original_result : Value.t list;  (** tuples of ⟦Q⟧_D, expanded *)
}

(** Side-effect bounds (LB, UB) of one explanation per Section 5.4; LB is
    0 for explanations containing selections or joins.  UB(Δ+) counts the
    non-surviving root rows with a failure set [s] inside the
    explanation's mask [e] ([s land lnot e = 0]). *)
val bounds :
  bi:bounds_input -> q:Nrab.Query.t -> Tracing.t -> Int_set.t -> int * int

(** Explanations contributed by one schema alternative's trace (not yet
    pruned/ranked across SAs).

    [?sample_stride] (default 1 = exact) samples the side-effect bounds
    sweep: only every s-th root row — keyed on the global rid, exactly
    like {!Tracing.run}'s sampler, so tracing and MSR sample the same
    rows — is examined, and the counts are scaled back up into unbiased
    estimates.  Candidate operator sets always come from the consistent
    root rows' failure sets, so a sampled run finds the {e same}
    explanations with {e estimated} LB/UB bounds. *)
val from_trace :
  ?sample_stride:int ->
  bi:bounds_input ->
  q:Nrab.Query.t ->
  Tracing.t ->
  Explanation.t list

(** Early-terminating top-k variant of {!from_trace}: candidates are
    evaluated in {!Explanation.rank}'s dominant order (cardinality, then
    elements) and the walk stops once [k] evaluated explanations provably
    rank ahead of every open candidate — strictly smaller cardinality, or
    equal cardinality with a side-effect upper bound strictly below
    UB(Δ−), the candidate-independent floor every open candidate's UB
    shares.  Returns the evaluated explanations (a superset of the true
    per-SA top [k], still to be pruned/ranked across SAs) and the number
    of candidates skipped unevaluated.  With [k] ≥ the number of
    candidates the result equals {!from_trace}'s exactly.
    [?sample_stride] samples the bounds sweep as in {!from_trace}. *)
val from_trace_topk :
  ?sample_stride:int ->
  bi:bounds_input ->
  q:Nrab.Query.t ->
  k:int ->
  Tracing.t ->
  Explanation.t list * int
