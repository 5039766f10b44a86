(** Data tracing (Section 5.3).

    For one schema alternative, the (attribute-substituted) query is
    evaluated with *relaxed* operators — selections pass everything,
    inner flattens and joins are generalized to their outer variants —
    and every intermediate tuple is annotated.  The per-SA relations here
    correspond to the per-SA column groups of the merged annotated tables
    of Figures 4–7 — and, like them, the annotations are stored columnar:
    each operator's trace is one record ({!op_trace}) of its data batch,
    one flag vector per annotation and an offset-encoded parent
    adjacency.

    The relaxed operators are the engine's own: every operator's data
    comes from the {!Engine.Kernel} call that ⟦Q⟧_D's executor makes
    (a relaxed join is the full outer join, a relaxed flatten the outer
    flatten), and the annotations are derived from the index vectors
    the kernels return.  Tracing reads an attribute a batch lacks as
    Null, and builds every hash join on the right side: the candidate
    order fixes the rids.

    A batch holds only the columns the SA query reads
    ({!Engine.Kernel.reads}): every attribute an operator reads, every
    output field, every field under δ, ∪, − and ν, and of a bag only
    flattens read, the element fields read above them.  So every
    attribute a backtraced NIP constrains is a column of its operator's
    batch, and the rows, flags, parents and ranges are those of whole
    batches; [data] at an inner operator may lack columns no operator
    reads.

    Aggregate constraints of the why-not question are checked
    *optimistically* via achievable ranges over sub-multisets of
    contributions, since the algorithm does not trace aggregate subsets
    (Section 5.5, corner (iii)). *)

open Nested
open Nrab

(** Parent adjacency of one operator's rows, offset-encoded. *)
type parents =
  | P_none  (** source rows *)
  | P_self of int  (** row [i]'s single parent is [base + i] *)
  | P_one of int array  (** one parent per row *)
  | P_many of int array * int array
      (** [offsets] of length [n+1] into the flat rid array *)

(** One operator's trace, columnar: row [i] of the operator is rid
    [rid0 + i], and each flag vector holds one byte per row (['\001'] =
    set). *)
type op_trace = {
  op_id : int;
  op_node : Query.node;
  nip : Nip.t;
  rid0 : int;  (** the operator's rows are rids [[rid0, rid0 + n)] *)
  n : int;
  data : Engine.Columnar.t;  (** the operator's output batch *)
  consistent : Bytes.t;
      (** matches the backtraced NIP at this operator — the re-validation
          that distinguishes the approach from prior lineage-based work *)
  retained : Bytes.t;
      (** this operator, with its (SA-substituted) original parameters,
          produces/keeps this row; unset marks rows only a
          reparameterization admits *)
  surviving : Bytes.t;
      (** the row appears in the unrelaxed intermediate result
          (cumulative across upstream operators) *)
  parents : parents;  (** immediate-predecessor rows (lineage) *)
  ranges : (string * (float * float)) list array option;
      (** achievable intervals for aggregate-output fields; [None] = no
          row carries ranges *)
}

type t = {
  sa : Alternatives.sa;
  ops : op_trace list;  (** topological order: children before parents *)
  root_op : int;
}

(** {1 Accessors} *)

val n_rows : op_trace -> int
val rid0 : op_trace -> int

(** Flag lookups by row index; {!Engine.Columnar.get_row} [ot.data i]
    gives the row's data. *)
val consistent_at : op_trace -> int -> bool

val retained_at : op_trace -> int -> bool
val surviving_at : op_trace -> int -> bool
val parents_at : op_trace -> int -> int list
val op_trace : t -> int -> op_trace option

(** Interval satisfiability of a comparison: the optimistic NIP check for
    fields with achievable intervals (aggregate outputs). *)
val interval_satisfies : Expr.cmp -> Value.t -> float * float -> bool

(** {1 Tracing}

    Tracing splits into a part that does not depend on the missing-answer
    pattern — the relaxed evaluation, with the data, [retained],
    [surviving], [parents] and [ranges] of every operator — and a part
    that does: [consistent], from the SA's backtrace.  The consistency
    rules, one function for every operator however it was evaluated:
    - a table access matches its NIP, also when [revalidate] is false;
    - σ, ∪, − and δ: a row is consistent when any of its parent rows is;
    - every other operator matches its NIP when [revalidate] is true and
      otherwise takes the any-parent rule.
    NIP masks are keyed on the SA's own rids (see [sample_stride]). *)

(** The SA-invariant part of a set of SA queries, traced once. *)
type shared

(** [share ~env db sas] traces once every maximal subtree that is equal
    in every SA query of [sas] and holds none of their [changed_ops].
    Each such block keeps its operators' data batches, [retained],
    [surviving] and [ranges] vectors and parent rids relative to the
    block, whose first row is rid 0.  Blocks are keyed by tree position,
    not by operator id.  Fewer than two SAs share nothing.  Fires the
    ["tracing.shared"] fault site once per call and adds the blocks' row
    count to the [whynot.tracing.shared_rows] counter.  The blocks are
    evaluated under the union of the SAs' column sets. *)
val share : env:Typecheck.env -> Relation.Db.t -> Alternatives.sa list -> shared

(** Number of blocks and their total rows. *)
val shared_blocks : shared -> int

val shared_rows : shared -> int

(** Columns the blocks' table scans kept and left out, counted at every
    depth as {!Engine.Kernel.scan} counts them. *)
val shared_columns : shared -> int * int

(** One SA's relaxed evaluation: every operator's data batch, rid block,
    [retained], [surviving], parents and ranges — all of the trace but
    [consistent].  It depends only on ⟨SA query, database⟩, never on the
    missing-answer pattern, the stride or [revalidate], so one value
    serves every {!annotate} of that SA.  Immutable: safe to share across
    domains. *)
type relaxed

(** [relax ?shared ~env db sa] evaluates [sa]'s (substituted) query
    relaxed over {!Engine.Columnar} batches; every operator's rows take a
    contiguous rid block, allocated in post-order over the operator tree.
    Fires the ["tracing.relaxed"] fault site once per call.

    [shared] must come from {!share} over an SA list that holds [sa],
    with the same [env] and database.  Where the SA's query has a block's
    subtree at the block's position, the block is reused instead of
    evaluated: its operators take their rids in the same post-order,
    starting at the rid the subtree's first row gets in this SA, so the
    stored parent rids are rebased by that rid, and its batches are
    narrowed to the SA's own column set ({!Engine.Kernel.keep}); a block
    that cannot be narrowed exactly is evaluated instead.  The result is
    the same, field by field, as without [shared]; omitted, nothing is
    reused. *)
val relax :
  ?shared:shared -> env:Typecheck.env -> Relation.Db.t -> Alternatives.sa -> relaxed

(** The root operator's data batch and its [surviving] flags, one byte
    per row (['\001'] = surviving): the rows of the SA query's relaxed
    result, and which of them are the SA query's result.  The same
    batch and flags as the root's {!op_trace} in every {!annotate} of
    [r]. *)
val relaxed_root : relaxed -> Engine.Columnar.t * Bytes.t

(** [annotate r bt] computes consistency over [r], bottom-up, from [bt],
    which must be the backtrace of [r]'s SA query, and returns the SA's
    trace.  Only [consistent] is computed here; every other field is
    [r]'s, shared, not copied.

    [revalidate] (default true) controls the paper's second novel
    technique: with [false], compatibility is checked at the table
    accesses only and the flag is merely propagated forward — the
    behaviour of prior lineage-based approaches, exposed as an ablation
    (it admits false positives on nested data).

    [sample_stride] (default 1 = exact) re-validates only rows whose
    rid is a multiple of the stride; all other rows conservatively read
    inconsistent.  Rids are deterministic, so a sampled trace is
    reproducible run to run.
    Sampling makes the consistent set (and hence the explanations
    derived from it) a 1-in-N subsample — callers must surface the
    [1/stride] confidence. *)
val annotate :
  ?revalidate:bool -> ?sample_stride:int -> relaxed -> Backtrace.t -> t

(** Trace one schema alternative: [annotate ?revalidate ?sample_stride
    (relax ~env db sa) bt]. *)
val run :
  ?revalidate:bool ->
  ?sample_stride:int ->
  env:Typecheck.env ->
  Relation.Db.t ->
  Alternatives.sa ->
  Backtrace.t ->
  t
