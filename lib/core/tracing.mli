(** Data tracing (Section 5.3).

    For one schema alternative, the (attribute-substituted) query is
    evaluated with *relaxed* operators — selections pass everything,
    inner flattens and joins are generalized to their outer variants —
    and every intermediate tuple is annotated.  The per-SA relations here
    correspond to the per-SA column groups of the merged annotated tables
    of Figures 4–7 — and, like them, the annotations are stored columnar:
    flat flag vectors plus an offset-encoded parent adjacency ({!vann}),
    with per-row {!trow} trees reconstructed lazily from the arena-backed
    data batch.

    Aggregate constraints of the why-not question are checked
    *optimistically* via achievable ranges over sub-multisets of
    contributions, since the algorithm does not trace aggregate subsets
    (Section 5.5, corner (iii)). *)

open Nested
open Nrab

type trow = {
  rid : int;  (** unique row id within the trace *)
  data : Value.t;
  consistent : bool;
      (** matches the backtraced NIP at this operator — the re-validation
          that distinguishes the approach from prior lineage-based work *)
  retained : bool;
      (** this operator, with its (SA-substituted) original parameters,
          produces/keeps this row; [false] marks rows only a
          reparameterization admits *)
  surviving : bool;
      (** the row appears in the unrelaxed intermediate result
          (cumulative across upstream operators) *)
  parents : int list;  (** immediate-predecessor rows (lineage) *)
  ranges : (string * (float * float)) list;
      (** achievable intervals for aggregate-output fields *)
}

(** Parent adjacency of one operator's rows, offset-encoded. *)
type parents =
  | P_none  (** source rows *)
  | P_self of int  (** row [i]'s single parent is [base + i] *)
  | P_one of int array  (** one parent per row *)
  | P_many of int array * int array
      (** [offsets] of length [n+1] into the flat rid array *)

(** Columnar annotation vectors: one flag byte per row per annotation,
    rids implicit — row [i] of the operator is rid [v_rid0 + i]. *)
type vann = {
  v_n : int;
  v_rid0 : int;
  v_consistent : Bytes.t;
  v_retained : Bytes.t;
  v_surviving : Bytes.t;
  v_parents : parents;
  v_ranges : (string * (float * float)) list array option;
      (** [None] = no row carries ranges *)
}

type op_trace = {
  op_id : int;
  op_node : Query.node;
  nip : Nip.t;
  ann : vann;
  rows : trow list Lazy.t;
      (** per-row trees, reconstructed on demand — force via {!rows} *)
  data_at : int -> Value.t;
      (** single-row tree, without forcing the whole batch *)
}

type t = {
  sa : Alternatives.sa;
  ops : op_trace list;  (** topological order: children before parents *)
  root_op : int;
}

(** {1 Accessors} *)

(** Force the operator's per-row tree view. *)
val rows : op_trace -> trow list

val n_rows : op_trace -> int
val rid0 : op_trace -> int

(** Row data by index, reconstructing just that row. *)
val data_at : op_trace -> int -> Value.t

(** Flag lookups by row index (no tree reconstruction). *)
val consistent_at : op_trace -> int -> bool

val retained_at : op_trace -> int -> bool
val surviving_at : op_trace -> int -> bool
val parents_at : op_trace -> int -> int list
val parents_list : parents -> int -> int list
val op_trace : t -> int -> op_trace option
val root_rows : t -> trow list
val find_row : t -> int -> (trow * int) option

(** Interval satisfiability of a comparison: the optimistic NIP check for
    fields with achievable intervals (aggregate outputs). *)
val interval_satisfies : Expr.cmp -> Value.t -> float * float -> bool

(** Trace one schema alternative.  [bt] must be the backtrace of the SA's
    (substituted) query.  The relaxed evaluation runs over
    {!Engine.Columnar} batches; every operator's rows take a contiguous
    rid block, allocated in post-order over the operator tree.

    [revalidate] (default true) controls the paper's second novel
    technique: with [false], compatibility is checked at the table
    accesses only and the flag is merely propagated forward — the
    behaviour of prior lineage-based approaches, exposed as an ablation
    (it admits false positives on nested data).

    [sample_stride] (default 1 = exact) re-validates only rows whose
    global rid is a multiple of the stride; all other rows conservatively
    read inconsistent.  Rids are deterministic, so a sampled trace is
    reproducible run to run.
    Sampling makes the consistent set (and hence the explanations
    derived from it) a 1-in-N subsample — callers must surface the
    [1/stride] confidence. *)
val run :
  ?revalidate:bool ->
  ?sample_stride:int ->
  env:Typecheck.env ->
  Relation.Db.t ->
  Alternatives.sa ->
  Backtrace.t ->
  t
