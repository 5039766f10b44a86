(** Columnar arena representation of nested-value batches.

    A batch stores rows struct-of-arrays: flat typed arrays for
    primitive columns, per-row element ranges into a shared element
    store for bags, one global hash-consed string dictionary, and packed
    presence bitmaps for
    [Null].  [of_rows]/[to_rows] are exact inverses on arbitrary
    {!Nested.Value.t} rows — canonical bag order is preserved verbatim —
    so the tree API remains the semantic boundary and per-row
    reconstruction can stay lazy.

    Columns whose rows disagree on shape (mixed primitive kinds,
    differing tuple labels) fall back to a boxed [CBox] column; every
    kernel still works, just row-at-a-time for that column. *)

open Nested

(** Packed bit vectors (8 bits per byte). *)
module Bitv : sig
  type t

  val create : int -> bool -> t
  val length : t -> int
  val get : t -> int -> bool
  val set : t -> int -> bool -> unit
  val init : int -> (int -> bool) -> t
  val copy : t -> t
  val logand : t -> t -> t
  val logor : t -> t -> t
  val lognot : t -> t

  (** Number of set bits among the valid positions. *)
  val count : t -> int

  (** Positions of set bits, ascending. *)
  val indices : t -> int array

  val for_all : t -> bool
end

(** Process-wide hash-consed string dictionary.  Thread-safe. *)
module Dict : sig
  (** Intern a string, returning its stable code.  Bumps the
      [engine.columnar.dict_hits] counter when the string was already
      present. *)
  val intern : string -> int

  val lookup : int -> string

  (** Memoized {!value_hash} of the interned string. *)
  val hash : int -> int

  val size : unit -> int
end

type col =
  | CNull of int  (** [n] all-Null rows *)
  | CConst of int * Value.t  (** [n] copies of one non-Null value *)
  | CBool of Bitv.t * Bitv.t option  (** values, presence ([None] = all) *)
  | CInt of int array * Bitv.t option
  | CFloat of float array * Bitv.t option
  | CStr of int array * Bitv.t option  (** global dictionary codes *)
  | CTuple of int * (string * col) list * Bitv.t option
  | CBag of bag
  | CBox of Value.t array  (** fallback for shape-mixed columns *)

(** A bag column.  Row [i]'s bag is the elements
    [\[bstart.(i), bstop.(i))] of the store [belems], with their
    multiplicities in [bmult], in canonical order.  Rows may share one
    store, and ranges: {!gather} and {!filter} keep the store when the
    gathered rows reference at least half of it, and {!vstack} stacks the
    ranges of pieces that all have the same ([==]) store.  Otherwise
    they compact it to the ranges the rows reference, a run of rows with
    one range keeping one copy.

    Invariant: a store holds at most twice the element references of
    its rows (the sum of their range lengths), so a vectorized pass over
    the store ([hash_col], [Coder.col_codes], [col_values], NIP masks)
    costs at most twice what a walk over the rows' ranges would. *)
and bag = {
  bn : int;
  bstart : int array;  (** per row, its first element in the store *)
  bstop : int array;  (** per row, one past its last element *)
  bmult : int array;  (** per stored element, its multiplicity *)
  belems : col;  (** the element store; each range in canonical order *)
  bpresent : Bitv.t option;  (** absent rows are [Null], not empty bags *)
}

type t = { n : int; row : col }

val length : t -> int
val col_length : col -> int

(** {1 Building and reconstruction} *)

val of_rows : Value.t list -> t
val of_values : Value.t array -> t

(** Exact inverse of [of_rows]: bags come back in stored canonical
    order, never re-normalized. *)
val to_rows : t -> Value.t list

val to_values : t -> Value.t array
val col_values : col -> Value.t array
val get_row : t -> int -> Value.t

(** [cmp_rows t i j] orders rows [i] and [j] exactly like
    [Value.compare (get_row t i) (get_row t j)], without reconstructing
    either value. *)
val cmp_rows : t -> int -> int -> int

(** [equal_value c i v] is [Value.equal (col_get c i) v], decided
    without reconstructing row [i] and without allocating.  Floats
    compare as [Value.equal] compares them ([0.0] equals [-0.0], [nan]
    equals [nan]). *)
val equal_value : col -> int -> Value.t -> bool

(** [cells_equal a i b j] is [col_get a i = col_get b j] under OCaml's
    structural equality ([nan] differs from itself, [0.0] equals
    [-0.0]), decided without reconstructing either value.  The two
    columns may be of different batches and representations. *)
val cells_equal : col -> int -> col -> int -> bool

(** [eqclasses n cols] assigns each of the [n] rows the smallest row
    index structurally equal to it on every listed column — an exact
    integer grouping key (hash candidates are verified with the
    columnar comparator). *)
val eqclasses : int -> col list -> int array
val col_get : col -> int -> Value.t

(** Columnar build of a relation's expanded tuples, cached by the
    relation's physical identity (bounded LRU-ish cache). *)
val of_relation : Relation.t -> t

(** {1 Tuple structure} *)

(** Top-level columns when every row is a tuple of the same labels;
    [None] otherwise (fall back to row access). *)
val cols : t -> (string * col) list option

val find_col : t -> string -> col option
val of_cols : int -> (string * col) list -> t

(** {1 Kernels} *)

val gather : t -> int array -> t
val filter : t -> Bitv.t -> t
val col_gather : col -> int array -> col

(** [stride_indices ~n ~offset ~stride] — every index in [\[0, n)]
    congruent to [offset] modulo [stride] ([stride <= 1] means all of
    them).  The gather pattern of stride-sampled tracing scans. *)
val stride_indices : n:int -> offset:int -> stride:int -> int array

(** Row-wise tuple concatenation (raises like [Value.concat_tuples] on
    non-tuple rows). *)
val hstack : t -> t -> t

val vstack : t list -> t
val empty : t

(** [n] copies of one value, as a batch. *)
val broadcast : int -> Value.t -> t

(** Which rows hold [Null] ([None] = no nulls). *)
val null_mask : col -> Bitv.t option

(** [flatten_tuple inner_ty c] — the columns a tuple flatten splices
    next to its input for the tuple column [c] of type [inner_ty],
    built column-wise.  A [CTuple] whose labels are [inner_ty]'s gives
    its field columns, with its presence bitmap pushed into each field so
    a [Null] tuple reads [Null] in every field (the [Vtype.null_tuple]
    pad); an all-[Null] column gives the pad, broadcast.  [None] for any
    other column, and when a field cannot carry presence ([CConst],
    [CBox]): callers then rebuild the tuples per row. *)
val flatten_tuple : Vtype.t -> col -> t option

(** The canonical bag builder behind relation nesting, in the engine and
    in tracing.  [canonical_bags b codes groups] builds one bag per
    group of row indices of [b].  Each bag holds its members' distinct
    rows with merged multiplicities, ordered by [cmp_rows b]: exactly
    the contents [Value.bag_of_list] gives the members' rows, without
    reconstructing them.  [codes] must be [eqclasses] over [b]'s
    columns; each bag element is gathered from the row its code names,
    all of them in one [gather]. *)
val canonical_bags : t -> int array -> int array array -> col

(** {1 Value coding}

    Hash-consed integer codes: two values receive the same code iff
    they are structurally equal — the equivalence generic [Hashtbl]
    grouping on rows uses.  A coder's codes are consistent
    across every column it codes, so join keys from both sides can be
    compared as ints. *)
module Coder : sig
  type t

  val create : unit -> t

  (** Code of [Value.Null] (join key exclusion checks against this). *)
  val null_code : int

  val col_codes : t -> col -> int array

  (** Combine per-column code arrays into one code per row
      (order-sensitive, like an unlabelled tuple). *)
  val mix : t -> int array list -> int array
end

val row_codes : Coder.t -> t -> int array

(** {1 Hashing}

    [hash_col] is [value_hash] vectorized: hashing a column lands each
    row on the partition that hashing its value would. *)

val value_hash : Value.t -> int
val hash_col : col -> int array

(** {1 Vectorized expression evaluation}

    Exact [Nrab.Expr] semantics: Null propagation in arithmetic,
    int/float coercing comparisons, Null comparisons false, short-
    circuit [And]/[Or] exception behavior (via a per-row fallback when
    a vectorized kernel would raise). *)

val eval_expr : t -> Nrab.Expr.t -> col
val eval_pred_mask : t -> Nrab.Expr.pred -> Bitv.t

(** {1 Size accounting} *)

(** Approximate bytes of a column.  A bag counts its two range vectors
    and the elements its rows reference, each reference at the store's
    mean element size (multiplicity included), never the whole store: a
    gathered slice that shares its store counts about what a compacted
    copy of it would (exactly, over fixed-width elements). *)
val col_bytes : col -> int
val bytes : t -> int
val note_bytes_moved : int -> unit
val note_rows_scanned : int -> unit

(** Bump the [engine.columnar.row_fallbacks] counter: one batch took a
    per-row path (rows rebuilt as {!Nested.Value.t} trees) in the engine
    or in tracing, because it has no tuple columns or a column cannot
    be handled column-wise. *)
val note_row_fallback : unit -> unit
