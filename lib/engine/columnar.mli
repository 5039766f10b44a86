(** Columnar arena representation of nested-value batches.

    A batch stores rows struct-of-arrays: flat typed arrays for
    primitive columns, per-row element ranges into a shared element
    store for bags, one global hash-consed string dictionary, and packed
    presence bitmaps for
    [Null].  [of_rows]/[to_rows] are exact inverses on rows that agree
    on shape — canonical bag order is preserved verbatim — so the tree
    API remains the semantic boundary and per-row reconstruction can
    stay lazy.

    Every column has one shape.  The rows of a batch built from a
    typechecked query over a typed database share their type, and
    [Null] fits every shape, so kernels work column by column; rows that
    disagree on shape (mixed primitive kinds, differing tuple labels)
    raise {!Shape_mismatch} where they meet.  Every cell sits in a typed
    array, a bitmap or a bag range: no cell is a boxed [Value.t], so a
    constant is a typed column of copies ({!broadcast}). *)

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
  | CBool of Bitv.t * Bitv.t option  (** values, presence ([None] = all) *)
  | CInt of int array * Bitv.t option
  | CFloat of float array * Bitv.t option
  | CStr of int array * Bitv.t option  (** global dictionary codes *)
  | CTuple of int * (string * col) list * Bitv.t option
  | CBag of bag

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
    the store ([hash_col], [eqclasses], [col_values], NIP masks)
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

(** [Shape_mismatch (a, b)]: rows of the shapes [a] and [b], printed,
    meet in one column — a primitive kind against another, or tuples of
    different labels.  Raised by {!of_rows} and {!vstack}. *)
exception Shape_mismatch of string * string

(** A batch of rows that agree on shape ({!Shape_mismatch} otherwise). *)
val of_rows : Value.t list -> t

val of_values : Value.t array -> t

(** Exact inverse of [of_rows]: bags come back in stored canonical
    order, never re-normalized. *)
val to_rows : t -> Value.t list

val to_values : t -> Value.t array
val col_values : col -> Value.t array
val get_row : t -> int -> Value.t

(** [cmp_row c i j] orders rows [i] and [j] of [c] exactly like
    [Value.compare (col_get c i) (col_get c j)], without reconstructing
    either value.  Staged on the column like {!hash_row}: [cmp_row c]
    builds one closure per column of every shape (a presence bitmap
    sorts Null first), so apply it once per column and the result once
    per pair. *)
val cmp_row : col -> int -> int -> int

(** [equal_rows a i b j] decides
    [Value.equal (get_row a i) (get_row b j)] for rows of two batches of
    one row type, whose columns may differ in representation (typed or
    all-[Null], with or without a presence bitmap, over differing bag
    stores), without reconstructing either row: strings compare by
    dictionary code, floats by [compare] (so [-0.0] equals [0.0] and NaN
    equals NaN), bags element by element in canonical order. *)
val equal_rows : t -> int -> t -> int -> bool

(** [eqclasses n cols] assigns each of the [n] rows the smallest row
    index whose cells are [Value.equal] to its own on every listed
    column: an exact integer grouping key.  Each column first gives
    every row exact codes, column by column: an int column its value, a
    string column its dictionary code, a bool column 0 or 1, each with
    its presence bitmap (Null is a presence bit, never a reserved
    value); a float, tuple or bag column its class from one pass over
    its rows, candidates verified by [Float.compare] (so [-0.0] equals
    [0.0] and NaN equals NaN), by the fields' codes, or by
    {!equal_rows}' cell test; an all-[Null] column gives nothing.  The
    classes are then one hash pass over the rows' code tuples, each
    candidate verified by comparing its codes.  It is the engine's one
    row-equality test: grouping, relation nesting, δ, − and join keys
    all run on it, over the two sides stacked with {!vstack} where two
    batches meet and share no code space.  {!equal_rows} is the same
    test for one row of each of two batches, with which {!mem} looks
    one batch's rows up in a {!row_index} of the other. *)
val eqclasses : int -> col list -> int array
val col_get : col -> int -> Value.t

(** Columnar build of a relation's expanded tuples, cached by the
    relation's physical identity (bounded LRU-ish cache). *)
val of_relation : Relation.t -> t

(** {1 Tuple structure} *)

(** The top-level columns of a batch of tuple rows; an empty batch may
    have none.  Raises [Invalid_argument] when the rows are not
    tuples. *)
val cols : t -> (string * col) list

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

(** Row-wise tuple concatenation, column lists appended (raises like
    {!cols} on non-tuple rows). *)
val hstack : t -> t -> t

(** Row-wise concatenation.  0-row pieces take no part, so an empty
    partition never decides a shape, and a bag without stored elements
    fits any element shape; pieces of two shapes raise
    {!Shape_mismatch}. *)
val vstack : t list -> t

(** The batch of no rows and no columns. *)
val empty : t

(** [n] copies of one value, as a batch of typed columns: [Null] is an
    all-[Null] column and a tuple a column per field, so a null pad
    allocates nothing per row; any other value is built once and
    gathered, so a bag's rows share one stored copy. *)
val broadcast : int -> Value.t -> t

(** Which rows hold [Null] ([None] = no nulls). *)
val null_mask : col -> Bitv.t option

(** [flatten_tuple inner_ty c] — the columns a tuple flatten splices
    next to its input for the tuple column [c] of type [inner_ty],
    built column-wise.  A [CTuple] gives its field columns, with its
    presence bitmap pushed into each field so a [Null] tuple reads
    [Null] in every field (the [Vtype.null_tuple] pad); an all-[Null]
    column gives the pad, broadcast.  Raises [Invalid_argument] on any
    other column. *)
val flatten_tuple : Vtype.t -> col -> t

(** A bag column as a {!bag}: an all-[Null] column is a bag column of
    absent rows.  Raises [Invalid_argument] on any other column. *)
val as_bag : col -> bag

(** The canonical bag builder behind relation nesting, in the engine and
    in tracing.  [canonical_bags b codes groups] builds one bag per
    group of row indices of [b].  Each bag holds its members' distinct
    rows with merged multiplicities, ordered by [cmp_row b.row]: exactly
    the contents [Value.bag_of_list] gives the members' rows, without
    reconstructing them.  [codes] must be [eqclasses] over [b]'s
    columns; each bag element is gathered from the row its code names,
    all of them in one [gather]. *)
val canonical_bags : t -> int array -> int array array -> col

(** {1 Hashing}

    [hash_col] is [value_hash] vectorized: hashing a column lands each
    row on the partition that hashing its value would.  [Value.equal]
    values hash equally: [0.0] and [-0.0] both hash to [0], and every
    NaN hashes as [Float.nan] does. *)

val value_hash : Value.t -> int
val hash_col : col -> int array

(** [hash_row c i] = [(hash_col c).(i)], computed for row [i] alone: a
    bag row hashes only its own range, never the rest of the store.
    Staged on the column: [hash_row c] hashes its labels once, so apply
    it once per batch and the result once per row. *)
val hash_row : col -> int -> int

(** {1 Exact-key tables} *)

(** The open-addressing table behind {!eqclasses} and {!row_index},
    here over keys that are exact codes, so a key names its rows with
    no verification.  The table keeps one row per key, the latest
    entered: a caller that wants every row of a key chains them itself
    from what {!push} returns. *)
type table

(** A table for up to [n] distinct keys.  Entering more distinct keys
    than that is outside the contract: once every slot is taken, a
    probe for a key not in the table never ends. *)
val table : int -> table

(** [push tbl k i] enters row [i] under the key [k], in place of the
    row entered under [k] before it, and returns that row, or [-1] for
    the first; [next.(i) <- push tbl k i] chains a key's rows, the
    latest first. *)
val push : table -> int -> int -> int

(** [find tbl k]: the latest row entered under [k], or [-1]. *)
val find : table -> int -> int

(** {1 Row lookup} *)

(** A batch's distinct rows, hashed once ({!hash_col}) into the
    open-addressing {!table} {!eqclasses} uses.  Immutable once built: one
    index may serve lookups on several domains at once. *)
type row_index

val row_index : t -> row_index

(** The batch a {!row_index} was built from. *)
val indexed : row_index -> t

(** [mem idx b ~verified i] tells whether row [i] of [b] is
    [Value.equal] to a row of [indexed idx]; [b] must share its row
    type, in any representation.  The row is hashed in place
    ({!hash_row}) and each slot holding its hash is compared with
    {!equal_rows}, adding one to [verified].  Staged on [b]: apply
    [mem idx b ~verified] once per batch and the result once per row. *)
val mem : row_index -> t -> verified:int ref -> int -> bool

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

(** Add to the [engine.columnar.columns_pruned] counter: columns a table
    scan left out because no operator of the query reads them. *)
val note_columns_pruned : int -> unit
