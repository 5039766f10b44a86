(** The columnar operator kernels: the column logic of every NRAB
    operator, shared by the executor ({!Exec}, ⟦Q⟧_D partition by
    partition) and by data tracing (each schema alternative's query,
    relaxed, over whole batches).

    A kernel works on one batch or one batch pair and returns the index
    vectors it computes on the way — join pairs and unmatched rows,
    flatten parents and pads, group members, diff cancellations — next
    to its output batch.  Every batch has one shape per column (see
    {!Columnar}), so every kernel works column by column.

    Callers resolve attribute columns with {!column} and decide what a
    missing attribute means (the executor raises, tracing reads Null);
    callers also choose a hash join's build side.  Both callers narrow
    their table batches to the columns the query reads ({!reads},
    {!keep}) and shape their null pads with {!keep_type}. *)

open Nested
open Nrab

(** The column of an attribute, [None] when the batch has none.  An
    empty batch has every column, empty. *)
val column : Columnar.t -> string -> Columnar.col option

(** {1 Column analysis}

    Which columns a query's batches need.  Both evaluators narrow each
    table batch to them before any operator runs; every column an
    operator reads, and every output field, stays, so the rows, their
    order and every value read are the same as over whole batches. *)

(** The columns one query (or several, under {!union}) reads. *)
type cols

(** [reads env q]: the names any operator of [q] reads or produces,
    plus [q]'s output fields.  δ, ∪, − and ν compare or group whole
    rows, so every field of their children stays, bags with every
    element field.  A bag that only relation flattens read keeps only
    the element fields in the set; when one flatten reads it and it
    enters the query once, that flatten drops it before gathering its
    parent rows.  A field kept whole keeps every field inside it, and a
    flatten can bring any of them to the top of a batch, so they count
    as read too: {!keep_type} then names every field the batches hold.
    A query that does not typecheck keeps every column. *)
val reads : Typecheck.env -> Query.t -> cols

(** The columns either set keeps: evaluating under [union a b] and
    narrowing with {!keep} gives what evaluating under [a] gives. *)
val union : cols -> cols -> cols

val equal_cols : cols -> cols -> bool

(** [keep c q b]: [b], a batch of [q]'s output evaluated under [c] or
    under a superset of [c] from {!union}, narrowed to the batch [q]
    gives under [c], in O(fields) without copying a column; the cached
    {!Columnar.of_relation} batch is left as it is.  [None] when a bag
    to narrow has no tuple element store. *)
val keep : cols -> Query.t -> Columnar.t -> Columnar.t option

(** [keep_type c q ty]: [q]'s output type [ty] as its batches under [c]
    hold it.  Null pads (outer joins, outer flattens) take this shape,
    so they stack column-wise onto the narrowed rows. *)
val keep_type : cols -> Query.t -> Vtype.t -> Vtype.t

(** [scan c q b]: the table batch [b] of the access [q] narrowed by
    {!keep} (whole when it cannot be), with the labelled columns, at
    every depth, kept and left out.  Adds the latter to
    [engine.columnar.columns_pruned]. *)
val scan : cols -> Query.t -> Columnar.t -> Columnar.t * int * int

(** [flatten_parents c a b]: the parent rows a flatten of the bag [a]
    gathers from its input [b] — [b] less [a] when [a] is read by that
    flatten alone, so the flatten leaves the bag out of its output. *)
val flatten_parents : cols -> string -> Columnar.t -> Columnar.t

(** {1 Grouping} *)

(** [groups n keys] groups [n] rows by their values in the [keys]
    columns, the classes of [Columnar.eqclasses n keys]: groups in
    first-seen order, members ascending, laid out by counting, without
    hashing.  No key column makes one group of every row (none when
    [n = 0]). *)
val groups : int -> Columnar.col list -> int array array

(** The first member of each group. *)
val reps : int array array -> int array

(** {1 Narrow operators} *)

(** Projection; an empty batch gives {!Columnar.empty}. *)
val project : (string * Expr.t) list -> Columnar.t -> Columnar.t

(** A label under [(fresh, old)] renaming pairs: the first pair naming
    it renames it. *)
val renamed : (string * string) list -> string -> string

(** Renaming by [(fresh, old)] pairs, as {!renamed}. *)
val rename : (string * string) list -> Columnar.t -> Columnar.t

(** [nest_tuple pairs c_name nested b]: the [(label, attr)] pairs'
    attributes, whose columns are [nested] in pair order, move into one
    tuple column [c_name]. *)
val nest_tuple :
  (string * string) list ->
  string ->
  Columnar.col list ->
  Columnar.t ->
  Columnar.t

(** [flatten_tuple inner_ty col b] splices the fields of the tuple
    column [col] (of type [inner_ty]) next to [b]'s columns; a Null
    tuple reads Null in every field. *)
val flatten_tuple : Vtype.t -> Columnar.col -> Columnar.t -> Columnar.t

type flat = {
  parent : int array;  (** the input row of each output row *)
  pad : Columnar.Bitv.t;  (** output rows that pad an empty or Null bag *)
  data : Columnar.t;
}

(** [flatten ~outer inner_ty col b]: one output row per element of the
    bag column [col] (elements of type [inner_ty]), repeated by its
    multiplicity, in input order.  With [outer], a row whose bag is
    empty or Null gives one row padded with [inner_ty]'s null tuple.
    [col] is read through {!Columnar.as_bag}. *)
val flatten : outer:bool -> Vtype.t -> Columnar.col -> Columnar.t -> flat

(** [agg_tuple fn col out b] adds column [out]: [fn] over each row's
    bag in the column [col] (read through {!Columnar.as_bag}), one-field
    element tuples read as their field.  Also returns each row's member
    values. *)
val agg_tuple :
  Agg.fn ->
  Columnar.col ->
  string ->
  Columnar.t ->
  Value.t list array * Columnar.t

(** {1 Blocking operators} *)

(** [nest_rel ~keys ~proj c_name ~reps members b]: output row [o] holds
    the [keys] columns of row [reps.(o)] and, as column [c_name], the
    canonical bag of the [proj] columns over the rows [members.(o)]. *)
val nest_rel :
  keys:(string * Columnar.col) list ->
  proj:(string * Columnar.col) list ->
  string ->
  reps:int array ->
  int array array ->
  Columnar.t ->
  Columnar.t

(** One aggregate of a grouped aggregation, over the rows of a group. *)
type agg = {
  fn : Agg.fn;
  apply : int array -> Value.t;
      (** [Agg.apply fn] over the rows' input values, bit for bit *)
  range : int array -> (float * float) option;
      (** [Agg.achievable_range fn] over the rows' input values, bit for
          bit *)
  out : string;
}

(** [agg fn input out]: [fn] over the column [input], or over one
    [Int 1] per row without one.  Over a float or integer column, and
    without one, both closures fold the rows in order without boxing;
    any other column boxes the rows' values when a closure runs. *)
val agg : Agg.fn -> Columnar.col option -> string -> agg

(** [group_agg ~keys ~reps aggs groups b]: output row [o] holds the
    [keys] columns of row [reps.(o)] and every aggregate's value over the
    rows [groups.(o)], as its [out] column. *)
val group_agg :
  keys:(string * Columnar.col) list ->
  reps:int array ->
  agg list ->
  int array array ->
  Columnar.t ->
  Columnar.t

(** Duplicate elimination: the groups of equal rows and the batch of
    their first rows.  The groups are {!groups} over the batch's field
    columns. *)
val dedup : Columnar.t -> int array array * Columnar.t

(** [diff_cancelled l r]: which rows of [l] the bag difference [l − r]
    removes.  Every counted right row cancels one equal left row,
    earliest first; only [l_live] rows can be cancelled and only
    [r_live] rows count (default: all).  Rows are equal when
    [Columnar.eqclasses] over the two batches stacked puts them in one
    class; each class counts its uncancelled right rows in an [int
    array]. *)
val diff_cancelled :
  ?l_live:(int -> bool) ->
  ?r_live:(int -> bool) ->
  Columnar.t ->
  Columnar.t ->
  bool array

(** {1 Joins} *)

(** [equi_split lfields rfields p] splits a join predicate's
    conjunctive closure into equi-join key attribute pairs (left attr,
    right attr) and the residual predicate ([True] when every conjunct
    is an equi-key comparison).  The fields are the two sides' typed
    attributes.  A conjunct [a = b] is a key only when the two
    attributes have one type ([Vtype.equal]): [Int 1 = Float 1.0] holds
    under the predicate's numeric coercion but the values differ, so a
    mixed Int/Float conjunct stays in the residual, and the key columns
    of the two sides always stack. *)
val equi_split :
  (string * Vtype.t) list ->
  (string * Vtype.t) list ->
  Expr.pred ->
  (string * string) list * Expr.pred

(** A join key's codes on one side: two rows' keys are equal when
    their codes are, and the [excluded] rows, whose key has a Null
    component, match no row ([None] = none).  No code is reserved:
    every int, [min_int] and [-1] included, is some key's code. *)
type key = { codes : int array; excluded : Columnar.Bitv.t option }

(** Join-key codes of both sides from (left, right) key column pairs of
    one type, comparable across the sides.  A single int, string or
    bool pair keeps its raw codes (values, global dictionary codes,
    0 or 1), which the two sides already share, with no {!Columnar.vstack}.
    Any other key (float, tuple, bag, several columns) codes each row by
    its [Columnar.eqclasses] class over the key columns of both sides
    stacked, left rows first.  A row is excluded when any of its key
    columns reads Null. *)
val key_codes : (Columnar.col * Columnar.col) list -> key * key

(** [hash_pairs ~build ~probe]: the [(build, probe)] row index pairs
    with equal codes, neither row excluded, probe rows ascending and,
    within one probe row, build rows descending.  One table
    ({!Columnar.table}) is built over the build side, chaining the rows
    of each code, and each probe row looks its code up once: linear in
    the rows and the pairs. *)
val hash_pairs : build:key -> probe:key -> int array * int array

(** Every [(left, right)] pair of [ln × rn] rows, left-major (the nested
    loop). *)
val all_pairs : int -> int -> int array * int array

type joined = {
  kept_l : int array;  (** left row of each inner output row *)
  kept_r : int array;  (** right row of each inner output row *)
  unmatched_l : int array;  (** left rows in no kept pair, ascending *)
  unmatched_r : int array;
  data : Columnar.t;
      (** the inner rows, then the left pads and the right pads that
          [kind] keeps *)
}

(** [join ~kind ~residual ~lnull ~rnull (cand_l, cand_r) l r]: the
    candidate pairs satisfying [residual] are the inner rows, in
    candidate order (the candidates must include every pair the whole
    predicate accepts).  Unmatched rows are padded with the other side's
    null tuple, [lnull] or [rnull], as [kind] keeps them. *)
val join :
  kind:Query.join_kind ->
  residual:Expr.pred ->
  lnull:Value.t ->
  rnull:Value.t ->
  int array * int array ->
  Columnar.t ->
  Columnar.t ->
  joined
