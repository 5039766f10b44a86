(** The columnar operator kernels: the column logic of every NRAB
    operator, shared by the executor ({!Exec}, ⟦Q⟧_D partition by
    partition) and by data tracing (each schema alternative's query,
    relaxed, over whole batches).

    A kernel works on one batch or one batch pair and returns the index
    vectors it computes on the way — join pairs and unmatched rows,
    flatten parents and pads, group members, diff cancellations — next
    to its output batch.  Each kernel has at most one per-row path, taken
    when a batch has no tuple columns or a column cannot be handled
    column-wise; it bumps [engine.columnar.row_fallbacks].

    Callers resolve attribute columns with {!column} and decide what a
    missing attribute means (the executor raises, tracing reads Null);
    callers also choose a hash join's build side. *)

open Nested
open Nrab

exception Engine_error of string

(** The column of an attribute, [None] when the batch has none.  An
    empty batch has every column, empty.  A batch without tuple columns
    extracts the column row by row (rows lacking the attribute read
    Null). *)
val column : Columnar.t -> string -> Columnar.col option

(** {1 Grouping} *)

(** Row indices per structural-equality class of the codes: classes in
    first-seen order, members ascending. *)
val group_indices : int array -> int array array

(** [groups n keys] groups [n] rows by their values in the [keys]
    columns: [group_indices (Columnar.eqclasses n keys)], built by
    counting, without hashing.  No key column makes one group of every
    row (none when [n = 0]). *)
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
    empty or Null gives one row padded with [inner_ty]'s null tuple. *)
val flatten : outer:bool -> Vtype.t -> Columnar.col -> Columnar.t -> flat

(** [agg_tuple fn col out b] adds column [out]: [fn] over each row's
    bag in the column [col], one-field element tuples read as their
    field.  Also returns each row's member values. *)
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
    their first rows. *)
val dedup : Columnar.t -> int array array * Columnar.t

(** [diff_cancelled l r]: which rows of [l] the bag difference [l − r]
    removes.  Every counted right row cancels one equal left row,
    earliest first; only [l_live] rows can be cancelled and only
    [r_live] rows count (default: all). *)
val diff_cancelled :
  ?l_live:(int -> bool) ->
  ?r_live:(int -> bool) ->
  Columnar.t ->
  Columnar.t ->
  bool array

(** {1 Joins} *)

(** Split a join predicate's conjunctive closure into equi-join key
    attribute pairs (left attr, right attr) and the residual predicate
    ([True] when every conjunct is an equi-key comparison). *)
val equi_split :
  string list -> string list -> Expr.pred -> (string * string) list * Expr.pred

(** Join-key codes of both sides from (left, right) key column pairs,
    comparable across the sides; [-1] marks a key with a Null
    component.  When every key is a string column on both sides the
    codes are global dictionary codes; one integer key pair codes each
    value by its first row over both sides. *)
val key_codes : (Columnar.col * Columnar.col) list -> int array * int array

(** [hash_pairs ~build ~probe]: the [(build, probe)] row index pairs
    with equal non-negative codes, probe rows ascending and, within one
    probe row, build rows descending.  Linear in the rows and the
    pairs: the build rows are laid out per code by counting. *)
val hash_pairs : build:int array -> probe:int array -> int array * int array

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
