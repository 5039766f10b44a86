(** Nested relational values (Definition 2 of the paper).

    A value is a primitive, a labelled tuple, or a bag of values with
    positive multiplicities.  Bags are kept canonical — elements sorted by
    {!compare}, duplicates merged, non-positive multiplicities dropped —
    so that structural equality coincides with bag equality. *)

type t =
  | Null  (** ⊥, a valid value of every type *)
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Tuple of (string * t) list  (** labelled fields, in schema order *)
  | Bag of (t * int) list
      (** canonical contents; construct with {!bag} or {!bag_of_list} *)

(** {1 Ordering} *)

(** Total order on values.  Primitives order by kind then value; tuples
    lexicographically by (label, value); bags by their canonical element
    lists. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** {1 Constructors} *)

(** [bag elems] builds a canonical bag from arbitrary (value,
    multiplicity) pairs. *)
val bag : (t * int) list -> t

(** [bag_of_list vs] builds a bag where each list occurrence counts 1. *)
val bag_of_list : t list -> t

val empty_bag : t
val tuple : (string * t) list -> t
val str : string -> t
val int : int -> t
val float : float -> t

(** {1 Tuple accessors} *)

(** [field label t] is the value of field [label], or [None] if [t] is
    not a tuple or lacks the field. *)
val field : string -> t -> t option

(** Like {!field} but raises [Invalid_argument] on a missing field. *)
val field_exn : string -> t -> t

(** The paper's tuple concatenation [t ∘ t'].  Raises on non-tuples. *)
val concat_tuples : t -> t -> t

(** Field labels of a tuple; [[]] for non-tuples. *)
val labels : t -> string list

(** {1 Bag operations} *)

(** Canonical (value, multiplicity) contents.  [Null] counts as the empty
    bag; raises on other non-bags. *)
val elems : t -> (t * int) list

(** Total multiplicity. *)
val cardinal : t -> int

(** [multiplicity b v] is MULT(b, v) — 0 when absent. *)
val multiplicity : t -> t -> int

(** Additive union: multiplicities are summed ([t^{k+l}] semantics). *)
val bag_union : t -> t -> t

(** Bag difference: multiplicities subtract, clamped at 0. *)
val bag_diff : t -> t -> t

(** Map over distinct elements, keeping multiplicities (results merge if
    the function collides). *)
val bag_map : (t -> t) -> t -> t

val bag_filter : (t -> bool) -> t -> t

(** Duplicate elimination: every multiplicity becomes 1. *)
val dedup : t -> t

(** Elements expanded to their multiplicities (each element repeated). *)
val expand : t -> t list

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
