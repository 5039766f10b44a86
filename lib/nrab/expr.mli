(** Scalar expressions and predicates over tuples.

    Expressions reference top-level attributes of the input tuple(s) and
    appear in selections, join conditions, and computed projection columns
    (e.g. the TPC-H [disc_price ← l_extendedprice × (1 − l_discount)]). *)

open Nested

type t =
  | Const of Value.t
  | Attr of string  (** top-level attribute reference *)
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

(** Comparison operators of the paper's selection conditions. *)
type cmp = Eq | Neq | Lt | Le | Gt | Ge

type pred =
  | True
  | False
  | Cmp of cmp * t * t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | IsNull of t
  | IsNotNull of t
  | Contains of t * string  (** substring test for text filters *)

(** {1 Constructors} *)

val const : Value.t -> t
val attr : string -> t
val int : int -> t
val str : string -> t
val flt : float -> t

(** Infix constructors ([+], [-], [*], [/], [=], [<>], [<], [<=], [>],
    [>=], [&&], [||], [not_]) building expressions and predicates.  Open
    locally when writing queries. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> pred
  val ( <> ) : t -> t -> pred
  val ( < ) : t -> t -> pred
  val ( <= ) : t -> t -> pred
  val ( > ) : t -> t -> pred
  val ( >= ) : t -> t -> pred
  val ( && ) : pred -> pred -> pred
  val ( || ) : pred -> pred -> pred
  val not_ : pred -> pred
end

(** {1 Analysis and rewriting} *)

(** Attributes referenced (with duplicates, in syntactic order). *)
val attrs : t -> string list

val pred_attrs : pred -> string list

(** Substitute attribute references. *)
val subst_attrs : (string -> string) -> t -> t

val subst_pred_attrs : (string -> string) -> pred -> pred

(** Substitute constants (used by the reparameterization search). *)
val subst_consts : (Value.t -> Value.t) -> t -> t

(** {1 Evaluation}

    Arithmetic propagates [Null]; comparisons involving [Null] are false
    (SQL three-valued logic collapsed to two values). *)

exception Eval_error of string

val eval : Value.t -> t -> Value.t

(** Numeric-coercing comparison; [None] when either side is [Null]. *)
val compare_values : Value.t -> Value.t -> int option

val eval_cmp : cmp -> Value.t -> Value.t -> bool
val eval_pred : Value.t -> pred -> bool
val string_contains : needle:string -> string -> bool

(** {1 Printing} *)

val pp_cmp : Format.formatter -> cmp -> unit
val pp : Format.formatter -> t -> unit
val pp_pred : Format.formatter -> pred -> unit
val to_string : t -> string
