(* Scalar expressions and selection/join predicates over tuples.

   Expressions reference top-level attributes of the input tuple(s); they
   appear in selections, joins, and computed projection columns (e.g. the
   TPC-H [disc_price ← l_extendedprice × (1 − l_discount)]). *)

open Nested

type t =
  | Const of Value.t
  | Attr of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

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
  | Contains of t * string  (* substring test, for text filters like "UEFA" *)

(* Constructors *)
let const v = Const v
let attr a = Attr a
let int i = Const (Value.Int i)
let str s = Const (Value.String s)
let flt f = Const (Value.Float f)

(* Infix constructors, meant to be opened locally when building queries. *)
module Infix = struct
  let ( + ) a b = Add (a, b)
  let ( - ) a b = Sub (a, b)
  let ( * ) a b = Mul (a, b)
  let ( / ) a b = Div (a, b)
  let ( = ) a b = Cmp (Eq, a, b)
  let ( <> ) a b = Cmp (Neq, a, b)
  let ( < ) a b = Cmp (Lt, a, b)
  let ( <= ) a b = Cmp (Le, a, b)
  let ( > ) a b = Cmp (Gt, a, b)
  let ( >= ) a b = Cmp (Ge, a, b)
  let ( && ) a b = And (a, b)
  let ( || ) a b = Or (a, b)
  let not_ p = Not p
end

(* Attributes referenced by an expression / predicate. *)
let rec attrs (e : t) : string list =
  match e with
  | Const _ -> []
  | Attr a -> [ a ]
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> attrs a @ attrs b

let rec pred_attrs (p : pred) : string list =
  match p with
  | True | False -> []
  | Cmp (_, a, b) -> attrs a @ attrs b
  | And (a, b) | Or (a, b) -> pred_attrs a @ pred_attrs b
  | Not p -> pred_attrs p
  | IsNull e | IsNotNull e -> attrs e
  | Contains (e, _) -> attrs e

(* Substitute attribute references. *)
let rec subst_attrs (f : string -> string) (e : t) : t =
  match e with
  | Const _ -> e
  | Attr a -> Attr (f a)
  | Add (a, b) -> Add (subst_attrs f a, subst_attrs f b)
  | Sub (a, b) -> Sub (subst_attrs f a, subst_attrs f b)
  | Mul (a, b) -> Mul (subst_attrs f a, subst_attrs f b)
  | Div (a, b) -> Div (subst_attrs f a, subst_attrs f b)

let rec subst_pred_attrs (f : string -> string) (p : pred) : pred =
  match p with
  | True | False -> p
  | Cmp (c, a, b) -> Cmp (c, subst_attrs f a, subst_attrs f b)
  | And (a, b) -> And (subst_pred_attrs f a, subst_pred_attrs f b)
  | Or (a, b) -> Or (subst_pred_attrs f a, subst_pred_attrs f b)
  | Not p -> Not (subst_pred_attrs f p)
  | IsNull e -> IsNull (subst_attrs f e)
  | IsNotNull e -> IsNotNull (subst_attrs f e)
  | Contains (e, s) -> Contains (subst_attrs f e, s)

(* Substitute constants (used by reparameterization search). *)
let rec subst_consts (f : Value.t -> Value.t) (e : t) : t =
  match e with
  | Const v -> Const (f v)
  | Attr _ -> e
  | Add (a, b) -> Add (subst_consts f a, subst_consts f b)
  | Sub (a, b) -> Sub (subst_consts f a, subst_consts f b)
  | Mul (a, b) -> Mul (subst_consts f a, subst_consts f b)
  | Div (a, b) -> Div (subst_consts f a, subst_consts f b)

(* Evaluation.  Arithmetic propagates Null; comparisons with Null are
   false (SQL-style three-valued logic collapsed to two values). *)

exception Eval_error of string

let numeric_binop name fi ff (a : Value.t) (b : Value.t) : Value.t =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (fi x y)
  | Value.Float x, Value.Float y -> Value.Float (ff x y)
  | Value.Int x, Value.Float y -> Value.Float (ff (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (ff x (float_of_int y))
  | _ -> raise (Eval_error ("non-numeric operands to " ^ name))

let rec eval (tuple : Value.t) (e : t) : Value.t =
  match e with
  | Const v -> v
  | Attr a -> (
    match Value.field a tuple with
    | Some v -> v
    | None -> raise (Eval_error ("unknown attribute " ^ a)))
  | Add (a, b) -> numeric_binop "+" ( + ) ( +. ) (eval tuple a) (eval tuple b)
  | Sub (a, b) -> numeric_binop "-" ( - ) ( -. ) (eval tuple a) (eval tuple b)
  | Mul (a, b) -> numeric_binop "*" ( * ) ( *. ) (eval tuple a) (eval tuple b)
  | Div (a, b) -> numeric_binop "/" ( / ) ( /. ) (eval tuple a) (eval tuple b)

(* Numeric-coercing comparison; [None] when either side is Null. *)
let compare_values (a : Value.t) (b : Value.t) : int option =
  match a, b with
  | Value.Null, _ | _, Value.Null -> None
  | Value.Int x, Value.Float y -> Some (compare (float_of_int x) y)
  | Value.Float x, Value.Int y -> Some (compare x (float_of_int y))
  | _ -> Some (Value.compare a b)

let eval_cmp (c : cmp) (a : Value.t) (b : Value.t) : bool =
  match compare_values a b with
  | None -> false
  | Some r -> (
    match c with
    | Eq -> r = 0
    | Neq -> r <> 0
    | Lt -> r < 0
    | Le -> r <= 0
    | Gt -> r > 0
    | Ge -> r >= 0)

(* Naive scan comparing bytes in place: no substring is allocated.
   [i + n <= m] holds at every [matches_at i _], so both reads are in
   bounds. *)
let string_contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec matches_at i j =
    j >= n
    || Char.equal (String.unsafe_get haystack (i + j)) (String.unsafe_get needle j)
       && matches_at i (j + 1)
  in
  let rec scan i = i + n <= m && (matches_at i 0 || scan (i + 1)) in
  scan 0

let rec eval_pred (tuple : Value.t) (p : pred) : bool =
  match p with
  | True -> true
  | False -> false
  | Cmp (c, a, b) -> eval_cmp c (eval tuple a) (eval tuple b)
  | And (a, b) -> eval_pred tuple a && eval_pred tuple b
  | Or (a, b) -> eval_pred tuple a || eval_pred tuple b
  | Not p -> not (eval_pred tuple p)
  | IsNull e -> Value.equal (eval tuple e) Value.Null
  | IsNotNull e -> not (Value.equal (eval tuple e) Value.Null)
  | Contains (e, s) -> (
    match eval tuple e with
    | Value.String text -> string_contains ~needle:s text
    | _ -> false)

(* Pretty printing *)

let pp_cmp ppf = function
  | Eq -> Fmt.string ppf "="
  | Neq -> Fmt.string ppf "≠"
  | Lt -> Fmt.string ppf "<"
  | Le -> Fmt.string ppf "≤"
  | Gt -> Fmt.string ppf ">"
  | Ge -> Fmt.string ppf "≥"

let rec pp ppf (e : t) =
  match e with
  | Const v -> Value.pp ppf v
  | Attr a -> Fmt.string ppf a
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a × %a)" pp a pp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b

let rec pp_pred ppf (p : pred) =
  match p with
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Cmp (c, a, b) -> Fmt.pf ppf "%a %a %a" pp a pp_cmp c pp b
  | And (a, b) -> Fmt.pf ppf "(%a ∧ %a)" pp_pred a pp_pred b
  | Or (a, b) -> Fmt.pf ppf "(%a ∨ %a)" pp_pred a pp_pred b
  | Not p -> Fmt.pf ppf "¬(%a)" pp_pred p
  | IsNull e -> Fmt.pf ppf "%a is null" pp e
  | IsNotNull e -> Fmt.pf ppf "%a is not null" pp e
  | Contains (e, s) -> Fmt.pf ppf "%a contains %S" pp e s

let to_string e = Fmt.str "%a" pp e
