(* Nested relational values (Definition 2 of the paper).

   A value is a primitive, a tuple of labelled values, or a bag of values
   with positive multiplicities.  Bags are kept in a canonical form: elements
   sorted by [compare] with multiplicities > 0, which makes structural
   equality coincide with bag equality. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Tuple of (string * t) list
  | Bag of (t * int) list

let rec compare (a : t) (b : t) : int =
  match a, b with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Bool x, Bool y -> Stdlib.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float x, Float y -> Stdlib.compare x y
  | Float _, _ -> -1
  | _, Float _ -> 1
  | String x, String y -> Stdlib.compare x y
  | String _, _ -> -1
  | _, String _ -> 1
  | Tuple xs, Tuple ys -> compare_fields xs ys
  | Tuple _, _ -> -1
  | _, Tuple _ -> 1
  | Bag xs, Bag ys -> compare_elems xs ys

and compare_fields xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (la, va) :: xs', (lb, vb) :: ys' ->
    let c = String.compare la lb in
    if c <> 0 then c
    else
      let c = compare va vb in
      if c <> 0 then c else compare_fields xs' ys'

and compare_elems xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (va, ma) :: xs', (vb, mb) :: ys' ->
    let c = compare va vb in
    if c <> 0 then c
    else
      let c = Stdlib.compare ma mb in
      if c <> 0 then c else compare_elems xs' ys'

let equal a b = compare a b = 0

(* Normalize a list of (value, multiplicity) pairs into canonical bag
   contents: sorted, duplicates merged, non-positive multiplicities
   dropped. *)
let normalize_elems (elems : (t * int) list) : (t * int) list =
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.filter (fun (_, m) -> m > 0) elems)
  in
  let rec merge = function
    | [] -> []
    | [ x ] -> [ x ]
    | (v1, m1) :: (v2, m2) :: rest when equal v1 v2 ->
      merge ((v1, m1 + m2) :: rest)
    | x :: rest -> x :: merge rest
  in
  merge sorted

let bag elems = Bag (normalize_elems elems)
let bag_of_list vs = bag (List.map (fun v -> (v, 1)) vs)
let empty_bag = Bag []

let tuple fields = Tuple fields

(* Accessors *)

let field (label : string) (v : t) : t option =
  match v with
  | Tuple fields -> List.assoc_opt label fields
  | Null | Bool _ | Int _ | Float _ | String _ | Bag _ -> None

let field_exn label v =
  match field label v with
  | Some x -> x
  | None ->
    Fmt.invalid_arg "Value.field_exn: no field %s in %a" label
      (fun ppf _ -> Fmt.string ppf "<value>")
      v

let elems (v : t) : (t * int) list =
  match v with
  | Bag es -> es
  | Null -> []
  | Bool _ | Int _ | Float _ | String _ | Tuple _ ->
    invalid_arg "Value.elems: not a bag"

let cardinal (v : t) : int =
  List.fold_left (fun acc (_, m) -> acc + m) 0 (elems v)

let multiplicity (v : t) (x : t) : int =
  match List.find_opt (fun (y, _) -> equal x y) (elems v) with
  | Some (_, m) -> m
  | None -> 0

(* Tuple concatenation (the paper's [t ∘ t'] operator). *)
let concat_tuples (a : t) (b : t) : t =
  match a, b with
  | Tuple xs, Tuple ys -> Tuple (xs @ ys)
  | _ -> invalid_arg "Value.concat_tuples: arguments must be tuples"

let labels (v : t) : string list =
  match v with
  | Tuple fields -> List.map fst fields
  | Null | Bool _ | Int _ | Float _ | String _ | Bag _ -> []

(* Bag algebra on values of bag shape. *)

let bag_union a b = bag (elems a @ elems b)

let bag_diff a b =
  let remaining =
    List.map (fun (v, m) -> (v, m - multiplicity b v)) (elems a)
  in
  bag remaining

let bag_map f a = bag (List.map (fun (v, m) -> (f v, m)) (elems a))

let bag_filter p a = bag (List.filter (fun (v, _) -> p v) (elems a))

let dedup a = bag (List.map (fun (v, _) -> (v, 1)) (elems a))

(* Expanded element list: each element repeated [multiplicity] times. *)
let expand (a : t) : t list =
  List.concat_map (fun (v, m) -> List.init m (fun _ -> v)) (elems a)

(* Pretty printing *)

let rec pp ppf (v : t) =
  match v with
  | Null -> Fmt.string ppf "⊥"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s
  | Tuple fields ->
    Fmt.pf ppf "⟨%a⟩"
      (Fmt.list ~sep:(Fmt.any ", ") pp_field)
      fields
  | Bag es ->
    Fmt.pf ppf "{{%a}}"
      (Fmt.list ~sep:(Fmt.any ", ") pp_elem)
      es

and pp_field ppf (label, v) = Fmt.pf ppf "%s: %a" label pp v

and pp_elem ppf (v, m) =
  if m = 1 then pp ppf v else Fmt.pf ppf "%a^%d" pp v m

let to_string v = Fmt.str "%a" pp v

(* Convenience constructors *)
let str s = String s
let int i = Int i
let float f = Float f
