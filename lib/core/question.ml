(* Why-not questions (Definition 5): Φ = ⟨Q, D, t⟩ where t is a NIP over
   the output schema of Q. *)

open Nested
open Nrab

type t = { query : Query.t; db : Relation.Db.t; missing : Nip.t }

let make ~query ~db ~missing = { query; db; missing }

(* Does the NIP conform to the query's output schema (Definition 5
   requires a NIP of the output's tuple type)? *)
let check_missing (phi : t) : (unit, string) result =
  match Typecheck.infer_result (Eval.schema_env phi.db) phi.query with
  | Error e -> Error ("query is ill-typed: " ^ e.Typecheck.message)
  | Ok ty -> Nip.check (Vtype.element ty) phi.missing

let original_result (phi : t) : Relation.t = Eval.eval phi.db phi.query

(* Tuples of [result] that match the missing-answer NIP. *)
let matching (phi : t) (result : Relation.t) : Value.t list =
  List.filter
    (fun tuple -> Nip.matches tuple phi.missing)
    (Relation.distinct_tuples result)

(* Tuples of the result of query [q] (a reparameterization of Φ's query)
   that match the missing-answer NIP. *)
let matching_tuples (phi : t) (q : Query.t) : Value.t list =
  matching phi (Eval.eval phi.db q)

(* ⟦q⟧_D when one of its tuples matches the NIP: the one evaluation that
   decides success (Definition 8), kept for callers that measure it. *)
let successful_result (phi : t) (q : Query.t) : Relation.t option =
  let result = Eval.eval phi.db q in
  match matching phi result with [] -> None | _ :: _ -> Some result

let is_successful (phi : t) (q : Query.t) : bool =
  Option.is_some (successful_result phi q)

(* A why-not question is proper only if no tuple of the original result
   matches the NIP (the answer really is missing). *)
let is_proper (phi : t) : bool = not (is_successful phi phi.query)

let pp ppf (phi : t) =
  Fmt.pf ppf "@[<v>why-not %a@,in %a@]" Nip.pp phi.missing Query.pp phi.query
