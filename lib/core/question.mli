(** Why-not questions (Definition 5): Φ = ⟨Q, D, t⟩ — a query, a
    database, and a NIP [t] over the query's output schema describing the
    missing answer(s). *)

open Nested
open Nrab

type t = { query : Query.t; db : Relation.Db.t; missing : Nip.t }

val make : query:Query.t -> db:Relation.Db.t -> missing:Nip.t -> t

(** Does the NIP conform to the query's output schema (Definition 5
    requires a NIP of the output's tuple type)? *)
val check_missing : t -> (unit, string) result

(** A question is proper iff no tuple of ⟦Q⟧_D matches the NIP — the
    answer really is missing (required by Definition 5). *)
val is_proper : t -> bool

(** ⟦Q⟧_D. *)
val original_result : t -> Relation.t

(** Result tuples of a candidate reparameterization [q] that match the
    missing-answer NIP. *)
val matching_tuples : t -> Query.t -> Value.t list

(** ⟦q⟧_D if one of its tuples matches the missing-answer NIP, [None]
    otherwise: one evaluation decides success and can then be measured. *)
val successful_result : t -> Query.t -> Nested.Relation.t option

(** Is [q] a successful reparameterization result-wise (Definition 8)? *)
val is_successful : t -> Query.t -> bool

val pp : Format.formatter -> t -> unit
