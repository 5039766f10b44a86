(** Exact MSR computation by bounded enumeration — the brute-force PTIME
    algorithm sketched in the proof of Theorem 1, and the repository's one
    reparameterization search.

    Candidate reparameterizations are enumerated per operator (attribute
    swaps, comparison-operator switches, constants from the active domain,
    join/flatten kind changes), combined over operator subsets, evaluated
    once each, and minimized under the partial order of Definition 9 with
    the tree edit distance as side-effect measure.  {!Repair.suggest} runs
    the same {!search} over the operators of one explanation.

    Exponential in the number of simultaneously changed operators
    ([max_ops]) — use on small instances only.  Serves as ground truth
    for the heuristic pipeline in the test suite and for the
    crime-dataset comparison. *)

open Nrab

module Int_set = Opset.Int_set

(** A successful reparameterization: the repaired query, its per-operator
    replacements, the changed operators Δ(Q, Q'), and the exact
    tree-edit-distance side effects. *)
type sr = {
  query : Query.t;
  changes : (int * Query.node) list;
  changed : Int_set.t;
  distance : int;
}

(** Candidate replacement nodes for one operator of a query over the
    database, one to [depth] admissible changes deep.  [env] is the
    database's typing environment ({!Eval.schema_env}). *)
val candidates :
  depth:int -> Nested.Relation.Db.t -> Typecheck.env -> Query.t -> Query.node list

(** The successful reparameterizations among every combination of one
    candidate per operator of each subset, in subset order and then in
    the product order of the candidate lists.  Each well-typed candidate
    is evaluated once, for both the NIP test and the side effects; one
    whose evaluation or NIP test raises is skipped. *)
val search : Question.t -> (int * Query.node list) list list -> sr list

(** The successful ones (Definition 8) touching at most [max_ops]
    operators with up to [depth] admissible changes each. *)
val successful : ?max_ops:int -> ?depth:int -> Question.t -> sr list

(** The minimal ones (Definition 9). *)
val msrs : ?max_ops:int -> ?depth:int -> Question.t -> sr list

(** The explanations: distinct Δ sets of the MSRs (Definition 10), ranked. *)
val explanations : ?max_ops:int -> ?depth:int -> Question.t -> Explanation.t list
