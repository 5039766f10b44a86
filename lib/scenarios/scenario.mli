(** Evaluation scenarios (Section 6.2, Tables 4–6, 9, 10).

    A scenario packages a query (possibly with deliberately injected
    errors), a data generator, the why-not question, the attribute
    alternatives handed to the algorithm, and — when errors were injected
    — the gold-standard explanation. *)

open Nrab

type family = Paper | Dblp | Twitter | Tpch | Tpch_flat | Crime | Forestry

type instance = {
  question : Whynot.Question.t;
  alternatives : Whynot.Alternatives.alternatives;
  gold : int list list option;
      (** the operator-id sets that exactly cover the injected errors *)
}

type t = {
  name : string;  (** e.g. "Q10" — the paper's scenario name *)
  family : family;
  description : string;
  operators : string;  (** operator summary, e.g. "π,σ,⋈,Fᴵ" *)
  make : scale:int -> ?seed:int -> unit -> instance;
      (** build the instance at a data scale; [?seed] re-seeds the data
          generator (scenario default when omitted — gold standards are
          validated at the default seed) *)
}

val family_to_string : family -> string

(** (operator symbol, id) pairs of a query, in topological order. *)
val ids_by_symbol : Query.t -> (string * int) list
