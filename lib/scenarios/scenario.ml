(* Evaluation scenarios (Section 6.2, Tables 4–6, 9, 10).

   A scenario packages a query (possibly with deliberately injected
   errors), a data generator, a why-not question, the attribute
   alternatives handed to the algorithm, and — when errors were injected —
   the gold-standard explanation. *)

open Nrab

type family = Paper | Dblp | Twitter | Tpch | Tpch_flat | Crime | Forestry

type instance = {
  question : Whynot.Question.t;
  alternatives : Whynot.Alternatives.alternatives;
  gold : int list list option;
      (* the operator sets that exactly cover the injected errors *)
}

type t = {
  name : string;
  family : family;
  description : string;
  operators : string;  (* operator summary, e.g. "π,σ,⋈,F,N,γ" *)
  make : scale:int -> ?seed:int -> unit -> instance;
}

let family_to_string = function
  | Paper -> "Paper"
  | Dblp -> "DBLP"
  | Twitter -> "Twitter"
  | Tpch -> "TPC-H"
  | Tpch_flat -> "TPC-H flat"
  | Crime -> "Crime"
  | Forestry -> "Forestry"

(* Helpers shared by the scenario definitions. *)

let ids_by_symbol (q : Query.t) : (string * int) list =
  List.map
    (fun (op : Query.t) -> (Query.op_symbol op.Query.node, op.Query.id))
    (Query.operators q)
