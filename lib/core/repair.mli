(** Concrete repair suggestions for an explanation.

    An explanation names the operators to fix; [suggest] searches for
    actual parameter changes of exactly those operators that make the
    missing answer appear (attribute swaps, comparison-operator switches,
    constants from the active domain, kind changes), ranked by their true
    tree-edit-distance side effects.  This bridges query-based towards
    refinement-based explanations.

    The search is {!Exact.search} over one operator subset, the
    explanation's operators, each of them changed.  Bounded — intended
    for interactive use on one explanation at a time, on data small
    enough to evaluate candidate queries. *)

open Nrab

type suggestion = {
  changes : (int * Query.node) list;  (** per-operator replacement *)
  repaired : Query.t;
  side_effects : int;  (** tree edit distance to the original result *)
}

(** Successful repairs implementing [expl], best (fewest side effects)
    first.  [depth] bounds admissible changes per operator; at most
    [max_suggestions] are returned. *)
val suggest :
  ?depth:int -> ?max_suggestions:int -> Question.t -> Explanation.t -> suggestion list

(** Render one suggestion as per-operator [old → new] lines. *)
val pp_suggestion : Query.t -> Format.formatter -> suggestion -> unit
