(* Concrete repair suggestions for an explanation.

   An explanation names the operators to fix; this module goes one step
   further and searches for *actual parameter changes* of exactly those
   operators that make the missing answer appear — bridging towards the
   refinement-based explanations the paper contrasts itself with
   (Example 10's discussion).  It is the exact algorithm's search
   ([Exact.search]) restricted to one operator subset, the explanation's
   operators, each of them changed; the successful repairs are ranked by
   their true tree-edit-distance side effects. *)

open Nrab
module Int_set = Opset.Int_set

type suggestion = {
  changes : (int * Query.node) list;  (* per-operator replacement *)
  repaired : Query.t;
  side_effects : int;  (* tree edit distance to the original result *)
}

(* Suggest concrete repairs implementing one explanation: combinations of
   candidate parameter changes over exactly the explanation's operators
   that make the missing answer appear, fewest side effects first (ties
   in enumeration order). *)
let suggest ?(depth = 2) ?(max_suggestions = 5) (phi : Question.t)
    (expl : Explanation.t) : suggestion list =
  let db = phi.Question.db in
  let env = Eval.schema_env db in
  let subset =
    List.filter_map
      (fun (op : Query.t) ->
        if Int_set.mem op.Query.id (Explanation.ops expl) then
          Some (op.Query.id, Exact.candidates ~depth db env op)
        else None)
      (Query.operators phi.Question.query)
  in
  Exact.search phi [ subset ]
  |> List.map (fun (sr : Exact.sr) ->
         {
           changes = sr.Exact.changes;
           repaired = sr.Exact.query;
           side_effects = sr.Exact.distance;
         })
  |> List.stable_sort (fun a b -> compare a.side_effects b.side_effects)
  |> List.filteri (fun i _ -> i < max_suggestions)

let pp_suggestion (q : Query.t) ppf (s : suggestion) =
  let pp_change ppf (id, node) =
    let old =
      match Query.find_op q id with
      | Some op -> Fmt.str "%a" Query.pp_node op.Query.node
      | None -> "?"
    in
    Fmt.pf ppf "%s^%d → %a" old id Query.pp_node node
  in
  Fmt.pf ppf "@[<v 2>repair (side effects %d):@,%a@]" s.side_effects
    (Fmt.list ~sep:Fmt.cut pp_change)
    s.changes
