(* Static physical-plan analysis: classify each operator as
   partition-local (narrow) or shuffle-inducing (wide), assign stage
   numbers, and pretty-print the plan the way one would read a Spark UI's
   DAG — useful to understand where the engine's (and the paper's)
   runtime goes before executing anything. *)

open Nrab

type movement =
  | Narrow  (** partition-local *)
  | Shuffle of string  (** hash repartition by the given key description *)
  | Gather  (** all partitions collapse (no equi-key join) *)

type node = {
  op_id : int;
  label : string;
  movement : movement;
  stage : int;
  inputs : node list;
}

let movement_to_string = function
  | Narrow -> "narrow"
  | Shuffle key -> "shuffle by " ^ key
  | Gather -> "gather"

(* Movement of one operator given its children's output fields. *)
let movement_of (q : Query.t) ~(left_fields : string list)
    ~(right_fields : string list) : movement =
  match q.Query.node with
  | Query.Table _ | Query.Select _ | Query.Project _ | Query.Rename _
  | Query.Flatten_tuple _ | Query.Flatten _ | Query.Nest_tuple _
  | Query.Agg_tuple _ | Query.Union ->
    Narrow
  | Query.Dedup -> Shuffle "whole tuple"
  | Query.Diff -> Shuffle "whole tuple"
  | Query.Nest_rel (pairs, _) ->
    let nested = List.map snd pairs in
    let group = List.filter (fun a -> not (List.mem a nested)) left_fields in
    Shuffle (String.concat "," group)
  | Query.Group_agg (group, _) -> Shuffle (String.concat "," (List.map fst group))
  | Query.Join (_, pred) ->
    let keys = fst (Kernel.equi_split left_fields right_fields pred) in
    if keys = [] then Gather
    else Shuffle (String.concat "," (List.map fst keys))
  | Query.Product -> Gather

let analyze ~(env : Typecheck.env) (q : Query.t) : node =
  let fields_of sub =
    match Typecheck.infer_result env sub with
    | Ok ty -> List.map fst (Nested.Vtype.relation_fields ty)
    | Error _ -> []
  in
  let rec go (q : Query.t) : node =
    let inputs = List.map go q.Query.children in
    let left_fields, right_fields =
      match q.Query.children with
      | [ c ] -> (fields_of c, [])
      | [ l; r ] -> (fields_of l, fields_of r)
      | _ -> ([], [])
    in
    let movement = movement_of q ~left_fields ~right_fields in
    let input_stage = List.fold_left (fun acc n -> max acc n.stage) 0 inputs in
    let stage =
      match movement with
      | Narrow -> input_stage
      | Shuffle _ | Gather -> input_stage + 1
    in
    {
      op_id = q.Query.id;
      label = Fmt.str "%a" Query.pp_node q.Query.node;
      movement;
      stage;
      inputs;
    }
  in
  go q

let stage_count (plan : node) : int =
  let rec go acc (n : node) =
    List.fold_left go (max acc n.stage) n.inputs
  in
  go 0 plan + 1

let rec pp ppf (n : node) =
  Fmt.pf ppf "@[<v 2>[stage %d] %s^%d (%s)%a@]" n.stage n.label n.op_id
    (movement_to_string n.movement)
    (fun ppf inputs ->
      List.iter (fun i -> Fmt.pf ppf "@,%a" pp i) inputs)
    n.inputs

let to_string plan = Fmt.str "%a" pp plan
