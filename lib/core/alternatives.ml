(* Schema alternatives (Section 5.2).

   Attribute alternatives are provided as input (as in the paper, which
   assumes they come from the user, schema matching, or schema-free query
   processors): per input table, groups of mutually interchangeable
   attribute paths.  Enumeration mirrors Figure 3: every operator reference
   whose *source attribute* belongs to a group is a choice point; we take
   the cartesian product of choices and prune assignments that cannot be
   realized at the operator's input schema, yield an ill-typed query, or
   change the query's output schema.

   Source attributes of operator references are computed by a schema-level
   forward provenance pass (attribute origins). *)

open Nested
open Nrab
module Int_set = Opset.Int_set

type alternatives = (string * Path.t list) list
(* Each entry (table, group) is one group of interchangeable paths. *)

type sa = {
  index : int;  (* 0 is the original schema alternative S₁ *)
  query : Query.t;  (* the query with attribute substitutions applied *)
  changed_ops : Int_set.t;  (* operators whose parameters the SA changes *)
  description : string;
}

type origin = string * Path.t (* (table, path) *)

(* --- Attribute origins -------------------------------------------------- *)

(* For every operator, map each output attribute to its source attribute
   (table × path) when the attribute is a direct copy of source data.
   Needs the typing environment to know table schemas and the inner names
   introduced by flattening. *)
let origins ~(env : Typecheck.env) (q : Query.t) : (string * origin) list =
  let fields_of sub =
    match Typecheck.infer_result env sub with
    | Ok ty -> List.map fst (Vtype.relation_fields ty)
    | Error _ -> []
  in
  let rec go (q : Query.t) : (string * origin) list =
    match q.node, q.children with
    | Query.Table name, [] ->
      List.map (fun a -> (a, (name, [ a ]))) (fields_of q)
    | Query.Select _, [ c ] | Query.Dedup, [ c ] -> go c
    | Query.Union, [ l; _ ] | Query.Diff, [ l; _ ] -> go l
    | Query.Project cols, [ c ] ->
      let child = go c in
      List.filter_map
        (fun (name, e) ->
          match e with
          | Expr.Attr a ->
            Option.map (fun o -> (name, o)) (List.assoc_opt a child)
          | _ -> None)
        cols
    | Query.Rename pairs, [ c ] ->
      List.map
        (fun (a, o) ->
          match List.find_opt (fun (_, old) -> String.equal old a) pairs with
          | Some (fresh, _) -> (fresh, o)
          | None -> (a, o))
        (go c)
    | (Query.Join _ | Query.Product), [ l; r ] -> go l @ go r
    | (Query.Flatten_tuple a | Query.Flatten (_, a)), [ c ] ->
      let child = go c in
      let child_fields = fields_of c in
      let new_fields =
        List.filter (fun f -> not (List.mem f child_fields)) (fields_of q)
      in
      let inner =
        match List.assoc_opt a child with
        | Some (tbl, path) ->
          List.map (fun f -> (f, (tbl, path @ [ f ]))) new_fields
        | None -> []
      in
      child @ inner
    | (Query.Nest_tuple (pairs, _) | Query.Nest_rel (pairs, _)), [ c ] ->
      let attrs = List.map snd pairs in
      List.filter (fun (name, _) -> not (List.mem name attrs)) (go c)
    | Query.Agg_tuple _, [ c ] -> go c
    | Query.Group_agg (group, _), [ c ] ->
      let child = go c in
      List.filter_map
        (fun (label, a) ->
          Option.map (fun o -> (label, o)) (List.assoc_opt a child))
        group
    | _ -> []
  in
  go q

(* --- Choice points ------------------------------------------------------ *)

(* Attributes referenced in the parameters of an operator. *)
let referenced_attrs (node : Query.node) : string list =
  match node with
  | Query.Select p -> Expr.pred_attrs p
  | Query.Project cols -> List.concat_map (fun (_, e) -> Expr.attrs e) cols
  | Query.Join (_, p) -> Expr.pred_attrs p
  | Query.Flatten_tuple a | Query.Flatten (_, a) -> [ a ]
  | Query.Nest_tuple (pairs, _) | Query.Nest_rel (pairs, _) -> List.map snd pairs
  | Query.Agg_tuple (_, a, _) -> [ a ]
  | Query.Group_agg (group, aggs) ->
    List.map snd group @ List.filter_map (fun (_, a, _) -> a) aggs
  | Query.Rename _ | Query.Table _ | Query.Product | Query.Union | Query.Diff
  | Query.Dedup ->
    []

type choice_point = {
  cp_op : int;
  cp_attr : string;  (* the attribute name referenced at that operator *)
  cp_table : string;
  cp_options : Path.t list;  (* the group; first option = the original *)
}

let choice_points ~env (q : Query.t) (alts : alternatives) : choice_point list
    =
  let ops = Query.operators q in
  List.concat_map
    (fun (op : Query.t) ->
      let child_origins =
        List.concat_map (fun c -> origins ~env c) op.Query.children
      in
      List.filter_map
        (fun attr ->
          match List.assoc_opt attr child_origins with
          | None -> None
          | Some (tbl, path) -> (
            match
              List.find_opt
                (fun (t, group) ->
                  String.equal t tbl
                  && List.exists (fun p -> Path.equal p path) group)
                alts
            with
            | Some (_, group) ->
              let others =
                List.filter (fun p -> not (Path.equal p path)) group
              in
              Some
                {
                  cp_op = op.Query.id;
                  cp_attr = attr;
                  cp_table = tbl;
                  cp_options = path :: others;
                }
            | None -> None))
        (List.sort_uniq String.compare (referenced_attrs op.Query.node)))
    ops

(* --- Assignment application --------------------------------------------- *)

(* Substitute attribute references of one node. *)
let subst_node (node : Query.node) (subst : string -> string) : Query.node =
  match node with
  | Query.Select p -> Query.Select (Expr.subst_pred_attrs subst p)
  | Query.Project cols ->
    Query.Project (List.map (fun (n, e) -> (n, Expr.subst_attrs subst e)) cols)
  | Query.Join (k, p) -> Query.Join (k, Expr.subst_pred_attrs subst p)
  | Query.Flatten_tuple a -> Query.Flatten_tuple (subst a)
  | Query.Flatten (k, a) -> Query.Flatten (k, subst a)
  | Query.Nest_tuple (pairs, c) ->
    Query.Nest_tuple (List.map (fun (l, a) -> (l, subst a)) pairs, c)
  | Query.Nest_rel (pairs, c) ->
    Query.Nest_rel (List.map (fun (l, a) -> (l, subst a)) pairs, c)
  | Query.Agg_tuple (fn, a, b) -> Query.Agg_tuple (fn, subst a, b)
  | Query.Group_agg (group, aggs) ->
    Query.Group_agg
      ( List.map (fun (l, a) -> (l, subst a)) group,
        List.map (fun (fn, a, o) -> (fn, Option.map subst a, o)) aggs )
  | other -> other

(* Apply one assignment (choice point → selected path).  Processes
   operators bottom-up, looking up at each choice point an input attribute
   whose origin is the selected path.  Returns None when the assignment is
   not realizable (the pruning of Figure 3). *)
let apply_assignment ~env (q : Query.t)
    (assignment : (choice_point * Path.t) list) : (Query.t * Int_set.t) option
    =
  let changed = ref Int_set.empty in
  let exception Prune in
  let rec rebuild (op : Query.t) : Query.t =
    let children = List.map rebuild op.Query.children in
    let op = { op with Query.children } in
    let my_choices =
      List.filter (fun (cp, _) -> cp.cp_op = op.Query.id) assignment
    in
    if my_choices = [] then op
    else begin
      (* origins of the (already substituted) children *)
      let child_origins = List.concat_map (origins ~env) children in
      let subst a =
        match
          List.find_opt (fun (cp, _) -> String.equal cp.cp_attr a) my_choices
        with
        | None -> a
        | Some (cp, path) ->
          if Path.equal path (List.hd cp.cp_options) then a
          else (
            match
              List.find_opt
                (fun (_, (tbl, p)) ->
                  String.equal tbl cp.cp_table && Path.equal p path)
                child_origins
            with
            | Some (a', _) -> a'
            | None -> raise Prune)
      in
      let node' = subst_node op.Query.node subst in
      if node' <> op.Query.node then
        changed := Int_set.add op.Query.id !changed;
      { op with Query.node = node' }
    end
  in
  match rebuild q with
  | q' -> Some (q', !changed)
  | exception Prune -> None

(* --- Enumeration -------------------------------------------------------- *)

let rec assignments (cps : choice_point list) :
    (choice_point * Path.t) list list =
  match cps with
  | [] -> [ [] ]
  | cp :: rest ->
    let tails = assignments rest in
    List.concat_map
      (fun path -> List.map (fun tl -> (cp, path) :: tl) tails)
      cp.cp_options

let describe assignment =
  let changed =
    List.filter_map
      (fun (cp, path) ->
        if Path.equal path (List.hd cp.cp_options) then None
        else
          Some
            (Fmt.str "%s.%s→%s.%s" cp.cp_table
               (Path.to_string (List.hd cp.cp_options))
               cp.cp_table (Path.to_string path)))
      assignment
  in
  if changed = [] then "original" else String.concat ", " changed

let enumerate ?(max_sas = 16) ~(env : Typecheck.env) (q : Query.t)
    (alts : alternatives) : sa list =
  let original_schema = Typecheck.infer_result env q in
  let cps = choice_points ~env q alts in
  let all = assignments cps in
  let candidates =
    List.filter_map
      (fun assignment ->
        match apply_assignment ~env q assignment with
        | Some (q', changed) -> (
          (* pruning: must type-check and preserve the output schema *)
          match Typecheck.infer_result env q', original_schema with
          | Ok ty, Ok ty0 when Vtype.equal ty ty0 ->
            Some (q', changed, describe assignment)
          | _ -> None)
        | None -> None)
      all
  in
  (* dedupe by resulting query; the original (no changes) comes first *)
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun (q', _, _) ->
        let key = Query.to_string q' in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      candidates
  in
  let originals, others =
    List.partition (fun (_, changed, _) -> Int_set.is_empty changed) unique
  in
  let ordered = originals @ others in
  let ordered =
    if List.length ordered > max_sas then (
      Obs.Log.warn "alternatives.truncated" (fun () ->
          [
            Obs.Log.int "candidates" (List.length ordered);
            Obs.Log.int "kept" max_sas;
          ]);
      List.filteri (fun i _ -> i < max_sas) ordered)
    else ordered
  in
  List.mapi
    (fun i (q', changed, description) ->
      { index = i; query = q'; changed_ops = changed; description })
    ordered
