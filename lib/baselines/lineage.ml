(* Shared successor tracking for the lineage-based baselines.

   A *compatible* is an input tuple matching the backtraced NIP of its
   table.  Tables whose NIP is trivial impose no constraint: all their
   tuples count as (vacuous) compatibles.  Successors propagate forward:

   - through unary operators, from the single parent;
   - through flatten operators at element granularity (the successor must
     still carry the compatible nested element — the nested-data extension
     of WN++ described in Section 6.2);
   - through joins only when *both* parents are successors (an answer
     needs compatibles from every constrained table); a null-padded row
     counts only if the padded-away side contains no constrained table;
   - through grouping/aggregation when *some* parent is a successor.

   [surviving_only] restricts propagation to the unrelaxed intermediate
   results (Why-Not); with [false] rows that only a repair would admit
   also propagate (Conseil's continue-past-picky behaviour). *)

open Nrab
module Int_set = Set.Make (Int)
module String_set = Set.Make (String)

type info = {
  trace : Whynot.Tracing.t;
  bt : Whynot.Backtrace.t;
  query : Query.t;
}

let original_trace (phi : Whynot.Question.t) : info =
  let db = phi.Whynot.Question.db in
  let q = phi.Whynot.Question.query in
  let env = Eval.schema_env db in
  let bt = Whynot.Backtrace.run ~env q phi.Whynot.Question.missing in
  let sa0 =
    {
      Whynot.Alternatives.index = 0;
      query = q;
      changed_ops = Int_set.empty;
      description = "original";
    }
  in
  { trace = Whynot.Tracing.run ~env db sa0 bt; bt; query = q }

(* Tables with a non-trivial backtraced NIP. *)
let constrained_tables (info : info) : String_set.t =
  List.fold_left
    (fun acc (name, nip) ->
      if Whynot.Nip.is_trivial nip then acc else String_set.add name acc)
    String_set.empty info.bt.Whynot.Backtrace.table_nips

(* Does the subtree rooted at [op] access a constrained table? *)
let rec subtree_constrained (constrained : String_set.t) (op : Query.t) : bool =
  match op.Query.node with
  | Query.Table name -> String_set.mem name constrained
  | _ -> List.exists (subtree_constrained constrained) op.Query.children

(* op id → query node, and op id → subtree membership test *)
let op_index (q : Query.t) : (int, Query.t) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (op : Query.t) -> Hashtbl.replace tbl op.Query.id op)
    (Query.operators q);
  tbl

let successor_rids ~(surviving_only : bool) (info : info) :
    (int, unit) Hashtbl.t =
  let constrained = constrained_tables info in
  let ops_tbl = op_index info.query in
  (* A join row's parents are rows of its immediate children, so a
     parent lies on the left side iff it is in the left child's block. *)
  let in_block (c : Query.t) rid =
    match Whynot.Tracing.op_trace info.trace c.Query.id with
    | Some o ->
      let r0 = Whynot.Tracing.rid0 o in
      rid >= r0 && rid < r0 + Whynot.Tracing.n_rows o
    | None -> false
  in
  let successor = Hashtbl.create 256 in
  let is_succ rid = Hashtbl.mem successor rid in
  List.iter
    (fun (ot : Whynot.Tracing.op_trace) ->
      let op = Hashtbl.find_opt ops_tbl ot.Whynot.Tracing.op_id in
      let r0 = Whynot.Tracing.rid0 ot in
      for i = 0 to Whynot.Tracing.n_rows ot - 1 do
        let alive =
          (not surviving_only) || Whynot.Tracing.surviving_at ot i
        in
        if alive then begin
          let parents = Whynot.Tracing.parents_at ot i in
          let is_successor =
            match ot.Whynot.Tracing.op_node, op with
            | Query.Table _, _ -> Whynot.Tracing.consistent_at ot i
            | (Query.Flatten _ | Query.Flatten_tuple _), _ ->
              List.exists is_succ parents
              && Whynot.Tracing.consistent_at ot i
            | (Query.Join _ | Query.Product), Some op -> (
              match parents, op.Query.children with
              | [ lp; rp ], _ -> is_succ lp && is_succ rp
              | [ p ], [ lchild; rchild ] ->
                (* null-padded row: [p] is a row of one child; the
                   padded-away side must be unconstrained *)
                let padded_side_unconstrained =
                  if in_block lchild p then
                    not (subtree_constrained constrained rchild)
                  else not (subtree_constrained constrained lchild)
                in
                is_succ p && padded_side_unconstrained
              | _, _ -> false)
            | ( ( Query.Nest_rel _ | Query.Group_agg _ | Query.Dedup
                | Query.Agg_tuple _ ),
                _ ) ->
              List.exists is_succ parents
            | _, _ -> List.exists is_succ parents
          in
          if is_successor then Hashtbl.replace successor (r0 + i) ()
        end
      done)
    info.trace.Whynot.Tracing.ops;
  successor

(* Operators where successors die: every child trace has a successor row
   but no (alive) output row is a successor. *)
let picky_ops ~(surviving_only : bool) (info : info)
    (successor : (int, unit) Hashtbl.t) : int list =
  let ops_tbl = op_index info.query in
  List.filter_map
    (fun (ot : Whynot.Tracing.op_trace) ->
      match ot.Whynot.Tracing.op_node with
      | Query.Table _ -> None
      | _ ->
        let op = Hashtbl.find_opt ops_tbl ot.Whynot.Tracing.op_id in
        let children =
          match op with Some op -> op.Query.children | None -> []
        in
        let child_has_successor (c : Query.t) =
          match Whynot.Tracing.op_trace info.trace c.Query.id with
          | Some o ->
            let r0 = Whynot.Tracing.rid0 o in
            let n = Whynot.Tracing.n_rows o in
            let rec any i = i < n && (Hashtbl.mem successor (r0 + i) || any (i + 1)) in
            any 0
          | None -> false
        in
        let inputs_have_successors =
          children <> [] && List.for_all child_has_successor children
        in
        let output_has_successors =
          let r0 = Whynot.Tracing.rid0 ot in
          let n = Whynot.Tracing.n_rows ot in
          let rec any i =
            i < n
            && ((((not surviving_only) || Whynot.Tracing.surviving_at ot i)
                && Hashtbl.mem successor (r0 + i))
               || any (i + 1))
          in
          any 0
        in
        if inputs_have_successors && not output_has_successors then
          Some ot.Whynot.Tracing.op_id
        else None)
    info.trace.Whynot.Tracing.ops
