(* Exact MSR computation by bounded enumeration.

   The brute-force PTIME algorithm sketched in the proof of Theorem 1:
   enumerate the (polynomially many) distinguishable reparameterizations —
   attribute swaps, comparison-operator switches, constants drawn from the
   active domain, join/flatten kind changes — evaluate each candidate, keep
   the successful ones, and compute the minimal ones under the partial
   order of Definition 9 with the tree edit distance as d.

   This is the one reparameterization search: [successful] runs [search]
   over every operator subset up to [max_ops], and [Repair.suggest] runs it
   over the one subset an explanation names.

   Exponential in the number of simultaneously changed operators, so only
   usable on small instances; it serves as ground truth for the heuristic
   pipeline in the test suite and for the crime-dataset comparison. *)

open Nested
open Nrab
module Int_set = Opset.Int_set

type sr = {
  query : Query.t;
  changes : (int * Query.node) list;
  changed : Int_set.t;
  distance : int;
}

(* All candidate node replacements for one operator (one to [depth]
   admissible changes deep).  The operator's inputs are evaluated at most
   once, when a constant first needs an active domain, and each
   attribute's domain is read from them once; an input whose evaluation
   raises contributes no constants. *)
let candidates ~(depth : int) (db : Relation.Db.t) env (op : Query.t) :
    Query.node list =
  let fields =
    List.concat_map
      (fun child ->
        match Typecheck.infer_result env child with
        | Ok ty -> Vtype.relation_fields ty
        | Error _ -> [])
      op.Query.children
  in
  let attr_pool a =
    match List.assoc_opt a fields with
    | None -> []
    | Some ty ->
      List.filter_map
        (fun (a', ty') -> if Vtype.equal ty ty' then Some a' else None)
        fields
  in
  let inputs =
    lazy
      (List.concat_map
         (fun child ->
           match Eval.eval db child with
           | rel -> Relation.distinct_tuples rel
           | exception _ -> [])
         op.Query.children)
  in
  let domains = Hashtbl.create 8 in
  let active_domain a =
    match Hashtbl.find_opt domains a with
    | Some domain -> domain
    | None ->
      let domain =
        List.sort_uniq Value.compare
          (List.filter_map (Value.field a) (Lazy.force inputs))
      in
      Hashtbl.add domains a domain;
      domain
  in
  let const_pool attr_hint (v : Value.t) =
    let same_type v' =
      match v, v' with
      | Value.Int _, Value.Int _
      | Value.Float _, Value.Float _
      | Value.String _, Value.String _
      | Value.Bool _, Value.Bool _ ->
        true
      | _ -> false
    in
    match attr_hint with
    | Some a -> List.filter same_type (active_domain a)
    | None -> []
  in
  let step node = Reparam.node_variants ~attr_pool ~const_pool node in
  let rec go d frontier acc =
    if d = 0 then acc
    else
      let next = List.sort_uniq compare (List.concat_map step frontier) in
      let fresh =
        List.filter (fun n -> n <> op.Query.node && not (List.mem n acc)) next
      in
      go (d - 1) fresh (acc @ fresh)
  in
  go depth [ op.Query.node ] []

(* Every combination of one candidate per operator of a subset, applied to
   Φ's query.  A well-typed candidate is evaluated once: that result
   decides success (Definition 8) and gives the tree edit distance to
   ⟦Q⟧_D.  A candidate whose evaluation or NIP test raises is skipped. *)
let search (phi : Question.t) (subsets : (int * Query.node list) list list) :
    sr list =
  let q = phi.Question.query in
  let env = Eval.schema_env phi.Question.db in
  let original = Relation.data (Question.original_result phi) in
  let rec product = function
    | [] -> [ [] ]
    | (id, cs) :: rest ->
      let tails = product rest in
      List.concat_map (fun c -> List.map (fun tl -> (id, c) :: tl) tails) cs
  in
  let evaluate changes =
    let q' = Reparam.apply q changes in
    if not (Typecheck.well_typed env q') then None
    else
      match Question.successful_result phi q' with
      | Some result ->
        Some
          {
            query = q';
            changes;
            changed = Int_set.of_list (List.map fst changes);
            distance = Ted.distance original (Relation.data result);
          }
      | None | (exception _) -> None
  in
  List.concat_map
    (fun subset -> List.filter_map evaluate (product subset))
    subsets

(* Successful reparameterizations (Definition 8) changing at most
   [max_ops] operators, with their tree edit distance side effects. *)
let successful ?(max_ops = 2) ?(depth = 2) (phi : Question.t) : sr list =
  let db = phi.Question.db in
  let env = Eval.schema_env db in
  let per_op =
    List.filter_map
      (fun (op : Query.t) ->
        match op.Query.node with
        | Query.Table _ | Query.Product | Query.Union | Query.Diff
        | Query.Dedup ->
          None
        | _ -> (
          match candidates ~depth db env op with
          | [] -> None
          | cs -> Some (op.Query.id, cs)))
      (Query.operators phi.Question.query)
  in
  let rec subsets k = function
    | [] -> [ [] ]
    | _ when k = 0 -> [ [] ]
    | x :: rest ->
      let without = subsets k rest in
      let with_x = List.map (fun s -> x :: s) (subsets (k - 1) rest) in
      without @ with_x
  in
  search phi (List.filter (( <> ) []) (subsets max_ops per_op))

(* MSRs: SRs minimal w.r.t. the partial order (Definition 9). *)
let msrs ?max_ops ?depth (phi : Question.t) : sr list =
  let srs = successful ?max_ops ?depth phi in
  let leq (a : sr) (b : sr) =
    Int_set.subset a.changed b.changed && a.distance <= b.distance
  in
  let strictly_less a b = leq a b && not (leq b a) in
  List.filter (fun s -> not (List.exists (fun s' -> strictly_less s' s) srs)) srs

(* Explanations: the distinct Δ sets of the MSRs (Definition 10). *)
let explanations ?max_ops ?depth (phi : Question.t) : Explanation.t list =
  let ms = msrs ?max_ops ?depth phi in
  let sets =
    List.fold_left
      (fun acc (s : sr) ->
        match
          List.find_opt (fun (set, _) -> Int_set.equal set s.changed) acc
        with
        | Some (_, d) when d <= s.distance -> acc
        | Some _ ->
          (s.changed, s.distance)
          :: List.filter (fun (set, _) -> not (Int_set.equal set s.changed)) acc
        | None -> (s.changed, s.distance) :: acc)
      [] ms
  in
  Explanation.rank
    (List.map (fun (set, d) -> Explanation.make ~lb:d ~ub:d set) sets)
