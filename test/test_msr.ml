(* MSR-computation tests: failure sets, the literal queue-based
   Algorithm 4, the contributing-rows closure, and side-effect bounds on
   the paper's running example; the bitmask families against a recursive
   reference over every registry scenario; the mask order and the
   alternatives cap on hand-built traces. *)

open Nested
open Nrab
module Nip = Whynot.Nip
module Int_set = Whynot.Msr.Int_set
module Set_set = Whynot.Msr.Set_set

let person_schema =
  Vtype.relation
    [
      ("name", Vtype.TString);
      ("address1", Vtype.relation [ ("city", Vtype.TString); ("year", Vtype.TInt) ]);
      ("address2", Vtype.relation [ ("city", Vtype.TString); ("year", Vtype.TInt) ]);
    ]

let addr c y = Value.Tuple [ ("city", Value.String c); ("year", Value.Int y) ]

let person name a1 a2 =
  Value.Tuple
    [
      ("name", Value.String name);
      ("address1", Value.bag_of_list a1);
      ("address2", Value.bag_of_list a2);
    ]

let db =
  Relation.Db.of_list
    [
      ( "person",
        Relation.of_tuples ~schema:person_schema
          [
            person "Peter"
              [ addr "NY" 2010; addr "LA" 2019; addr "LV" 2017 ]
              [ addr "LA" 2010; addr "SF" 2018 ];
            person "Sue" [ addr "LA" 2019; addr "NY" 2018 ] [ addr "LA" 2019; addr "NY" 2018 ];
          ] );
    ]

let env = [ ("person", person_schema) ]

let query =
  let g = Query.Gen.create () in
  Query.nest_rel ~id:5 g [ "name" ] ~into:"nList"
    (Query.project_attrs ~id:4 g [ "name"; "city" ]
       (Query.select ~id:3 g
          (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019))
          (Query.flatten_inner ~id:2 g "address2" (Query.table ~id:1 g "person"))))

let missing = Nip.tup [ ("city", Nip.str "NY"); ("nList", Nip.some_element) ]

let mk_trace sa_query changed description index =
  let sa =
    { Whynot.Alternatives.index; query = sa_query; changed_ops = changed; description }
  in
  let bt = Whynot.Backtrace.run ~env sa_query missing in
  Whynot.Tracing.run ~env db sa bt

let trace0 () = mk_trace query Int_set.empty "original" 0

let sets_to_lists s =
  List.sort compare (List.map Int_set.elements (Set_set.elements s))

(* --- Reference implementations (test-only) ------------------------------- *)

(* Dense rid → owning operator map: rids are contiguous per operator. *)
let rid_owners (tr : Whynot.Tracing.t) : Whynot.Tracing.op_trace option array =
  let total =
    List.fold_left
      (fun acc ot -> max acc (Whynot.Tracing.rid0 ot + Whynot.Tracing.n_rows ot))
      0 tr.Whynot.Tracing.ops
  in
  let owner = Array.make total None in
  List.iter
    (fun (ot : Whynot.Tracing.op_trace) ->
      let r0 = Whynot.Tracing.rid0 ot in
      for i = 0 to Whynot.Tracing.n_rows ot - 1 do
        owner.(r0 + i) <- Some ot
      done)
    tr.Whynot.Tracing.ops;
  owner

let reparameterizable (node : Query.node) =
  match node with
  | Query.Table _ | Query.Union | Query.Diff | Query.Dedup | Query.Product ->
    false
  | _ -> true

(* Applications of [cap_sets] that dropped sets: the reference's count of
   what [whynot.msr.cap_truncations] counts. *)
let reference_drops = ref 0

let cap_sets (sets : Set_set.t) : Set_set.t =
  if Set_set.cardinal sets <= Whynot.Msr.max_alternatives then sets
  else
    let () = incr reference_drops in
    let sorted =
      List.sort
        (fun a b -> compare (Int_set.cardinal a) (Int_set.cardinal b))
        (Set_set.elements sets)
    in
    Set_set.of_list (List.filteri (fun i _ -> i < Whynot.Msr.max_alternatives) sorted)

(* The recursive, memoized failure-set walk the bitmask families
   replaced, kept as the differential reference. *)
let reference_failure_sets (tr : Whynot.Tracing.t) : int -> Set_set.t =
  let owner = rid_owners tr in
  let owner_of rid =
    if rid >= 0 && rid < Array.length owner then owner.(rid) else None
  in
  let memo = Hashtbl.create 256 in
  let rec fs (rid : int) : Set_set.t =
    match Hashtbl.find_opt memo rid with
    | Some s -> s
    | None ->
      Hashtbl.replace memo rid (Set_set.singleton Int_set.empty)
      (* cycle guard; traces are acyclic so this is never observed *);
      let result =
        match owner_of rid with
        | None -> Set_set.singleton Int_set.empty
        | Some ot
          when (not (Whynot.Tracing.retained_at ot (rid - Whynot.Tracing.rid0 ot)))
               && not (reparameterizable ot.Whynot.Tracing.op_node) ->
          Set_set.empty
        | Some ot ->
          let i = rid - Whynot.Tracing.rid0 ot in
          let parents = Whynot.Tracing.parents_at ot i in
          let own =
            if Whynot.Tracing.retained_at ot i then Int_set.empty
            else Int_set.singleton ot.Whynot.Tracing.op_id
          in
          let combine_parents (parents : int list) : Set_set.t =
            List.fold_left
              (fun acc pid ->
                let psets = fs pid in
                cap_sets
                  (Set_set.fold
                     (fun a acc' ->
                       Set_set.fold
                         (fun b acc'' -> Set_set.add (Int_set.union a b) acc'')
                         psets acc')
                     acc Set_set.empty))
              (Set_set.singleton Int_set.empty)
              parents
          in
          let base =
            match ot.Whynot.Tracing.op_node with
            | Query.Nest_rel _ | Query.Group_agg _ | Query.Dedup
            | Query.Agg_tuple _ ->
              let members =
                List.filter (fun pid -> Option.is_some (owner_of pid)) parents
              in
              let pid_consistent pid =
                match owner_of pid with
                | Some pot ->
                  Whynot.Tracing.consistent_at pot (pid - Whynot.Tracing.rid0 pot)
                | None -> false
              in
              let preferred =
                match List.filter pid_consistent members with
                | [] -> members
                | cs -> cs
              in
              let alternatives =
                List.fold_left
                  (fun acc pid -> Set_set.union acc (fs pid))
                  Set_set.empty preferred
              in
              if Set_set.is_empty alternatives then
                if parents = [] then Set_set.singleton Int_set.empty
                else Set_set.empty
              else cap_sets alternatives
            | _ -> combine_parents parents
          in
          cap_sets (Set_set.map (fun s -> Int_set.union s own) base)
      in
      Hashtbl.replace memo rid result;
      result
  in
  fs

(* The rows (by rid) of [roots] and all their ancestors, over parent
   edges. *)
let ancestor_closure (tr : Whynot.Tracing.t) (roots : int list) :
    (int, unit) Hashtbl.t =
  let owner = rid_owners tr in
  let marked = Hashtbl.create 256 in
  let rec mark rid =
    if not (Hashtbl.mem marked rid) then begin
      Hashtbl.replace marked rid ();
      if rid >= 0 && rid < Array.length owner then
        match owner.(rid) with
        | Some ot ->
          List.iter mark (Whynot.Tracing.parents_at ot (rid - Whynot.Tracing.rid0 ot))
        | None -> ()
    end
  in
  List.iter mark roots;
  marked

(* The rows that contribute to a consistent root row — the "lineage of a
   consistent output tuple" of Algorithm 4. *)
let contributing (tr : Whynot.Tracing.t) : (int, unit) Hashtbl.t =
  ancestor_closure tr (Whynot.Msr.consistent_root_rids tr)

(* The paper's queue-based Algorithm 4: the linearized operator list is
   walked top-down with a queue of partial SRs and *existential*
   per-operator conditions.  Its candidate sets are a superset of the
   failure-set ones, at the price of more false candidates when
   different rows witness the extend/skip conditions. *)
let algorithm4 (tr : Whynot.Tracing.t) : Set_set.t =
  let contrib = contributing tr in
  let prefix = tr.Whynot.Tracing.sa.Whynot.Alternatives.changed_ops in
  let ops = List.rev tr.Whynot.Tracing.ops in
  let conditions (ot : Whynot.Tracing.op_trace) =
    let r0 = Whynot.Tracing.rid0 ot in
    let extend = ref false and skip = ref false in
    for i = 0 to Whynot.Tracing.n_rows ot - 1 do
      if Hashtbl.mem contrib (r0 + i) && Whynot.Tracing.consistent_at ot i then
        if Whynot.Tracing.retained_at ot i then skip := true else extend := true
    done;
    (!extend, !skip)
  in
  let results = ref Set_set.empty in
  let add sr =
    if not (Int_set.is_empty sr) then results := Set_set.add sr !results
  in
  (* queue elements: remaining operator list × current partial SR *)
  let queue = Queue.create () in
  Queue.add (ops, prefix) queue;
  (* visited guard: (number of remaining ops, SR) *)
  let seen = Hashtbl.create 64 in
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | [], sr -> add sr
    | ot :: rest, sr ->
      let key = (List.length rest, Int_set.elements sr) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let extend, skip = conditions ot in
        let extend = extend && reparameterizable ot.Whynot.Tracing.op_node in
        if extend then begin
          let extended = Int_set.add ot.Whynot.Tracing.op_id sr in
          add extended;
          Queue.add (rest, extended) queue
        end;
        if skip then begin
          add sr;
          Queue.add (rest, sr) queue
        end;
        if (not extend) && not skip then Queue.add (rest, sr) queue
      end
  done;
  !results

let test_failure_sets_running_example () =
  let tr = trace0 () in
  let fs = Whynot.Msr.failure_sets tr in
  let consistent = Whynot.Msr.consistent_root_rids tr in
  Alcotest.(check int) "one consistent root (the NY group)" 1
    (List.length consistent);
  let root = List.hd consistent in
  Alcotest.(check (list (list int))) "its failure set is {σ}" [ [ 3 ] ]
    (sets_to_lists (fs root))

let test_contributing_closure () =
  let tr = trace0 () in
  let contrib = contributing tr in
  (* the closure reaches down to Sue's input tuple *)
  let contributing_names =
    match Whynot.Tracing.op_trace tr 1 with
    | Some ot ->
      List.filter_map
        (fun i ->
          if Hashtbl.mem contrib (Whynot.Tracing.rid0 ot + i) then
            Value.field "name" (Engine.Columnar.get_row ot.Whynot.Tracing.data i)
          else None)
        (List.init (Whynot.Tracing.n_rows ot) Fun.id)
    | None -> []
  in
  Alcotest.(check bool) "Sue's tuple contributes" true
    (List.mem (Value.String "Sue") contributing_names)

let test_algorithm4_superset_of_failure_sets () =
  let tr = trace0 () in
  let alg4 = algorithm4 tr in
  Alcotest.(check bool) "{σ} among Algorithm 4 candidates" true
    (Set_set.mem (Int_set.singleton 3) alg4);
  (* every failure-set explanation is an Algorithm 4 candidate *)
  let fs = Whynot.Msr.failure_sets tr in
  List.iter
    (fun rid ->
      Set_set.iter
        (fun set ->
          if not (Int_set.is_empty set) then
            Alcotest.(check bool)
              (Fmt.str "failure set {%s} covered"
                 (String.concat "," (List.map string_of_int (Int_set.elements set))))
              true (Set_set.mem set alg4))
        (fs rid))
    (Whynot.Msr.consistent_root_rids tr)

let test_algorithm4_never_blames_tables () =
  let tr = trace0 () in
  Set_set.iter
    (fun set ->
      Alcotest.(check bool) "no table access in candidates" false
        (Int_set.mem 1 set))
    (algorithm4 tr)

let test_bounds () =
  let tr = trace0 () in
  let original_result =
    Relation.tuples (Eval.eval db query)
  in
  let bi = { Whynot.Msr.original_result } in
  let lb, ub = Whynot.Msr.bounds ~bi ~q:query tr (Int_set.singleton 3) in
  (* the explanation contains a selection, so LB must be 0 (§5.4) *)
  Alcotest.(check int) "LB = 0 for selections" 0 lb;
  Alcotest.(check bool) "UB counts potential additions" true (ub >= 1)

let test_from_trace_explanations () =
  let tr = trace0 () in
  let bi = { Whynot.Msr.original_result = Relation.tuples (Eval.eval db query) } in
  let expls = Whynot.Msr.from_trace ~bi ~q:query tr in
  Alcotest.(check (list (list int))) "SA0 contributes {σ}" [ [ 3 ] ]
    (List.sort compare (List.map Whynot.Explanation.op_list expls))


(* --- Bitmask families vs the recursive reference ------------------------- *)

let sas_of (inst : Scenarios.Scenario.instance) =
  let q = inst.question.Whynot.Question.query
  and db = inst.question.Whynot.Question.db in
  let env = Eval.schema_env db in
  (env, db, Whynot.Alternatives.enumerate ~max_sas:16 ~env q inst.alternatives)

let root_rids (tr : Whynot.Tracing.t) =
  match Whynot.Tracing.op_trace tr tr.Whynot.Tracing.root_op with
  | None -> []
  | Some ot ->
    List.init (Whynot.Tracing.n_rows ot) (fun i ->
        (ot, i, Whynot.Tracing.rid0 ot + i))

let check_families ~label expected got rid =
  Alcotest.(check (list (list int)))
    (Fmt.str "%s rid %d" label rid)
    (sets_to_lists (expected rid)) (sets_to_lists (got rid))

(* What [Msr.from_trace ~sample_stride] must answer, from the reference
   families, as (operator set, UB) pairs.  With an empty ⟦Q⟧_D the UB is
   exactly the part of the bounds that reads families: the scaled count
   of the sampled non-surviving root rows with a failure set inside the
   explanation. *)
let reference_from_trace ~stride tr =
  let fs = reference_failure_sets tr and rows = root_rids tr in
  let prefix = tr.Whynot.Tracing.sa.Whynot.Alternatives.changed_ops in
  let candidates =
    List.fold_left
      (fun acc (ot, i, rid) ->
        if Whynot.Tracing.consistent_at ot i then
          Set_set.fold
            (fun s acc -> Set_set.add (Int_set.union prefix s) acc)
            (fs rid) acc
        else acc)
      Set_set.empty rows
  in
  let ub ops =
    stride
    * List.length
        (List.filter
           (fun (ot, i, rid) ->
             rid mod stride = 0
             && (not (Whynot.Tracing.surviving_at ot i))
             && Set_set.exists (fun s -> Int_set.subset s ops) (fs rid))
           rows)
  in
  List.map
    (fun ops -> (Int_set.elements ops, ub ops))
    (Set_set.elements (Set_set.remove Int_set.empty candidates))

(* [Msr.from_trace]'s candidate sets and UBs against the reference's, with
   an empty ⟦Q⟧_D; the number of explanations. *)
let check_from_trace ~label ~stride ~q tr =
  let expected = reference_from_trace ~stride tr in
  let bi = { Whynot.Msr.original_result = [] } in
  Alcotest.(check (list (pair (list int) int)))
    (label ^ " from_trace") expected
    (List.sort compare
       (List.map
          (fun (e : Whynot.Explanation.t) ->
            (Whynot.Explanation.op_list e, e.side_effect_ub))
          (Whynot.Msr.from_trace ~sample_stride:stride ~bi ~q tr)));
  List.length expected

(* Every root row of every SA of every registry scenario at scale 2, for
   strides 1 and 3: the decoded families, and the candidate sets and
   stride-sampled UBs of [from_trace], which marks only the root rows it
   reads at that stride. *)
let test_differential_registry () =
  let checked = ref 0 and nonempty = ref 0 and explained = ref 0 in
  List.iter
    (fun (sc : Scenarios.Scenario.t) ->
      let inst = sc.make ~scale:2 () in
      let env, db, sas = sas_of inst in
      List.iter
        (fun (sa : Whynot.Alternatives.sa) ->
          let q = sa.Whynot.Alternatives.query in
          let bt = Whynot.Backtrace.run ~env q inst.question.Whynot.Question.missing in
          List.iter
            (fun stride ->
              let tr = Whynot.Tracing.run ~sample_stride:stride ~env db sa bt in
              let label =
                Fmt.str "%s S%d stride %d" sc.name
                  (sa.Whynot.Alternatives.index + 1) stride
              in
              let expected = reference_failure_sets tr in
              let got = Whynot.Msr.failure_sets tr in
              List.iter
                (fun (_, _, rid) ->
                  incr checked;
                  if Set_set.exists (Fun.negate Int_set.is_empty) (expected rid)
                  then incr nonempty;
                  check_families ~label expected got rid)
                (root_rids tr);
              explained :=
                !explained + check_from_trace ~label ~stride ~q tr)
            [ 1; 3 ])
        sas)
    Scenarios.Registry.all;
  Alcotest.(check bool) "root rows with failure sets were compared" true
    (!checked > 0 && !nonempty > 0 && !explained > 0)

(* --- Side-effect bounds vs the Value sweep -------------------------------- *)

(* The sweep the columnar matching replaced, kept as the reference:
   ⟦Q⟧_D's rows bucketed by [value_hash], every sampled surviving root
   row rebuilt as a tree, and a match decided by [Value.equal] within
   its bucket. *)
let reference_terms ~stride ~(original : Value.t list) tr : Whynot.Msr.terms =
  let buckets = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.add buckets (Engine.Columnar.value_hash v) v) original;
  let surviving = ref 0 and matched = ref 0 in
  List.iter
    (fun (ot, i, rid) ->
      if rid mod stride = 0 && Whynot.Tracing.surviving_at ot i then begin
        incr surviving;
        let v = Engine.Columnar.get_row ot.Whynot.Tracing.data i in
        if
          List.exists (Value.equal v)
            (Hashtbl.find_all buckets (Engine.Columnar.value_hash v))
        then incr matched
      end)
    (root_rids tr);
  let original_rows = List.length original and matched = stride * !matched in
  {
    Whynot.Msr.original_rows;
    surviving = stride * !surviving;
    matched;
    ub_minus = max 0 (original_rows - matched);
  }

(* Section 5.4's (LB, UB) of [ops] from the reference terms and the
   reference families. *)
let reference_bounds ~stride ~q (t : Whynot.Msr.terms) tr =
  let fs = reference_failure_sets tr and rows = root_rids tr in
  fun ops ->
    let ub_plus =
      stride
      * List.length
          (List.filter
             (fun (ot, i, rid) ->
               rid mod stride = 0
               && (not (Whynot.Tracing.surviving_at ot i))
               && Set_set.exists (fun s -> Int_set.subset s ops) (fs rid))
             rows)
    in
    let filtering =
      Int_set.exists
        (fun id ->
          match Query.find_op q id with
          | Some { Query.node = Query.Select _ | Query.Join _; _ } -> true
          | _ -> false)
        ops
    in
    let lb =
      if filtering then 0
      else max 0 (t.Whynot.Msr.surviving - t.original_rows) + t.ub_minus
    in
    (lb, ub_plus + t.ub_minus)

let terms_list (t : Whynot.Msr.terms) =
  [ t.Whynot.Msr.original_rows; t.surviving; t.matched; t.ub_minus ]

let bounds_of (es : Whynot.Explanation.t list) =
  List.map
    (fun (e : Whynot.Explanation.t) ->
      (Whynot.Explanation.op_list e, (e.side_effect_lb, e.side_effect_ub)))
    es

(* ⟦Q⟧_D, as a batch, matched against the trace's root rows. *)
let matches_of (original : Engine.Columnar.t) (tr : Whynot.Tracing.t) =
  let ot = Option.get (Whynot.Tracing.op_trace tr tr.Whynot.Tracing.root_op) in
  Whynot.Msr.matches (Engine.Columnar.row_index original) ot.Whynot.Tracing.data
    ot.Whynot.Tracing.surviving

(* One trace's bounds, exact and top-2, through [explain] with the
   matches computed once and through the [~bi] wrappers (⟦Q⟧_D as
   rows), against the reference. *)
let check_bounds ~label ~stride ~q ~original tr =
  let rows = Engine.Columnar.to_rows original in
  let expected = reference_terms ~stride ~original:rows tr in
  let reference = reference_bounds ~stride ~q expected tr in
  let matches = matches_of original tr in
  let bi = { Whynot.Msr.original_result = rows } in
  List.iter
    (fun top_k ->
      let l = Fmt.str "%s top_k=%a" label Fmt.(option ~none:(any "-") int) top_k in
      let es, skipped, terms =
        Whynot.Msr.explain ~sample_stride:stride ?top_k ~matches ~q tr
      in
      Alcotest.(check (list int)) (l ^ " terms") (terms_list expected) (terms_list terms);
      Alcotest.(check (list (pair (list int) (pair int int))))
        (l ^ " (lb, ub)")
        (List.map
           (fun (e : Whynot.Explanation.t) ->
             (Whynot.Explanation.op_list e, reference e.ops))
           es)
        (bounds_of es);
      let wrapped =
        match top_k with
        | None -> (Whynot.Msr.from_trace ~sample_stride:stride ~bi ~q tr, 0)
        | Some k -> Whynot.Msr.from_trace_topk ~sample_stride:stride ~bi ~q ~k tr
      in
      Alcotest.(check (pair (list (pair (list int) (pair int int))) int))
        (l ^ " ~bi wrapper") (bounds_of es, skipped)
        (bounds_of (fst wrapped), snd wrapped))
    [ None; Some 2 ];
  expected

(* [v] with its strings' last two characters moved so the string hashes
   the same ([value_hash] is h·33 + c per character) but differs; tuples
   and bags keep their order, so the whole value hashes as [v] does. *)
let rec colliding (v : Value.t) : Value.t =
  match v with
  | Value.String s when String.length s >= 2 ->
    let n = String.length s in
    let a = Char.code s.[n - 2] and b = Char.code s.[n - 1] in
    if a < 126 && b >= 33 then
      Value.String
        (String.sub s 0 (n - 2) ^ String.make 1 (Char.chr (a + 1))
        ^ String.make 1 (Char.chr (b - 33)))
    else v
  | Value.Tuple fs -> Value.Tuple (List.map (fun (l, f) -> (l, colliding f)) fs)
  | Value.Bag es -> Value.Bag (List.map (fun (e, m) -> (colliding e, m)) es)
  | _ -> v

(* Every SA of every registry scenario at scales 1 and 2, strides 1 and
   3, against ⟦Q⟧_D as [Pipeline.prepare] computes it (the engine's
   batch).  The running example also runs against a ⟦Q⟧_D whose rows
   each hash like a surviving row without being equal to it, so a
   matching that took a hash hit for a match would fail. *)
let test_bounds_differential () =
  let matched = ref 0 in
  List.iter
    (fun scale ->
      List.iter
        (fun (sc : Scenarios.Scenario.t) ->
          let inst = sc.make ~scale () in
          let env, db, sas = sas_of inst in
          let q = inst.question.Whynot.Question.query in
          let original = fst (Engine.Exec.rows db q) in
          List.iter
            (fun (sa : Whynot.Alternatives.sa) ->
              let bt =
                Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query
                  inst.question.Whynot.Question.missing
              in
              List.iter
                (fun stride ->
                  let tr = Whynot.Tracing.run ~sample_stride:stride ~env db sa bt in
                  let label =
                    Fmt.str "%s@%d S%d stride %d" sc.name scale
                      (sa.Whynot.Alternatives.index + 1) stride
                  in
                  let t = check_bounds ~label ~stride ~q ~original tr in
                  matched := !matched + t.Whynot.Msr.matched)
                [ 1; 3 ])
            sas)
        Scenarios.Registry.all)
    [ 1; 2 ];
  Alcotest.(check bool) "surviving rows matched ⟦Q⟧_D" true (!matched > 0);
  let tr = trace0 () in
  let original = Relation.tuples (Eval.eval db query) in
  let collided = List.map colliding original in
  Alcotest.(check bool) "the colliding rows differ and hash alike" true
    (List.for_all2
       (fun v v' ->
         (not (Value.equal v v'))
         && Engine.Columnar.value_hash v = Engine.Columnar.value_hash v')
       original collided);
  let t =
    check_bounds ~label:"running example" ~stride:1 ~q:query
      ~original:(Engine.Columnar.of_rows original) tr
  in
  Alcotest.(check bool) "running example matches" true (t.Whynot.Msr.matched > 0);
  let t =
    check_bounds ~label:"colliding" ~stride:1 ~q:query
      ~original:(Engine.Columnar.of_rows collided) tr
  in
  Alcotest.(check int) "a hash hit is not a match" 0 t.Whynot.Msr.matched

let set_of_mask m =
  Int_set.of_list
    (List.filter (fun b -> m land (1 lsl b) <> 0) (List.init 62 Fun.id))

(* Masks mostly over a few low bits (so they share prefixes and collide)
   with an occasional high bit. *)
let gen_mask =
  QCheck.Gen.(
    map2
      (fun low high -> low lor if high >= 0 then 1 lsl high else 0)
      (int_bound 255)
      (oneof [ return (-1); int_range 8 61 ]))

let prop_compare_mask =
  QCheck.Test.make ~count:2000 ~name:"compare_mask agrees with Int_set.compare"
    QCheck.(make Gen.(pair gen_mask gen_mask))
    (fun (a, b) ->
      let sign x = compare x 0 in
      sign (Whynot.Msr.compare_mask a b)
      = sign (Int_set.compare (set_of_mask a) (set_of_mask b)))

(* --- Hand-built traces --------------------------------------------------- *)

let flags n f = Bytes.init n (fun i -> if f i then '\001' else '\000')

let op_trace ~q ~id ~rid0 ~n ?(retained = fun _ -> true)
    ?(consistent = fun _ -> true) ?(surviving = fun _ -> false) parents =
  let op_node =
    match Query.find_op q id with
    | Some op -> op.Query.node
    | None -> Alcotest.failf "no operator %d" id
  in
  {
    Whynot.Tracing.op_id = id;
    op_node;
    nip = Nip.any;
    rid0;
    n;
    data = Engine.Columnar.broadcast n Value.Null;
    consistent = flags n consistent;
    retained = flags n retained;
    surviving = flags n surviving;
    parents;
    ranges = None;
  }

let hand_trace q ops =
  {
    Whynot.Tracing.sa =
      {
        Whynot.Alternatives.index = 0;
        query = q;
        changed_ops = Int_set.empty;
        description = "hand-built";
      };
    ops;
    root_op = q.Query.id;
  }

(* σ2 … σ[last] over the table access t¹. *)
let select_chain g ~last =
  let pred = Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019) in
  let rec go k q = if k > last then q else go (k + 1) (Query.select ~id:k g pred q) in
  go 2 (Query.table ~id:1 g "t")

(* A table of 256 rows under 8 selections σ2..σ9, where row r fails σ(k+2)
   iff bit k of r is set, nested into one consistent group row: the group
   has all 256 subsets of {2..9} as alternatives.  The cap keeps ∅, the 8
   singletons, the 28 pairs and — by the set-order tie-break — the first
   27 of the 56 triples. *)
let test_cap_tie_break () =
  let n = 256 and sels = 8 in
  let g = Query.Gen.create () in
  let q =
    Query.nest_rel ~id:(sels + 2) g [ "name" ] ~into:"g"
      (select_chain g ~last:(sels + 1))
  in
  let table = op_trace ~q ~id:1 ~rid0:0 ~n Whynot.Tracing.P_none in
  let selects =
    List.init sels (fun k ->
        op_trace ~q ~id:(k + 2) ~rid0:((k + 1) * n) ~n
          ~retained:(fun r -> r land (1 lsl k) = 0)
          (Whynot.Tracing.P_self (k * n)))
  in
  let group =
    op_trace ~q ~id:(sels + 2) ~rid0:((sels + 1) * n) ~n:1
      (Whynot.Tracing.P_many ([| 0; n |], Array.init n (fun r -> (sels * n) + r)))
  in
  let tr = hand_trace q ((table :: selects) @ [ group ]) in
  let root = (sels + 1) * n in
  let truncations = Obs.Metrics.counter "whynot.msr.cap_truncations" in
  let before = Obs.Metrics.Counter.value truncations in
  let got = Whynot.Msr.failure_sets tr root in
  Alcotest.(check bool) "the cap drop is counted" true
    (Obs.Metrics.Counter.value truncations > before);
  Alcotest.(check int) "capped to max_alternatives" Whynot.Msr.max_alternatives
    (Set_set.cardinal got);
  Alcotest.(check (list (list int))) "same sets as the reference"
    (sets_to_lists (reference_failure_sets tr root)) (sets_to_lists got);
  let has l = Set_set.mem (Int_set.of_list l) got in
  Alcotest.(check bool) "no 4-sets" false
    (Set_set.exists (fun s -> Int_set.cardinal s > 3) got);
  Alcotest.(check bool) "27th triple kept" true (has [ 3; 5; 6 ]);
  Alcotest.(check bool) "28th triple dropped" false (has [ 3; 5; 7 ])

(* A 63-σ chain overflows the bitmask when every σ drops its row; σs
   that retain every row get no bit and do not count. *)
let test_too_many_operators () =
  let n_sel = Whynot.Msr.max_operators + 1 in
  let q = select_chain (Query.Gen.create ()) ~last:(n_sel + 1) in
  let trace ~drops =
    hand_trace q
      (op_trace ~q ~id:1 ~rid0:0 ~n:1 Whynot.Tracing.P_none
      :: List.init n_sel (fun k ->
             op_trace ~q ~id:(k + 2) ~rid0:(k + 1) ~n:1
               ~retained:(fun _ -> not drops) (Whynot.Tracing.P_self k)))
  in
  let bi = { Whynot.Msr.original_result = [] } in
  Alcotest.(check int) "an all-retaining chain has nothing to explain" 0
    (List.length (Whynot.Msr.from_trace ~bi ~q (trace ~drops:false)));
  match Whynot.Msr.from_trace ~bi ~q (trace ~drops:true) with
  | _ -> Alcotest.fail "expected Too_many_operators"
  | exception Whynot.Msr.Too_many_operators k ->
    Alcotest.(check int) "operator count" n_sel k

(* --- Random hand-built traces -------------------------------------------- *)

(* The shape of a random trace: table accesses, σ, inner flattens (one
   parent per row), Nᴿ over a number of groups and δ (members as
   offset-encoded parents), two-parent joins and ∪ (one parent per row). *)
type shape =
  | Tab of int
  | Sel of shape
  | Flat of shape
  | Grp of int * shape
  | Dist of shape
  | Join of shape * shape
  | Uni of shape * shape

let rec pp_shape ppf = function
  | Tab n -> Fmt.pf ppf "t[%d]" n
  | Sel c -> Fmt.pf ppf "σ(%a)" pp_shape c
  | Flat c -> Fmt.pf ppf "F(%a)" pp_shape c
  | Grp (k, c) -> Fmt.pf ppf "N%d(%a)" k pp_shape c
  | Dist c -> Fmt.pf ppf "δ(%a)" pp_shape c
  | Join (l, r) -> Fmt.pf ppf "⋈(%a, %a)" pp_shape l pp_shape r
  | Uni (l, r) -> Fmt.pf ppf "∪(%a, %a)" pp_shape l pp_shape r

let rec sels k c = if k = 0 then c else Sel (sels (k - 1) c)

(* Mostly small trees of every operator.  One case in eight is wide:
   9 σs over up to 200 rows in one or two groups (a member union of more
   than 64 masks), a join of two 4-σ groups (a cross product of up to 256
   masks), or the 9 σs alone (root rows with many distinct families). *)
let gen_shape =
  QCheck.Gen.(
    let wide =
      oneof
        [
          map2 (fun n k -> Grp (k, sels 9 (Tab n))) (int_range 130 200) (int_range 1 2);
          map
            (fun n -> Join (Grp (1, sels 4 (Tab n)), Grp (1, sels 4 (Tab n))))
            (int_range 30 60);
          map (fun n -> sels 9 (Tab n)) (int_range 130 200);
        ]
    in
    let small =
      sized_size (int_bound 5)
      @@ fix (fun self d ->
             let tab = map (fun n -> Tab n) (int_range 1 12) in
             if d = 0 then tab
             else
               frequency
                 [
                   (1, tab);
                   (4, map (fun c -> Sel c) (self (d - 1)));
                   (2, map (fun c -> Flat c) (self (d - 1)));
                   (3, map2 (fun k c -> Grp (k, c)) (int_range 1 3) (self (d - 1)));
                   (1, map (fun c -> Dist c) (self (d - 1)));
                   (2, map2 (fun l r -> Join (l, r)) (self (d / 2)) (self (d / 2)));
                   (1, map2 (fun l r -> Uni (l, r)) (self (d / 2)) (self (d / 2)));
                 ])
    in
    frequency [ (1, wide); (7, small) ])

(* Offset-encoded parents from per-row parent lists. *)
let many (ps : int list array) =
  let off = Array.make (Array.length ps + 1) 0 in
  Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) ps;
  Whynot.Tracing.P_many (off, Array.of_list (List.concat (Array.to_list ps)))

(* The query and trace of [shape], with rows and flags drawn from [seed]:
   σ, Fᴵ, Nᴿ and ⋈ fail to retain a row with probability 1/3, δ and ∪
   (parameter-free) with probability 1/6; half the rows are consistent
   and half survive.  A group's members are drawn at random, so their
   families interleave. *)
let random_trace (shape, seed) =
  let rs = Random.State.make [| seed |] in
  let g = Query.Gen.create () in
  let coin k = Random.State.int rs k = 0 in
  let next_id = ref 0 and next_rid = ref 0 and ops = ref [] in
  let emit make ~n ?(keep = fun () -> not (coin 3)) parents =
    incr next_id;
    let q = make !next_id in
    let rid0 = !next_rid in
    let draw f = Array.get (Array.init n (fun _ -> f ())) in
    ops :=
      op_trace ~q ~id:!next_id ~rid0 ~n ~retained:(draw keep)
        ~consistent:(draw (fun () -> coin 2))
        ~surviving:(draw (fun () -> coin 2))
        parents
      :: !ops;
    next_rid := rid0 + n;
    (q, n, rid0)
  in
  let pred = Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019) in
  let groups (_, cn, c0) k =
    let members = Array.make k [] in
    for r = cn - 1 downto 0 do
      let j = Random.State.int rs k in
      members.(j) <- (c0 + r) :: members.(j)
    done;
    many members
  in
  let rec go = function
    | Tab n -> emit (fun id -> Query.table ~id g "t") ~n ~keep:(fun () -> true) Whynot.Tracing.P_none
    | Sel c ->
      let ((cq, cn, c0) : Query.t * int * int) = go c in
      emit (fun id -> Query.select ~id g pred cq) ~n:cn (Whynot.Tracing.P_self c0)
    | Flat c ->
      let cq, cn, c0 = go c in
      let ps =
        List.concat (List.init cn (fun r -> List.init (Random.State.int rs 3) (fun _ -> c0 + r)))
      in
      emit
        (fun id -> Query.flatten_inner ~id g "b" cq)
        ~n:(List.length ps) (Whynot.Tracing.P_one (Array.of_list ps))
    | Grp (k, c) ->
      let ((cq, _, _) as child) = go c in
      emit (fun id -> Query.nest_rel ~id g [ "name" ] ~into:"g" cq) ~n:k (groups child k)
    | Dist c ->
      let ((cq, _, _) as child) = go c in
      let k = 1 + Random.State.int rs 3 in
      emit (fun id -> Query.dedup ~id g cq) ~n:k ~keep:(fun () -> not (coin 6))
        (groups child k)
    | Join (l, r) ->
      let lq, ln, l0 = go l in
      let rq, rn, r0 = go r in
      let n = if ln * rn = 0 then 0 else 1 + Random.State.int rs (min (ln * rn) 20) in
      emit
        (fun id -> Query.join ~id g Query.Inner pred lq rq)
        ~n
        (many
           (Array.init n (fun _ ->
                [ l0 + Random.State.int rs ln; r0 + Random.State.int rs rn ])))
    | Uni (l, r) ->
      let lq, ln, l0 = go l in
      let rq, rn, r0 = go r in
      emit (fun id -> Query.union ~id g lq rq) ~n:(ln + rn) ~keep:(fun () -> not (coin 6))
        (Whynot.Tracing.P_one
           (Array.init (ln + rn) (fun i -> if i < ln then l0 + i else r0 + i - ln)))
  in
  let q, _, _ = go shape in
  (q, hand_trace q (List.rev !ops))

let capped_cases = ref 0

(* On a random trace: the decoded family of every root row and ancestor,
   the cap truncations [Msr.failure_sets] counts (the reference counts
   its own, each row's family computed once), and [from_trace]'s
   candidate sets and UBs at strides 1 and 3. *)
let prop_random_traces =
  QCheck.Test.make ~count:300 ~name:"random traces match the reference"
    QCheck.(
      make
        ~print:(fun (s, seed) -> Fmt.str "%a seed %d" pp_shape s seed)
        Gen.(pair gen_shape int))
    (fun input ->
      let q, tr = random_trace input in
      let truncations = Obs.Metrics.counter "whynot.msr.cap_truncations" in
      let before = Obs.Metrics.Counter.value truncations in
      let got = Whynot.Msr.failure_sets tr in
      let counted = Obs.Metrics.Counter.value truncations - before in
      let expected = reference_failure_sets tr in
      reference_drops := 0;
      let rids =
        ancestor_closure tr (List.map (fun (_, _, rid) -> rid) (root_rids tr))
      in
      Hashtbl.iter (fun rid () -> check_families ~label:"random" expected got rid) rids;
      Alcotest.(check int) "cap truncations" !reference_drops counted;
      if counted > 0 then incr capped_cases;
      List.iter
        (fun stride -> ignore (check_from_trace ~label:"random" ~stride ~q tr))
        [ 1; 3 ];
      true)

let test_random_traces () =
  capped_cases := 0;
  QCheck.Test.check_exn prop_random_traces;
  Alcotest.(check bool) "some families exceeded the cap" true (!capped_cases > 0)

(* Families are int codes kept in a per-domain scratch: on a 120k-row
   trace — a table, three σs and an inner flatten, every root row
   consistent and none surviving — a second [Msr.explain] allocates a
   bounded number of words, minor and major heap together, far below
   one per row.  A per-row array or list, or a per-call [state] or
   [codes] vector, would exceed the bound. *)
let test_no_per_row_allocation () =
  let n = 20_000 in
  let g = Query.Gen.create () in
  let q = Query.flatten_inner ~id:5 g "b" (select_chain g ~last:4) in
  let table = op_trace ~q ~id:1 ~rid0:0 ~n Whynot.Tracing.P_none in
  let selects =
    List.init 3 (fun k ->
        op_trace ~q ~id:(k + 2) ~rid0:((k + 1) * n) ~n
          ~retained:(fun r -> r land (1 lsl k) = 0)
          (Whynot.Tracing.P_self (k * n)))
  in
  let flatten =
    op_trace ~q ~id:5 ~rid0:(4 * n) ~n:(2 * n)
      ~retained:(fun r -> r mod 5 <> 0)
      (Whynot.Tracing.P_one (Array.init (2 * n) (fun r -> (3 * n) + (r / 2))))
  in
  let tr = hand_trace q ((table :: selects) @ [ flatten ]) in
  let rows = 6 * n in
  let matches = matches_of Engine.Columnar.empty tr in
  let first, _, _ = Whynot.Msr.explain ~matches ~q tr in
  (* [quick_stat]'s minor count lags until the next minor collection;
     [Gc.minor_words] does not.  Words allocated directly in the major
     heap are its major words less the promoted ones. *)
  let allocated () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = allocated () in
  let es, _, _ = Whynot.Msr.explain ~matches ~q tr in
  let words = allocated () -. before in
  Alcotest.(check int) "every non-empty set of the 4 bits explains" 15 (List.length es);
  Alcotest.(check (list (pair (list int) (pair int int))))
    "the second explain answers as the first" (bounds_of first) (bounds_of es);
  Alcotest.(check bool)
    (Fmt.str "%.0f words for %d rows stay under %d" words rows (rows / 8))
    true
    (words < float_of_int (rows / 8))

(* --- Scratch reuse --------------------------------------------------------- *)

let total_rids (tr : Whynot.Tracing.t) =
  List.fold_left
    (fun acc ot -> max acc (Whynot.Tracing.rid0 ot + Whynot.Tracing.n_rows ot))
    0 tr.Whynot.Tracing.ops

(* Everything [Msr] answers on a hand-built trace, against the
   references: the family of every root row and ancestor, and
   [Invalid_argument] for every other rid of the trace; at strides 1 and
   3, [explain]'s candidate sets and UBs, its terms, and its span's
   [family_rows] (the owned rows among the ancestors of the root rows it
   reads).  Checks through [Alcotest], so a failure names the rid or
   stride. *)
let check_against_reference ~label q tr =
  let fs = Whynot.Msr.failure_sets tr and expected = reference_failure_sets tr in
  let rows = root_rids tr in
  let closure = ancestor_closure tr (List.map (fun (_, _, rid) -> rid) rows) in
  for rid = 0 to total_rids tr - 1 do
    if Hashtbl.mem closure rid then check_families ~label expected fs rid
    else
      match fs rid with
      | _ -> Alcotest.failf "%s rid %d: not an ancestor, must raise" label rid
      | exception Invalid_argument _ -> ()
  done;
  let owner = rid_owners tr in
  List.iter
    (fun stride ->
      let l = Fmt.str "%s stride %d" label stride in
      let sp = Obs.Span.start "msr" in
      let es, _, terms =
        Whynot.Msr.explain ~span:sp ~sample_stride:stride
          ~matches:(matches_of Engine.Columnar.empty tr) ~q tr
      in
      Obs.Span.finish sp;
      Alcotest.(check (list (pair (list int) int)))
        (l ^ " explanations") (reference_from_trace ~stride tr)
        (List.sort compare
           (List.map
              (fun (e : Whynot.Explanation.t) ->
                (Whynot.Explanation.op_list e, e.side_effect_ub))
              es));
      Alcotest.(check (list int)) (l ^ " terms")
        (terms_list (reference_terms ~stride ~original:[] tr))
        (terms_list terms);
      let read =
        List.filter_map
          (fun (ot, i, rid) ->
            if
              Whynot.Tracing.consistent_at ot i
              || (rid mod stride = 0 && not (Whynot.Tracing.surviving_at ot i))
            then Some rid
            else None)
          rows
      in
      let owned =
        Hashtbl.fold
          (fun rid () acc ->
            if rid >= 0 && rid < Array.length owner && Option.is_some owner.(rid)
            then acc + 1
            else acc)
          (ancestor_closure tr read) 0
      in
      Alcotest.(check (option int)) (l ^ " family_rows") (Some owned)
        (match Obs.Span.attr sp "family_rows" with
        | Some (Obs.Span.Int k) -> Some k
        | _ -> None))
    [ 1; 3 ]

(* Two random traces on one domain, the larger explained first, then the
   smaller, then the larger again: every call answers as the reference,
   so no call reads what the one before left in the scratch.  A
   [failure_sets] closure taken on the first call still answers the same
   after the two later ones overwrote the scratch. *)
let prop_scratch_reuse =
  let input =
    QCheck.(
      make
        ~print:(fun (s, seed) -> Fmt.str "%a seed %d" pp_shape s seed)
        Gen.(pair gen_shape int))
  in
  QCheck.Test.make ~count:150 ~name:"large, small, large on one domain"
    (QCheck.pair input input)
    (fun (a, b) ->
      let ((_, ta) as a) = random_trace a and ((_, tb) as b) = random_trace b in
      let (qb, big), (qs, small) =
        if total_rids ta >= total_rids tb then (a, b) else (b, a)
      in
      let kept = Whynot.Msr.failure_sets big in
      let closure =
        ancestor_closure big (List.map (fun (_, _, rid) -> rid) (root_rids big))
      in
      let before = Hashtbl.fold (fun rid () acc -> (rid, kept rid) :: acc) closure [] in
      check_against_reference ~label:"large" qb big;
      check_against_reference ~label:"small" qs small;
      check_against_reference ~label:"large again" qb big;
      List.iter
        (fun (rid, sets) ->
          Alcotest.(check (list (list int)))
            (Fmt.str "kept closure rid %d" rid)
            (sets_to_lists sets) (sets_to_lists (kept rid)))
        before;
      true)

let test_scratch_reuse () = QCheck.Test.check_exn prop_scratch_reuse

(* A [failure_sets] closure answers from its own copy: after an explain
   and a [failure_sets] call on another trace over the same rids, whose
   families differ, it still answers as the reference. *)
let test_failure_sets_outlive_calls () =
  let wide seed = random_trace (Grp (2, sels 9 (Tab 160)), seed) in
  let _, a = wide 1 and qb, b = wide 2 in
  let kept = Whynot.Msr.failure_sets a and expected = reference_failure_sets a in
  let rids = List.init (total_rids a) Fun.id in
  let reference_b = reference_failure_sets b in
  Alcotest.(check bool) "the two traces' families differ" true
    (List.exists
       (fun rid -> not (Set_set.equal (expected rid) (reference_b rid)))
       rids);
  ignore (Whynot.Msr.explain ~matches:(matches_of Engine.Columnar.empty b) ~q:qb b);
  ignore (Whynot.Msr.failure_sets b 0);
  List.iter (check_families ~label:"kept closure" expected kept) rids

(* [whynot.msr.scratch_bytes] counts the bytes the scratches were grown
   to: the first explain on a fresh domain grows that domain's scratch,
   and a second explain of the same trace there finds it large enough.
   The domain's bytes stay counted once it exits, as msr.mli says. *)
let test_scratch_gauge () =
  let gauge = Obs.Metrics.gauge "whynot.msr.scratch_bytes" in
  let q, tr = random_trace (Grp (2, sels 9 (Tab 160)), 1) in
  let matches = matches_of Engine.Columnar.empty tr in
  let grown, after_first, regrown =
    Domain.join
      (Domain.spawn (fun () ->
           let g0 = Obs.Metrics.Gauge.value gauge in
           ignore (Whynot.Msr.explain ~matches ~q tr);
           let g1 = Obs.Metrics.Gauge.value gauge in
           ignore (Whynot.Msr.explain ~matches ~q tr);
           (g1 -. g0, g1, Obs.Metrics.Gauge.value gauge -. g1)))
  in
  Alcotest.(check bool) "the first explain grows the scratch" true (grown > 0.);
  Alcotest.(check bool) "the gauge is positive" true (after_first > 0.);
  Alcotest.(check (float 0.)) "the second explain leaves it" 0. regrown

(* A call that raises leaves the scratch usable: after
   [Too_many_operators] (raised before the passes) and after a fault
   raised inside the mark pass, once it has marked rows — a root σ at
   rids [0, n) whose parent vector is too short — the next call on the
   domain answers as the reference. *)
let test_raise_then_correct () =
  let n_sel = Whynot.Msr.max_operators + 1 in
  let chain = select_chain (Query.Gen.create ()) ~last:(n_sel + 1) in
  let too_many =
    hand_trace chain
      (op_trace ~q:chain ~id:1 ~rid0:0 ~n:1 Whynot.Tracing.P_none
      :: List.init n_sel (fun k ->
             op_trace ~q:chain ~id:(k + 2) ~rid0:(k + 1) ~n:1
               ~retained:(fun _ -> false) (Whynot.Tracing.P_self k)))
  in
  let faulty n =
    let g = Query.Gen.create () in
    let q = select_chain g ~last:2 in
    hand_trace q
      [
        op_trace ~q ~id:1 ~rid0:n ~n Whynot.Tracing.P_none;
        op_trace ~q ~id:2 ~rid0:0 ~n (Whynot.Tracing.P_one [| n |]);
      ]
  in
  List.iter
    (fun seed ->
      let q, tr = random_trace (Join (Grp (2, sels 3 (Tab 40)), sels 2 (Tab 30)), seed) in
      (match ignore (Whynot.Msr.failure_sets too_many : int -> Set_set.t) with
      | _ -> Alcotest.fail "expected Too_many_operators"
      | exception Whynot.Msr.Too_many_operators _ -> ());
      check_against_reference ~label:"after Too_many_operators" q tr;
      (match ignore (Whynot.Msr.failure_sets (faulty (total_rids tr)) : int -> Set_set.t) with
      | _ -> Alcotest.fail "expected the short parent vector to raise"
      | exception Invalid_argument _ -> ());
      check_against_reference ~label:"after a fault" q tr)
    [ 1; 2; 3 ]

(* A surviving root row matches a row of ⟦Q⟧_D exactly when the two are
   [Value.equal]: [-0.0] matches [0.0] and a NaN computed at run time
   matches [nan], though their bits differ, because [eqclasses] puts
   equal values in one class. *)
let test_float_matches () =
  let z = Sys.opaque_identity 0.0 in
  let row f = Value.Tuple [ ("x", Value.Float f) ] in
  let schema = Vtype.relation [ ("x", Vtype.TFloat) ] in
  let db =
    Relation.Db.of_list
      [ ("f", Relation.of_tuples ~schema [ row (-0.0); row (z /. z); row 2.0 ]) ]
  in
  let env = [ ("f", schema) ] in
  let g = Query.Gen.create () in
  let q =
    Query.select ~id:2 g
      (Expr.Cmp (Expr.Neq, Expr.attr "x", Expr.flt 7.0))
      (Query.table ~id:1 g "f")
  in
  let sa =
    { Whynot.Alternatives.index = 0; query = q; changed_ops = Int_set.empty; description = "original" }
  in
  let bt = Whynot.Backtrace.run ~env q (Nip.tup [ ("x", Nip.flt 7.0) ]) in
  let tr = Whynot.Tracing.run ~env db sa bt in
  let matches =
    matches_of (Engine.Columnar.of_rows [ row 0.0; row nan; row 2.0 ]) tr
  in
  let _, _, terms = Whynot.Msr.explain ~matches ~q tr in
  Alcotest.(check (list int)) "every surviving row matches" [ 3; 3; 3; 0 ] (terms_list terms)

let () =
  Alcotest.run "msr"
    [
      ( "failure-sets",
        [
          Alcotest.test_case "running example" `Quick test_failure_sets_running_example;
          Alcotest.test_case "contributing closure" `Quick test_contributing_closure;
        ] );
      ( "algorithm-4",
        [
          Alcotest.test_case "superset of failure sets" `Quick
            test_algorithm4_superset_of_failure_sets;
          Alcotest.test_case "never blames tables" `Quick
            test_algorithm4_never_blames_tables;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "side-effect bounds" `Quick test_bounds;
          Alcotest.test_case "from_trace" `Quick test_from_trace_explanations;
          Alcotest.test_case "registry matches the Value sweep" `Quick
            test_bounds_differential;
          Alcotest.test_case "signed zeros and NaNs match" `Quick test_float_matches;
        ] );
      ( "bitmask",
        [
          Alcotest.test_case "registry matches the reference" `Quick
            test_differential_registry;
          QCheck_alcotest.to_alcotest prop_compare_mask;
          Alcotest.test_case "cap tie-break" `Quick test_cap_tie_break;
          Alcotest.test_case "too many operators" `Quick test_too_many_operators;
          Alcotest.test_case "random traces" `Quick test_random_traces;
          Alcotest.test_case "no per-row allocation" `Quick test_no_per_row_allocation;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "large, small, large on one domain" `Quick
            test_scratch_reuse;
          Alcotest.test_case "failure_sets outlive later calls" `Quick
            test_failure_sets_outlive_calls;
          Alcotest.test_case "a raise leaves the scratch usable" `Quick
            test_raise_then_correct;
          Alcotest.test_case "the scratch gauge" `Quick test_scratch_gauge;
        ] );
    ]
