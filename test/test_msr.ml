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

let cap_sets (sets : Set_set.t) : Set_set.t =
  if Set_set.cardinal sets <= Whynot.Msr.max_alternatives then sets
  else
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

(* The rows (by rid) that contribute to a consistent root row — the "lineage
   of a consistent output tuple" of Algorithm 4, computed as the ancestor
   closure over parent edges. *)
let contributing (tr : Whynot.Tracing.t) : (int, unit) Hashtbl.t =
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
  List.iter mark (Whynot.Msr.consistent_root_rids tr);
  marked

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
  let table_rows =
    match Whynot.Tracing.op_trace tr 1 with
    | Some ot -> Whynot.Tracing.rows ot
    | None -> []
  in
  let contributing_names =
    List.filter_map
      (fun (r : Whynot.Tracing.trow) ->
        if Hashtbl.mem contrib r.Whynot.Tracing.rid then
          Value.field "name" r.Whynot.Tracing.data
        else None)
      table_rows
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
  let env =
    List.map (fun (n, r) -> (n, Relation.schema r)) (Relation.Db.tables db)
  in
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

(* Every root row of every SA of every registry scenario at scale 2, for
   strides 1 and 3: the decoded families, and the candidate sets and
   stride-sampled UBs of [from_trace], which marks only the root rows it
   reads at that stride. *)
let test_differential_registry () =
  let checked = ref 0 and nonempty = ref 0 and explained = ref 0 in
  let bi = { Whynot.Msr.original_result = [] } in
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
              let expected = reference_from_trace ~stride tr in
              explained := !explained + List.length expected;
              Alcotest.(check (list (pair (list int) int)))
                (label ^ " from_trace") expected
                (List.sort compare
                   (List.map
                      (fun (e : Whynot.Explanation.t) ->
                        (Whynot.Explanation.op_list e, e.side_effect_ub))
                      (Whynot.Msr.from_trace ~sample_stride:stride ~bi ~q tr))))
            [ 1; 3 ])
        sas)
    Scenarios.Registry.all;
  Alcotest.(check bool) "root rows with failure sets were compared" true
    (!checked > 0 && !nonempty > 0 && !explained > 0)

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

let op_trace ~q ~id ~rid0 ~n ?(retained = fun _ -> true) parents =
  let op_node =
    match Query.find_op q id with
    | Some op -> op.Query.node
    | None -> Alcotest.failf "no operator %d" id
  in
  {
    Whynot.Tracing.op_id = id;
    op_node;
    nip = Nip.any;
    ann =
      {
        Whynot.Tracing.v_n = n;
        v_rid0 = rid0;
        v_consistent = flags n (fun _ -> true);
        v_retained = flags n retained;
        v_surviving = flags n (fun _ -> false);
        v_parents = parents;
        v_ranges = None;
      };
    rows = lazy [];
    data_at = (fun _ -> Value.Null);
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
        ] );
      ( "bitmask",
        [
          Alcotest.test_case "registry matches the reference" `Quick
            test_differential_registry;
          QCheck_alcotest.to_alcotest prop_compare_mask;
          Alcotest.test_case "cap tie-break" `Quick test_cap_tie_break;
          Alcotest.test_case "too many operators" `Quick test_too_many_operators;
        ] );
    ]
