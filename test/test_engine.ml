(* The mini-DISC engine must agree with the reference evaluator on every
   operator, for several partition counts, including randomized data. *)

open Nested
open Nrab

let v_int i = Value.Int i
let v_str s = Value.String s
let tup = Value.tuple

let mk_db ~seed ~rows =
  let g = Datagen.Prng.create ~seed in
  let r_schema =
    Vtype.relation
      [
        ("a", Vtype.TInt);
        ("b", Vtype.TString);
        ("kids", Vtype.relation [ ("k", Vtype.TInt) ]);
      ]
  in
  let s_schema = Vtype.relation [ ("c", Vtype.TInt); ("d", Vtype.TString) ] in
  let r_rows =
    List.init rows (fun _ ->
        tup
          [
            ("a", v_int (Datagen.Prng.int g 5));
            ("b", v_str (Datagen.Prng.pick g [ "x"; "y"; "z" ]));
            ( "kids",
              Value.bag_of_list
                (List.init (Datagen.Prng.int g 3) (fun _ ->
                     tup [ ("k", v_int (Datagen.Prng.int g 4)) ])) );
          ])
  in
  let s_rows =
    List.init rows (fun _ ->
        tup
          [
            ("c", v_int (Datagen.Prng.int g 5));
            ("d", v_str (Datagen.Prng.pick g [ "u"; "v" ]));
          ])
  in
  (* [t] feeds the nesting and tuple-flatten cases: [q] is a nullable
     tuple with string, int, nested-tuple and bag fields, [z] a tuple
     column that is always Null, [nv] a nullable int and [bs] a bag. *)
  let kids_ty = Vtype.relation [ ("k", Vtype.TInt) ] in
  let q_ty =
    Vtype.TTuple
      [
        ("qs", Vtype.TString);
        ("qi", Vtype.TInt);
        ("qt", Vtype.TTuple [ ("x", Vtype.TInt) ]);
        ("qk", kids_ty);
      ]
  in
  let t_schema =
    Vtype.relation
      [
        ("g", Vtype.TInt);
        ("s", Vtype.TString);
        ("nv", Vtype.TInt);
        ("bs", kids_ty);
        ("q", q_ty);
        ("z", Vtype.TTuple [ ("zx", Vtype.TInt) ]);
      ]
  in
  let kids () =
    Value.bag_of_list
      (List.init (Datagen.Prng.int g 3) (fun _ ->
           tup [ ("k", v_int (Datagen.Prng.int g 3)) ]))
  in
  let t_rows =
    List.init rows (fun _ ->
        let nullable v = if Datagen.Prng.int g 3 = 0 then Value.Null else v in
        tup
          [
            ("g", v_int (Datagen.Prng.int g 3));
            ("s", v_str (Datagen.Prng.pick g [ "p"; "o"; "n" ]));
            ("nv", nullable (v_int (Datagen.Prng.int g 2)));
            ("bs", kids ());
            ( "q",
              nullable
                (tup
                   [
                     ("qs", v_str (Datagen.Prng.pick g [ "m"; "l" ]));
                     ("qi", v_int (Datagen.Prng.int g 4));
                     ("qt", tup [ ("x", v_int (Datagen.Prng.int g 2)) ]);
                     ("qk", kids ());
                   ]) );
            ("z", Value.Null);
          ])
  in
  Relation.Db.of_list
    [
      ("r", Relation.of_tuples ~schema:r_schema r_rows);
      ("s", Relation.of_tuples ~schema:s_schema s_rows);
      ("t", Relation.of_tuples ~schema:t_schema t_rows);
    ]

(* A zoo of queries covering every operator kind. *)
let queries () =
  let q name build = (name, build (Query.Gen.create ())) in
  let a_eq_c = Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.attr "c") in
  [
    q "select" (fun g ->
        Query.select g (Expr.Cmp (Expr.Gt, Expr.attr "a", Expr.int 2)) (Query.table g "r"));
    q "project" (fun g -> Query.project_attrs g [ "a" ] (Query.table g "r"));
    q "computed projection" (fun g ->
        Query.project g [ ("a2", Expr.(Mul (attr "a", attr "a"))) ] (Query.table g "r"));
    q "rename" (fun g -> Query.rename g [ ("alpha", "a") ] (Query.table g "r"));
    q "inner join" (fun g ->
        Query.join g Query.Inner a_eq_c (Query.table g "r") (Query.table g "s"));
    q "left join" (fun g ->
        Query.join g Query.Left a_eq_c (Query.table g "r") (Query.table g "s"));
    q "right join" (fun g ->
        Query.join g Query.Right a_eq_c (Query.table g "r") (Query.table g "s"));
    q "full join" (fun g ->
        Query.join g Query.Full a_eq_c (Query.table g "r") (Query.table g "s"));
    q "theta join" (fun g ->
        Query.join g Query.Inner
          (Expr.Cmp (Expr.Lt, Expr.attr "a", Expr.attr "c"))
          (Query.table g "r") (Query.table g "s"));
    (* equi-key plus residual conjunct: exercises the hash-join kernel's
       residual predicate on every join kind *)
    q "residual inner join" (fun g ->
        Query.join g Query.Inner
          (Expr.And (a_eq_c, Expr.Cmp (Expr.Neq, Expr.attr "b", Expr.str "x")))
          (Query.table g "r") (Query.table g "s"));
    q "residual left join" (fun g ->
        Query.join g Query.Left
          (Expr.And (a_eq_c, Expr.Cmp (Expr.Eq, Expr.attr "d", Expr.str "u")))
          (Query.table g "r") (Query.table g "s"));
    q "residual right join" (fun g ->
        Query.join g Query.Right
          (Expr.And (a_eq_c, Expr.Cmp (Expr.Gt, Expr.attr "a", Expr.int 1)))
          (Query.table g "r") (Query.table g "s"));
    q "residual full join" (fun g ->
        Query.join g Query.Full
          (Expr.And
             ( a_eq_c,
               Expr.Or
                 ( Expr.Cmp (Expr.Eq, Expr.attr "b", Expr.str "y"),
                   Expr.Cmp (Expr.Eq, Expr.attr "d", Expr.str "v") ) ))
          (Query.table g "r") (Query.table g "s"));
    (* two equi-key pairs; b and d have disjoint domains, so no pair
       matches and every row of both sides must come back padded *)
    q "multi-key full join" (fun g ->
        Query.join g Query.Full
          (Expr.And
             (a_eq_c, Expr.Cmp (Expr.Eq, Expr.attr "b", Expr.attr "d")))
          (Query.table g "r") (Query.table g "s"));
    (* the left join pads unmatched rows with Null c; those rows must
       not hash-match anything downstream (Null = Null is not true) *)
    q "null-key join" (fun g ->
        Query.join g Query.Inner
          (Expr.Cmp (Expr.Eq, Expr.attr "c", Expr.attr "k2"))
          (Query.join g Query.Left a_eq_c (Query.table g "r") (Query.table g "s"))
          (Query.rename g
             [ ("k2", "c") ]
             (Query.project_attrs g [ "c" ] (Query.table g "s"))));
    q "union" (fun g -> Query.union g (Query.table g "r") (Query.table g "r"));
    q "diff" (fun g ->
        Query.diff g (Query.table g "r")
          (Query.select g (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.int 0)) (Query.table g "r")));
    q "dedup" (fun g -> Query.dedup g (Query.project_attrs g [ "b" ] (Query.table g "r")));
    q "inner flatten" (fun g -> Query.flatten_inner g "kids" (Query.table g "r"));
    q "outer flatten" (fun g -> Query.flatten_outer g "kids" (Query.table g "r"));
    q "nest" (fun g ->
        Query.nest_rel g [ "a" ] ~into:"as_"
          (Query.project_attrs g [ "a"; "b" ] (Query.table g "r")));
    q "nest tuple" (fun g ->
        Query.nest_tuple g [ "a"; "b" ] ~into:"ab"
          (Query.project_attrs g [ "a"; "b" ] (Query.table g "r")));
    q "agg tuple" (fun g ->
        Query.agg_tuple g Agg.Count ~over:"kids" ~into:"cnt" (Query.table g "r"));
    q "group agg" (fun g ->
        Query.group_agg g [ "b" ]
          [ (Agg.Sum, Some "a", "total"); (Agg.Count, None, "n") ]
          (Query.table g "r"));
    q "pipeline" (fun g ->
        Query.group_agg g [ "b" ]
          [ (Agg.Count, None, "n") ]
          (Query.select g
             (Expr.Cmp (Expr.Ge, Expr.attr "k", Expr.int 1))
             (Query.flatten_inner g "kids" (Query.table g "r"))));
    (* relation nesting whose member projections repeat, arrive unsorted,
       hold Null or are bags: the canonical bag builder must merge and
       order them exactly like [Value.bag_of_list] *)
    q "nest duplicated and null members" (fun g ->
        Query.nest_rel g [ "nv"; "s" ] ~into:"m"
          (Query.project_attrs g [ "g"; "s"; "nv" ] (Query.table g "t")));
    q "nest bag-valued members" (fun g ->
        Query.nest_rel g [ "bs"; "s" ] ~into:"m"
          (Query.project_attrs g [ "g"; "s"; "bs" ] (Query.table g "t")));
    q "nest everything" (fun g ->
        Query.nest_rel g [ "nv"; "bs" ] ~into:"m"
          (Query.project_attrs g [ "nv"; "bs" ] (Query.table g "t")));
    (* tuple flatten over a nullable tuple column: its presence goes into
       the string, int, nested-tuple and bag field columns *)
    q "nullable tuple flatten" (fun g -> Query.flatten_tuple g "q" (Query.table g "t"));
    q "nullable tuple flatten then nest" (fun g ->
        Query.nest_rel g [ "qt"; "qk" ] ~into:"m"
          (Query.project_attrs g [ "qs"; "qt"; "qk" ]
             (Query.flatten_tuple g "q" (Query.table g "t"))));
    (* columns that cannot carry presence: an all-Null tuple column and a
       constant one *)
    q "all-null tuple flatten" (fun g -> Query.flatten_tuple g "z" (Query.table g "t"));
    q "constant tuple flatten" (fun g ->
        Query.flatten_tuple g "c"
          (Query.project g
             [
               ("g", Expr.attr "g");
               ("c", Expr.Const (tup [ ("cx", v_int 1); ("cy", v_str "w") ]));
             ]
             (Query.table g "t")));
    q "join then nest" (fun g ->
        Query.nest_rel g [ "d" ] ~into:"ds"
          (Query.project_attrs g [ "a"; "d" ]
             (Query.join g Query.Left a_eq_c (Query.table g "r") (Query.table g "s"))));
  ]

let check_equivalence ~partitions ~seed () =
  let db = mk_db ~seed ~rows:25 in
  List.iter
    (fun (name, query) ->
      let expected = Eval.eval db query in
      let actual, _stats =
        Engine.Exec.run ~partitions db query
      in
      Alcotest.(check string)
        (Fmt.str "%s (partitions=%d)" name partitions)
        (Value.to_string (Relation.data expected))
        (Value.to_string (Relation.data actual)))
    (queries ())

(* Plans whose flattened rows keep their bag columns ([kids], and [q]'s
   nested [qk]) through shuffles and joins: the shuffled slices share or
   compact their element stores, and each partition stacks slices from
   every source.  [Exec.rows] must give [Eval]'s bag at 1 and at 4
   partitions. *)
let nested_plans () =
  let q name build = (name, build (Query.Gen.create ())) in
  let flat_r g = Query.flatten_inner g "kids" (Query.table g "r") in
  [
    q "flatten, select, aggregate" (fun g ->
        Query.group_agg g [ "b" ]
          [ (Agg.Sum, Some "k", "total"); (Agg.Avg, Some "a", "mean"); (Agg.Count, None, "n") ]
          (Query.select g (Expr.Cmp (Expr.Ge, Expr.attr "k", Expr.int 1)) (flat_r g)));
    q "aggregate keyed by a bag" (fun g ->
        Query.group_agg g [ "kids" ]
          [ (Agg.Max, Some "k", "top"); (Agg.Count, None, "n") ]
          (flat_r g));
    q "flatten then join" (fun g ->
        Query.join g Query.Inner
          (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.attr "c"))
          (flat_r g) (Query.table g "s"));
    q "flatten then left join" (fun g ->
        Query.join g Query.Left
          (Expr.Cmp (Expr.Eq, Expr.attr "k", Expr.attr "c"))
          (Query.flatten_outer g "bs" (Query.table g "t"))
          (Query.table g "s"));
    q "flatten then dedup" (fun g ->
        Query.dedup g (Query.project_attrs g [ "b"; "kids" ] (flat_r g)));
  ]

let check_nested ~partitions () =
  let db = mk_db ~seed:21 ~rows:60 in
  List.iter
    (fun (name, query) ->
      let expected = Relation.data (Eval.eval db query) in
      let rows, stats = Engine.Exec.rows ~partitions db query in
      Alcotest.(check string)
        (Fmt.str "%s (partitions=%d)" name partitions)
        (Value.to_string expected)
        (Value.to_string (Value.bag_of_list rows));
      if partitions > 1 then
        Alcotest.(check bool)
          (Fmt.str "%s shuffles" name)
          true
          (Engine.Stats.total_shuffled stats > 0))
    (nested_plans ())

let test_stats_recorded () =
  let db = mk_db ~seed:3 ~rows:30 in
  let g = Query.Gen.create () in
  let query =
    Query.group_agg g [ "b" ] [ (Agg.Count, None, "n") ] (Query.table g "r")
  in
  let _, stats = Engine.Exec.run db query in
  Alcotest.(check bool) "aggregation shuffles" true (Engine.Stats.total_shuffled stats >= 0);
  Alcotest.(check bool) "rows recorded" true (Engine.Stats.total_output stats > 0)

let test_distribute_gather () =
  let rows = List.init 17 (fun i -> v_int i) in
  let d = Engine.Dataset.distribute ~partitions:4 rows in
  Alcotest.(check int) "partitions" 4 (Array.length d);
  Alcotest.(check int) "cardinality preserved" 17 (Engine.Dataset.cardinal d);
  let gathered, moved = Engine.Dataset.gather d in
  Alcotest.(check int) "gather to one" 1 (Array.length gathered);
  Alcotest.(check int) "gather moves everything" 17 moved

let test_shuffle_colocates () =
  let rows = List.init 40 (fun i -> tup [ ("k", v_int (i mod 4)) ]) in
  let d = Engine.Dataset.distribute ~partitions:4 rows in
  let key t = Option.get (Value.field "k" t) in
  let shuffled, _ =
    Engine.Dataset.shuffle_hashed ~partitions:4
      (fun b ->
        Array.map
          (fun t -> Engine.Dataset.value_hash (key t))
          (Engine.Columnar.to_values b))
      d
  in
  (* all rows with the same key must be in the same partition *)
  let key_partition = Hashtbl.create 8 in
  Array.iteri
    (fun pi part ->
      List.iter
        (fun t ->
          let k = key t in
          match Hashtbl.find_opt key_partition k with
          | Some pj -> Alcotest.(check int) "key colocated" pj pi
          | None -> Hashtbl.replace key_partition k pi)
        (Engine.Columnar.to_rows part))
    shuffled;
  Alcotest.(check int) "every row shuffled" 40 (Engine.Dataset.cardinal shuffled)

(* --- shuffle placement: which operators of a run move rows --- *)

let op_stats stats label =
  match
    List.filter
      (fun o -> o.Engine.Stats.op_label = label)
      (Engine.Stats.ops stats)
  with
  | [ o ] -> o
  | _ -> Alcotest.fail (Fmt.str "expected one %s operator" label)

let test_plan_stages () =
  let db = mk_db ~seed:1 ~rows:5 in
  let g = Query.Gen.create () in
  (* σ is narrow; the equi-join and the group-by each shuffle *)
  let q =
    Query.group_agg g [ "b" ]
      [ (Agg.Count, None, "n") ]
      (Query.join g Query.Inner
         (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.attr "c"))
         (Query.select g Expr.True (Query.table g "r"))
         (Query.table g "s"))
  in
  let _, stats = Engine.Exec.run db q in
  Alcotest.(check int) "three stages (scan, join, aggregate)" 3
    (Engine.Stats.stages stats);
  let shuffled label = (op_stats stats label).Engine.Stats.shuffled_rows in
  Alcotest.(check int) "selection is narrow" 0
    (shuffled (Query.op_symbol (Query.Select Expr.True)));
  Alcotest.(check bool) "equi-join shuffles" true
    (shuffled (Query.op_symbol (Query.Join (Query.Inner, Expr.True))) > 0);
  Alcotest.(check bool) "group-agg shuffles" true
    (shuffled (Query.op_symbol (Query.Group_agg ([], []))) > 0)

let test_plan_gather_on_theta_join () =
  let db = mk_db ~seed:1 ~rows:5 in
  let g = Query.Gen.create () in
  let q =
    Query.join g Query.Inner
      (Expr.Cmp (Expr.Lt, Expr.attr "a", Expr.attr "c"))
      (Query.table g "r") (Query.table g "s")
  in
  let _, stats = Engine.Exec.run db q in
  (* a gather moves every input row, a hash shuffle only the rows whose
     key lands on another partition *)
  let join = op_stats stats (Query.op_symbol q.Query.node) in
  Alcotest.(check int) "theta join gathers" join.Engine.Stats.input_rows
    join.Engine.Stats.shuffled_rows

let test_plan_narrow_pipeline () =
  let db = mk_db ~seed:1 ~rows:5 in
  let g = Query.Gen.create () in
  let q =
    Query.project_attrs g [ "a" ]
      (Query.select g Expr.True
         (Query.flatten_inner g "kids" (Query.table g "r")))
  in
  let _, stats = Engine.Exec.run db q in
  Alcotest.(check int) "single stage" 1 (Engine.Stats.stages stats);
  Alcotest.(check int) "nothing shuffled" 0 (Engine.Stats.total_shuffled stats)

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "1 partition" `Quick (check_equivalence ~partitions:1 ~seed:11);
          Alcotest.test_case "4 partitions" `Quick (check_equivalence ~partitions:4 ~seed:12);
          Alcotest.test_case "7 partitions" `Quick (check_equivalence ~partitions:7 ~seed:13);
        ] );
      ( "nested",
        [
          Alcotest.test_case "1 partition" `Quick (check_nested ~partitions:1);
          Alcotest.test_case "4 partitions" `Quick (check_nested ~partitions:4);
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "stats" `Quick test_stats_recorded;
          Alcotest.test_case "distribute/gather" `Quick test_distribute_gather;
          Alcotest.test_case "shuffle colocates keys" `Quick test_shuffle_colocates;
        ] );
      ( "plan",
        [
          Alcotest.test_case "stage assignment" `Quick test_plan_stages;
          Alcotest.test_case "theta join gathers" `Quick test_plan_gather_on_theta_join;
          Alcotest.test_case "narrow pipeline" `Quick test_plan_narrow_pipeline;
        ] );
    ]
