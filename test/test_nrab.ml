(* Per-operator semantics tests against Table 1 of the paper, plus type
   checker behaviour. *)

open Nested
open Nrab

let v_int i = Value.Int i
let v_str s = Value.String s
let tup = Value.tuple

let r_schema = Vtype.relation [ ("a", Vtype.TInt); ("b", Vtype.TString) ]
let s_schema = Vtype.relation [ ("c", Vtype.TInt) ]

let r_rel =
  Relation.make ~schema:r_schema
    ~data:
      (Value.bag
         [
           (tup [ ("a", v_int 1); ("b", v_str "x") ], 2);
           (tup [ ("a", v_int 2); ("b", v_str "y") ], 1);
         ])

let s_rel =
  Relation.make ~schema:s_schema
    ~data:(Value.bag [ (tup [ ("c", v_int 1) ], 1); (tup [ ("c", v_int 3) ], 1) ])

let db = Relation.Db.of_list [ ("r", r_rel); ("s", s_rel) ]

let eval q = Eval.eval db q
let g () = Query.Gen.create ()

let check_bag msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string (Relation.data actual))

(* --- scan / select / project / rename --- *)

let test_table_access () =
  let q = Query.table (g ()) "r" in
  check_bag "table access returns the relation" (Relation.data r_rel) (eval q)

let test_select () =
  let gen = g () in
  let q = Query.select gen (Expr.Cmp (Expr.Gt, Expr.attr "a", Expr.int 1)) (Query.table gen "r") in
  check_bag "selection filters with multiplicities"
    (Value.bag [ (tup [ ("a", v_int 2); ("b", v_str "y") ], 1) ])
    (eval q)

let test_project_merges_multiplicities () =
  let gen = g () in
  (* both r-tuples project to distinct values; multiplicities preserved *)
  let q = Query.project_attrs gen [ "a" ] (Query.table gen "r") in
  check_bag "projection sums multiplicities"
    (Value.bag [ (tup [ ("a", v_int 1) ], 2); (tup [ ("a", v_int 2) ], 1) ])
    (eval q)

let test_project_collapses () =
  let gen = g () in
  (* projecting on a constant column collapses everything *)
  let q = Query.project gen [ ("k", Expr.int 0) ] (Query.table gen "r") in
  check_bag "projection can merge tuples" (Value.bag [ (tup [ ("k", v_int 0) ], 3) ]) (eval q)

let test_rename () =
  let gen = g () in
  let q = Query.rename gen [ ("alpha", "a") ] (Query.table gen "r") in
  let ty = Typecheck.infer [ ("r", r_schema) ] q in
  Alcotest.(check (list string)) "renamed schema" [ "alpha"; "b" ]
    (List.map fst (Vtype.relation_fields ty))

(* --- joins (Table 1 padding semantics) --- *)

let join_q kind =
  let gen = g () in
  Query.join gen kind (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.attr "c"))
    (Query.table gen "r") (Query.table gen "s")

let test_inner_join () =
  check_bag "inner join with multiplicities"
    (Value.bag [ (tup [ ("a", v_int 1); ("b", v_str "x"); ("c", v_int 1) ], 2) ])
    (eval (join_q Query.Inner))

let test_left_join () =
  check_bag "left join pads unmatched left tuples"
    (Value.bag
       [
         (tup [ ("a", v_int 1); ("b", v_str "x"); ("c", v_int 1) ], 2);
         (tup [ ("a", v_int 2); ("b", v_str "y"); ("c", Value.Null) ], 1);
       ])
    (eval (join_q Query.Left))

let test_right_join () =
  check_bag "right join pads unmatched right tuples"
    (Value.bag
       [
         (tup [ ("a", v_int 1); ("b", v_str "x"); ("c", v_int 1) ], 2);
         (tup [ ("a", Value.Null); ("b", Value.Null); ("c", v_int 3) ], 1);
       ])
    (eval (join_q Query.Right))

let test_full_join () =
  Alcotest.(check int) "full outer join cardinality" 4
    (Relation.cardinal (eval (join_q Query.Full)))

(* --- union / diff / dedup / product --- *)

let test_union_adds_multiplicities () =
  let gen = g () in
  let q = Query.union gen (Query.table gen "r") (Query.table gen "r") in
  Alcotest.(check int) "k+l semantics" 6 (Relation.cardinal (eval q))

let test_diff () =
  let gen = g () in
  let filtered =
    Query.select gen (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.int 1)) (Query.table gen "r")
  in
  let q = Query.diff gen (Query.table gen "r") filtered in
  check_bag "bag difference"
    (Value.bag [ (tup [ ("a", v_int 2); ("b", v_str "y") ], 1) ])
    (eval q)

let test_dedup () =
  let gen = g () in
  let q = Query.dedup gen (Query.table gen "r") in
  Alcotest.(check int) "dedup to multiplicity 1" 2 (Relation.cardinal (eval q))

let test_product () =
  let gen = g () in
  let q = Query.product gen (Query.table gen "r") (Query.table gen "s") in
  Alcotest.(check int) "product multiplicities" 6 (Relation.cardinal (eval q))

(* --- flatten / nest (nested data) --- *)

let nested_schema =
  Vtype.relation
    [
      ("n", Vtype.TString);
      ("kids", Vtype.relation [ ("k", Vtype.TInt) ]);
      ("meta", Vtype.TTuple [ ("m", Vtype.TInt) ]);
    ]

let nested_rel =
  Relation.of_tuples ~schema:nested_schema
    [
      tup
        [
          ("n", v_str "one");
          ("kids", Value.bag_of_list [ tup [ ("k", v_int 1) ]; tup [ ("k", v_int 2) ] ]);
          ("meta", tup [ ("m", v_int 10) ]);
        ];
      tup
        [ ("n", v_str "two"); ("kids", Value.empty_bag); ("meta", Value.Null) ];
    ]

let ndb = Relation.Db.of_list [ ("t", nested_rel) ]

let test_flatten_inner () =
  let gen = g () in
  let q = Query.flatten_inner gen "kids" (Query.table gen "t") in
  let result = Eval.eval ndb q in
  (* "two" has an empty nested relation and disappears *)
  Alcotest.(check int) "inner flatten" 2 (Relation.cardinal result);
  Alcotest.(check bool) "keeps original attribute" true
    (List.mem "kids" (Relation.attribute_names result))

let test_flatten_outer_pads () =
  let gen = g () in
  let q = Query.flatten_outer gen "kids" (Query.table gen "t") in
  let result = Eval.eval ndb q in
  Alcotest.(check int) "outer flatten keeps empty" 3 (Relation.cardinal result);
  let padded =
    List.filter
      (fun t -> Value.field "k" t = Some Value.Null)
      (Relation.tuples result)
  in
  Alcotest.(check int) "padded row" 1 (List.length padded)

let test_flatten_tuple () =
  let gen = g () in
  let q = Query.flatten_tuple gen "meta" (Query.table gen "t") in
  let result = Eval.eval ndb q in
  Alcotest.(check int) "tuple flatten keeps all rows" 2 (Relation.cardinal result);
  let null_padded =
    List.filter
      (fun t -> Value.field "m" t = Some Value.Null)
      (Relation.tuples result)
  in
  Alcotest.(check int) "null tuple attribute padded" 1 (List.length null_padded)

let test_nest_rel_roundtrip () =
  let gen = g () in
  (* flatten then re-nest recovers the grouping *)
  let q =
    Query.nest_rel gen [ "k" ] ~into:"kids2"
      (Query.project_attrs gen [ "n"; "k" ]
         (Query.flatten_inner gen "kids" (Query.table gen "t")))
  in
  let result = Eval.eval ndb q in
  Alcotest.(check int) "one group" 1 (Relation.cardinal result);
  let t = List.hd (Relation.tuples result) in
  Alcotest.(check int) "group has two members" 2
    (Value.cardinal (Option.get (Value.field "kids2" t)))

let test_nest_tuple () =
  let gen = g () in
  let q =
    Query.nest_tuple gen [ "a"; "b" ] ~into:"ab" (Query.table gen "r")
  in
  let result = eval q in
  let t = List.hd (Relation.tuples result) in
  Alcotest.(check (list string)) "nested labels" [ "ab" ] (Value.labels t)

let test_nest_rel_multiplicity_one () =
  (* Table 1: relation nesting outputs each group with multiplicity 1 *)
  let gen = g () in
  let q = Query.nest_rel gen [ "b" ] ~into:"bs" (Query.table gen "r") in
  let result = eval q in
  List.iter
    (fun (_, m) -> Alcotest.(check int) "multiplicity 1" 1 m)
    (Value.elems (Relation.data result))

(* --- aggregation --- *)

let test_agg_tuple_count_skips_nulls () =
  let gen = g () in
  let q =
    Query.agg_tuple gen Agg.Count ~over:"kids" ~into:"cnt" (Query.table gen "t")
  in
  let result = Eval.eval ndb q in
  let counts =
    List.map (fun t -> Option.get (Value.field "cnt" t)) (Relation.tuples result)
  in
  Alcotest.(check bool) "counts 2 and 0" true
    (List.sort Value.compare counts = [ v_int 0; v_int 2 ])

let test_group_agg () =
  let gen = g () in
  let q =
    Query.group_agg gen [ "a" ]
      [ (Agg.Count, None, "n"); (Agg.Min, Some "b", "min_b") ]
      (Query.table gen "r")
  in
  let result = eval q in
  Alcotest.(check int) "two groups" 2 (Relation.cardinal result);
  let group1 =
    List.find
      (fun t -> Value.field "a" t = Some (v_int 1))
      (Relation.tuples result)
  in
  Alcotest.(check bool) "count respects multiplicities" true
    (Value.field "n" group1 = Some (v_int 2))

let test_group_agg_empty_group_list () =
  let gen = g () in
  let q = Query.group_agg gen [] [ (Agg.Sum, Some "a", "total") ] (Query.table gen "r") in
  let result = eval q in
  Alcotest.(check int) "single global group" 1 (Relation.cardinal result);
  Alcotest.(check bool) "sum over multiplicities" true
    (Value.field "total" (List.hd (Relation.tuples result)) = Some (v_int 4))

(* --- aggregation functions --- *)

let test_agg_functions () =
  let vs = [ v_int 1; v_int 2; Value.Null; v_int 3 ] in
  Alcotest.(check bool) "sum skips null" true (Agg.apply Agg.Sum vs = v_int 6);
  Alcotest.(check bool) "count skips null" true (Agg.apply Agg.Count vs = v_int 3);
  Alcotest.(check bool) "min" true (Agg.apply Agg.Min vs = v_int 1);
  Alcotest.(check bool) "max" true (Agg.apply Agg.Max vs = v_int 3);
  Alcotest.(check bool) "avg" true (Agg.apply Agg.Avg vs = Value.Float 2.0);
  Alcotest.(check bool) "empty sum is null" true (Agg.apply Agg.Sum [] = Value.Null);
  Alcotest.(check bool) "empty count is 0" true (Agg.apply Agg.Count [] = v_int 0);
  Alcotest.(check bool) "count distinct" true
    (Agg.apply Agg.Count_distinct [ v_int 1; v_int 1; v_int 2 ] = v_int 2)

let test_achievable_range () =
  let vs = [ Value.Float 2.0; Value.Float (-1.0); Value.Float 3.0 ] in
  Alcotest.(check bool) "sum range" true
    (Agg.achievable_range Agg.Sum vs = Some (-1.0, 5.0));
  Alcotest.(check bool) "count range" true
    (Agg.achievable_range Agg.Count vs = Some (0.0, 3.0));
  Alcotest.(check bool) "avg range" true
    (Agg.achievable_range Agg.Avg vs = Some (-1.0, 3.0));
  Alcotest.(check bool) "empty sum range" true
    (Agg.achievable_range Agg.Sum [] = None)

(* --- type checking --- *)

let env = [ ("r", r_schema); ("s", s_schema); ("t", nested_schema) ]

let test_typecheck_errors () =
  let expect_error q =
    match Typecheck.infer_result env q with
    | Error _ -> ()
    | Ok ty -> Alcotest.failf "expected type error, got %a" Vtype.pp ty
  in
  let gen = g () in
  expect_error (Query.select gen (Expr.Cmp (Expr.Eq, Expr.attr "zz", Expr.int 1)) (Query.table gen "r"));
  expect_error (Query.flatten_inner gen "meta" (Query.table gen "t"));
  expect_error (Query.flatten_tuple gen "kids" (Query.table gen "t"));
  expect_error (Query.union gen (Query.table gen "r") (Query.table gen "s"));
  expect_error (Query.table gen "unknown");
  expect_error
    (Query.select gen
       (Expr.Cmp (Expr.Lt, Expr.attr "b", Expr.int 3))
       (Query.table gen "r"))

let test_typecheck_join_name_clash () =
  let gen = g () in
  let q = Query.product gen (Query.table gen "r") (Query.table gen "r") in
  match Typecheck.infer_result env q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self product must fail on duplicate names"

let test_output_types () =
  let gen = g () in
  let q = Query.nest_rel gen [ "b" ] ~into:"bs" (Query.table gen "r") in
  let ty = Typecheck.infer env q in
  Alcotest.(check string) "nest_rel output type"
    "{{⟨a: INT, bs: {{⟨b: STR⟩}}⟩}}" (Vtype.to_string ty)

(* --- evaluator totality: every operator id is evaluable --- *)

let test_query_traversals () =
  let gen = g () in
  let q =
    Query.select gen Expr.True
      (Query.join gen Query.Inner Expr.True (Query.table gen "r") (Query.table gen "s"))
  in
  Alcotest.(check int) "op count" 4 (Query.op_count q);
  Alcotest.(check (list string)) "input tables" [ "r"; "s" ] (Query.input_tables q);
  let ops = Query.operators q in
  Alcotest.(check bool) "topological: root last" true
    ((List.nth ops 3).Query.id = q.Query.id)

(* --- fragments (Table 3) --- *)

let test_fragment_classification () =
  let gen = g () in
  let spc =
    Query.project_attrs gen [ "a" ]
      (Query.select gen Expr.True
         (Query.join gen Query.Inner Expr.True (Query.table gen "r") (Query.table gen "s")))
  in
  Alcotest.(check string) "SPC" "SPC" (Fragment.to_string (Fragment.classify spc));
  let gen = g () in
  let spc_plus = Query.union gen (Query.table gen "r") (Query.table gen "r") in
  Alcotest.(check string) "SPC+" "SPC+" (Fragment.to_string (Fragment.classify spc_plus));
  let gen = g () in
  let nrab = Query.flatten_inner gen "kids" (Query.table gen "t") in
  Alcotest.(check string) "NRAB" "NRAB" (Fragment.to_string (Fragment.classify nrab));
  let gen = g () in
  let outer =
    Query.join gen Query.Left Expr.True (Query.table gen "r") (Query.table gen "s")
  in
  Alcotest.(check string) "outer joins leave SPC" "NRAB"
    (Fragment.to_string (Fragment.classify outer))

let test_fragment_expressiveness () =
  (* Table 3: projections are reparameterization-only; nesting needs NRAB *)
  Alcotest.(check bool) "lineage cannot blame projections" false
    (Fragment.explainable Fragment.Lineage_based Fragment.Spc Query.Op_project);
  Alcotest.(check bool) "reparameterization can" true
    (Fragment.explainable Fragment.Reparameterization_based Fragment.Spc
       Query.Op_project);
  Alcotest.(check bool) "nesting only in NRAB" false
    (Fragment.explainable Fragment.Reparameterization_based Fragment.Spc_plus
       Query.Op_nest);
  Alcotest.(check bool) "nesting in NRAB" true
    (Fragment.explainable Fragment.Reparameterization_based Fragment.Nrab
       Query.Op_nest)

(* [string_contains] compares bytes in place; the substring scan it
   replaced is the oracle. *)
let sub_scan_contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec scan i =
    i + n <= m && (String.equal (String.sub haystack i n) needle || scan (i + 1))
  in
  scan 0

let test_contains_cases () =
  List.iter
    (fun (needle, haystack, expected) ->
      Alcotest.(check bool)
        (Fmt.str "%S in %S" needle haystack)
        expected
        (Expr.string_contains ~needle haystack))
    [
      ("", "", true);
      ("", "abc", true);
      ("abcd", "abc", false);
      ("bc", "abc", true);
      ("c", "abc", true);
      ("aab", "aaab", true);
      ("aab", "aaba", true);
      ("aab", "abab", false);
      ("a", "", false);
    ]

(* A two-letter alphabet, one letter a byte >= 128, so overlapping
   partial matches and repeated skip-table entries are common.  The
   staged search and [eval_pred]'s one-off search (a table only from 64
   bytes up) must both agree with the scan. *)
let contains_matches_sub_scan =
  let letter = QCheck.Gen.oneofl [ 'a'; '\xe9' ] in
  let word = QCheck.Gen.(string_size ~gen:letter (int_range 0 8)) in
  let text = QCheck.Gen.(string_size ~gen:letter (int_range 0 64)) in
  QCheck.Test.make ~name:"string_contains = substring scan" ~count:5000
    (QCheck.make ~print:QCheck.Print.(pair string string) QCheck.Gen.(pair word text))
    (fun (needle, haystack) ->
      let expected = sub_scan_contains ~needle haystack in
      Bool.equal (Expr.string_contains ~needle haystack) expected
      && Bool.equal
           (Expr.eval_pred
              (Value.Tuple [ ("t", Value.String haystack) ])
              (Expr.Contains (Expr.attr "t", needle)))
           expected)

let () =
  Alcotest.run "nrab"
    [
      ( "basic-operators",
        [
          Alcotest.test_case "table access" `Quick test_table_access;
          Alcotest.test_case "selection" `Quick test_select;
          Alcotest.test_case "projection multiplicities" `Quick test_project_merges_multiplicities;
          Alcotest.test_case "projection collapse" `Quick test_project_collapses;
          Alcotest.test_case "renaming" `Quick test_rename;
        ] );
      ( "joins",
        [
          Alcotest.test_case "inner" `Quick test_inner_join;
          Alcotest.test_case "left outer" `Quick test_left_join;
          Alcotest.test_case "right outer" `Quick test_right_join;
          Alcotest.test_case "full outer" `Quick test_full_join;
        ] );
      ( "bags",
        [
          Alcotest.test_case "union" `Quick test_union_adds_multiplicities;
          Alcotest.test_case "difference" `Quick test_diff;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "product" `Quick test_product;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "inner flatten" `Quick test_flatten_inner;
          Alcotest.test_case "outer flatten" `Quick test_flatten_outer_pads;
          Alcotest.test_case "tuple flatten" `Quick test_flatten_tuple;
          Alcotest.test_case "nest roundtrip" `Quick test_nest_rel_roundtrip;
          Alcotest.test_case "tuple nesting" `Quick test_nest_tuple;
          Alcotest.test_case "nest multiplicity" `Quick test_nest_rel_multiplicity_one;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "per-tuple count" `Quick test_agg_tuple_count_skips_nulls;
          Alcotest.test_case "group aggregation" `Quick test_group_agg;
          Alcotest.test_case "global aggregation" `Quick test_group_agg_empty_group_list;
          Alcotest.test_case "aggregate functions" `Quick test_agg_functions;
          Alcotest.test_case "achievable ranges" `Quick test_achievable_range;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "errors" `Quick test_typecheck_errors;
          Alcotest.test_case "join name clash" `Quick test_typecheck_join_name_clash;
          Alcotest.test_case "output types" `Quick test_output_types;
        ] );
      ( "contains",
        [
          Alcotest.test_case "edge cases" `Quick test_contains_cases;
          QCheck_alcotest.to_alcotest contains_matches_sub_scan;
        ] );
      ( "traversals",
        [ Alcotest.test_case "operators and tables" `Quick test_query_traversals ] );
      ( "fragments",
        [
          Alcotest.test_case "classification" `Quick test_fragment_classification;
          Alcotest.test_case "Table 3 expressiveness" `Quick test_fragment_expressiveness;
        ] );
    ]
