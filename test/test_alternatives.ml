(* Schema-alternative tests (Section 5.2): attribute origins, choice
   points, the enumerate-and-prune behaviour of Figure 3, and the
   output-schema preservation rule. *)

open Nested
open Nrab
module Alt = Whynot.Alternatives

let person_schema =
  Vtype.relation
    [
      ("name", Vtype.TString);
      ("address1", Vtype.relation [ ("city", Vtype.TString); ("year", Vtype.TInt) ]);
      ("address2", Vtype.relation [ ("city", Vtype.TString); ("year", Vtype.TInt) ]);
    ]

let env = [ ("person", person_schema) ]

let running_example_query () =
  let g = Query.Gen.create () in
  Query.nest_rel ~id:5 g [ "name" ] ~into:"nList"
    (Query.project_attrs ~id:4 g [ "name"; "city" ]
       (Query.select ~id:3 g
          (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019))
          (Query.flatten_inner ~id:2 g "address2" (Query.table ~id:1 g "person"))))

let alternatives : Alt.alternatives =
  [ ("person", [ [ "address2" ]; [ "address1" ] ]) ]

(* --- origins --- *)

let test_origins_through_flatten () =
  let g = Query.Gen.create () in
  let q = Query.flatten_inner ~id:2 g "address2" (Query.table ~id:1 g "person") in
  let origins = Alt.origins ~env q in
  Alcotest.(check bool) "top-level attribute" true
    (List.assoc_opt "name" origins = Some ("person", [ "name" ]));
  Alcotest.(check bool) "flattened inner attribute gets the nested path" true
    (List.assoc_opt "city" origins = Some ("person", [ "address2"; "city" ]))

let test_origins_through_rename_and_project () =
  let g = Query.Gen.create () in
  let q =
    Query.project ~id:3 g
      [ ("n2", Expr.attr "n1"); ("computed", Expr.(Mul (attr "n1", attr "n1"))) ]
      (Query.rename ~id:2 g [ ("n1", "a") ] (Query.table ~id:1 g "r"))
  in
  let env = [ ("r", Vtype.relation [ ("a", Vtype.TInt) ]) ] in
  let origins = Alt.origins ~env q in
  Alcotest.(check bool) "rename then project tracks origin" true
    (List.assoc_opt "n2" origins = Some ("r", [ "a" ]));
  Alcotest.(check bool) "computed columns have no origin" true
    (List.assoc_opt "computed" origins = None)

(* --- choice points --- *)

let test_choice_points () =
  let q = running_example_query () in
  let cps = Alt.choice_points ~env q alternatives in
  (* only the flatten references an attribute whose source is in the
     group (σ references year, whose source address2.year is not listed) *)
  Alcotest.(check int) "one choice point" 1 (List.length cps);
  let cp = List.hd cps in
  Alcotest.(check int) "at the flatten" 2 cp.Alt.cp_op;
  Alcotest.(check string) "referencing address2" "address2" cp.Alt.cp_attr

let test_choice_points_with_year_group () =
  (* with the year attributes also declared interchangeable, the
     selection becomes a choice point too — Figure 3's full tree *)
  let q = running_example_query () in
  let alts =
    alternatives
    @ [ ("person", [ [ "address2"; "year" ]; [ "address1"; "year" ] ]) ]
  in
  let cps = Alt.choice_points ~env q alts in
  Alcotest.(check int) "two choice points" 2 (List.length cps)

(* --- enumeration and pruning (Figure 3) --- *)

let test_enumerate_figure3 () =
  let q = running_example_query () in
  let alts =
    alternatives
    @ [ ("person", [ [ "address2"; "year" ]; [ "address1"; "year" ] ]) ]
  in
  (* 2 flatten choices × 2 selection choices = 4 assignments, of which
     only the two "aligned" ones survive (the year column is only
     accessible under the matching flatten) *)
  let sas = Alt.enumerate ~env q alts in
  Alcotest.(check int) "two SAs survive pruning" 2 (List.length sas);
  Alcotest.(check bool) "first is the original" true
    (Whynot.Msr.Int_set.is_empty (List.hd sas).Alt.changed_ops)

let test_enumerate_preserves_output_schema () =
  let q = running_example_query () in
  let sas = Alt.enumerate ~env q alternatives in
  let original_ty = Typecheck.infer env q in
  List.iter
    (fun (sa : Alt.sa) ->
      Alcotest.(check string) "output schema unchanged"
        (Vtype.to_string original_ty)
        (Vtype.to_string (Typecheck.infer env sa.Alt.query)))
    sas

let test_enumerate_prunes_type_mismatch () =
  (* a group mixing a string attribute with an int attribute can never be
     substituted: the queries would be ill-typed *)
  let g = Query.Gen.create () in
  let env = [ ("r", Vtype.relation [ ("a", Vtype.TInt); ("b", Vtype.TString) ]) ] in
  let q =
    Query.select ~id:2 g
      (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 3))
      (Query.table ~id:1 g "r")
  in
  let sas = Alt.enumerate ~env q [ ("r", [ [ "a" ]; [ "b" ] ]) ] in
  Alcotest.(check int) "only the original remains" 1 (List.length sas)

let test_max_sas_truncation () =
  let q = running_example_query () in
  let sas = Alt.enumerate ~max_sas:1 ~env q alternatives in
  Alcotest.(check int) "truncated to one" 1 (List.length sas);
  Alcotest.(check bool) "the original is kept" true
    (Whynot.Msr.Int_set.is_empty (List.hd sas).Alt.changed_ops)

let test_no_alternatives_yields_original_only () =
  let q = running_example_query () in
  let sas = Alt.enumerate ~env q [] in
  Alcotest.(check int) "just the original" 1 (List.length sas)

(* A prepared handle serves [use_sas = false] and every smaller [max_sas]
   from its own SAs, which needs enumeration to be a fixed order
   truncated at [max_sas], with the query itself as SA 0.  Pinned for
   every registry scenario at scales 1 and 2. *)
let test_enumeration_prefix_registry () =
  let same (a : Alt.sa) (b : Alt.sa) =
    a.Alt.index = b.Alt.index
    && a.Alt.query = b.Alt.query
    && Whynot.Msr.Int_set.equal a.Alt.changed_ops b.Alt.changed_ops
    && a.Alt.description = b.Alt.description
  in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      List.iter
        (fun scale ->
          let inst = s.Scenarios.Scenario.make ~scale () in
          let phi = inst.Scenarios.Scenario.question in
          let db = phi.Whynot.Question.db and q = phi.Whynot.Question.query in
          let env = Whynot.Pipeline.schema_env db in
          let alts = inst.Scenarios.Scenario.alternatives in
          let label = Fmt.str "%s@%d" s.Scenarios.Scenario.name scale in
          let all = Alt.enumerate ~env q alts in
          for k = 0 to 16 do
            let prefix = Alt.enumerate ~max_sas:k ~env q alts in
            Alcotest.(check int) (Fmt.str "%s max_sas=%d: length" label k)
              (min k (List.length all)) (List.length prefix);
            List.iteri
              (fun i sa ->
                if not (same sa (List.nth all i)) then
                  Alcotest.failf "%s max_sas=%d: SA %d is not the default's"
                    label k i)
              prefix
          done;
          match
            ( all,
              Whynot.Pipeline.handle_sas
                (Whynot.Pipeline.prepare ~use_sas:false ~db q) )
          with
          | sa0 :: _, [ original ] ->
            Alcotest.(check bool) (label ^ ": SA 0 is the use_sas=false SA")
              true (same sa0 original)
          | _ -> Alcotest.failf "%s: expected SAs on both sides" label)
        [ 1; 2 ])
    Scenarios.Registry.all

(* --- substitution --- *)

let test_subst_node () =
  let subst a = if a = "x" then "y" else a in
  let sel = Query.Select (Expr.Cmp (Expr.Eq, Expr.attr "x", Expr.int 1)) in
  (match Alt.subst_node sel subst with
  | Query.Select (Expr.Cmp (Expr.Eq, Expr.Attr "y", _)) -> ()
  | _ -> Alcotest.fail "selection substitution");
  let nest = Query.Nest_tuple ([ ("label", "x") ], "c") in
  match Alt.subst_node nest subst with
  | Query.Nest_tuple ([ ("label", "y") ], "c") -> ()
  | _ -> Alcotest.fail "nest substitution keeps the label"

let () =
  Alcotest.run "alternatives"
    [
      ( "origins",
        [
          Alcotest.test_case "through flatten" `Quick test_origins_through_flatten;
          Alcotest.test_case "through rename/project" `Quick
            test_origins_through_rename_and_project;
        ] );
      ( "choice-points",
        [
          Alcotest.test_case "flatten only" `Quick test_choice_points;
          Alcotest.test_case "with year group" `Quick test_choice_points_with_year_group;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "figure 3 pruning" `Quick test_enumerate_figure3;
          Alcotest.test_case "output schema preserved" `Quick
            test_enumerate_preserves_output_schema;
          Alcotest.test_case "type mismatch pruned" `Quick
            test_enumerate_prunes_type_mismatch;
          Alcotest.test_case "max_sas truncation" `Quick test_max_sas_truncation;
          Alcotest.test_case "no alternatives" `Quick
            test_no_alternatives_yields_original_only;
          Alcotest.test_case "registry: max_sas takes a prefix" `Quick
            test_enumeration_prefix_registry;
        ] );
      ("substitution", [ Alcotest.test_case "subst_node" `Quick test_subst_node ]);
    ]
