(* Baseline behaviour tests: Why-Not's picky-operator semantics and
   Conseil's continue-past-picky semantics on controlled examples
   (including the Example 2 adaptation from the paper's introduction). *)

open Nested
open Nrab
module Nip = Whynot.Nip

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

let query =
  let g = Query.Gen.create () in
  Query.nest_rel ~id:5 g [ "name" ] ~into:"nList"
    (Query.project_attrs ~id:4 g [ "name"; "city" ]
       (Query.select ~id:3 g
          (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019))
          (Query.flatten_inner ~id:2 g "address2" (Query.table ~id:1 g "person"))))

let missing = Nip.tup [ ("city", Nip.str "NY"); ("nList", Nip.some_element) ]
let phi = Whynot.Question.make ~query ~db ~missing

(* Example 2 of the paper: WN++ identifies the selection as picky.  The
   compatible nested element (NY, 2018) passes the flatten; its successor
   dies at σ. *)
let test_example2_wnpp () =
  let expls = Baselines.Wnpp.explanations phi in
  Alcotest.(check (list (list int))) "the selection is picky" [ [ 3 ] ]
    (List.map Baselines.Explanation_set.op_list expls)

let test_example2_conseil () =
  let expls = Baselines.Conseil.explanations phi in
  Alcotest.(check (list (list int))) "conseil agrees here" [ [ 3 ] ]
    (List.map Baselines.Explanation_set.op_list expls)

(* Element granularity: tracking whole tuples would see Sue's LA-2019 row
   survive the selection and report nothing — the "straightforward
   extension" failure mode the introduction describes.  Our WN++ tracks
   the compatible *element* and does report σ (tested above); here we
   check the successor sets directly. *)
let test_element_granular_successors () =
  let info = Baselines.Lineage.original_trace phi in
  let succ = Baselines.Lineage.successor_rids ~surviving_only:true info in
  let successor_cities =
    match Whynot.Tracing.op_trace info.Baselines.Lineage.trace 2 with
    | Some ot ->
      List.filter_map
        (fun i ->
          if Hashtbl.mem succ (Whynot.Tracing.rid0 ot + i) then
            Value.field "city" (Engine.Columnar.get_row ot.Whynot.Tracing.data i)
          else None)
        (List.init (Whynot.Tracing.n_rows ot) Fun.id)
    | None -> []
  in
  Alcotest.(check bool) "only the NY element is a successor" true
    (successor_cities = [ Value.String "NY" ])

let test_constrained_tables () =
  let info = Baselines.Lineage.original_trace phi in
  let ct = Baselines.Lineage.constrained_tables info in
  Alcotest.(check (list string)) "person is constrained" [ "person" ]
    (Baselines.Lineage.String_set.elements ct)

(* An unconstrained-question case: the picky fallback. *)
let test_wnpp_no_picky_no_explanation () =
  (* asking for an answer that the query already produces partially —
     compatible survives to the output — WN++ stays silent *)
  let missing = Nip.tup [ ("city", Nip.str "LA"); ("nList", Nip.bag [ Nip.any; Nip.any ]) ] in
  let phi = Whynot.Question.make ~query ~db ~missing in
  Alcotest.(check bool) "proper question" true (Whynot.Question.is_proper phi);
  Alcotest.(check int) "WN++ finds nothing" 0
    (List.length (Baselines.Wnpp.explanations phi))

let () =
  Alcotest.run "baselines"
    [
      ( "example-2",
        [
          Alcotest.test_case "WN++ picky selection" `Quick test_example2_wnpp;
          Alcotest.test_case "Conseil" `Quick test_example2_conseil;
          Alcotest.test_case "element-granular successors" `Quick
            test_element_granular_successors;
          Alcotest.test_case "constrained tables" `Quick test_constrained_tables;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "no picky operator" `Quick
            test_wnpp_no_picky_no_explanation;
        ] );
    ]
