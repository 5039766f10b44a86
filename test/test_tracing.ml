(* Data-tracing tests (Section 5.3): the annotations of Figures 4–6 on the
   paper's running example, per-operator relaxation semantics, and the
   re-validation ablation. *)

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

let env = [ ("person", person_schema) ]

let query =
  let g = Query.Gen.create () in
  Query.nest_rel ~id:5 g [ "name" ] ~into:"nList"
    (Query.project_attrs ~id:4 g [ "name"; "city" ]
       (Query.select ~id:3 g
          (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019))
          (Query.flatten_inner ~id:2 g "address2" (Query.table ~id:1 g "person"))))

let missing = Nip.tup [ ("city", Nip.str "NY"); ("nList", Nip.some_element) ]

let sa0 =
  {
    Whynot.Alternatives.index = 0;
    query;
    changed_ops = Whynot.Msr.Int_set.empty;
    description = "original";
  }

let trace ?revalidate () =
  let bt = Whynot.Backtrace.run ~env query missing in
  Whynot.Tracing.run ?revalidate ~env db sa0 bt

module T = Whynot.Tracing

let op_of tr id =
  match T.op_trace tr id with
  | Some ot -> ot
  | None -> Alcotest.failf "no trace for op %d" id

(* The row indices of [ot] that satisfy [f]. *)
let rows_where f (ot : T.op_trace) =
  List.filter (f ot) (List.init (T.n_rows ot) Fun.id)

let data (ot : T.op_trace) i = Engine.Columnar.get_row ot.T.data i

let field_str name ot i =
  match Value.field name (data ot i) with
  | Some v -> Value.to_string v
  | None -> "<none>"

let root_of (tr : T.t) = op_of tr tr.T.root_op

(* Figure 4: after table access, Sue is consistent under S1, Peter not. *)
let test_table_annotations () =
  let ot = op_of (trace ()) 1 in
  Alcotest.(check int) "two input tuples" 2 (T.n_rows ot);
  let consistent_names =
    List.filter_map
      (fun i -> Value.field "name" (data ot i))
      (rows_where T.consistent_at ot)
  in
  Alcotest.(check bool) "only Sue is compatible" true
    (consistent_names = [ Value.String "Sue" ])

(* Figure 5: the flatten yields 4 rows under S1 (2 addresses each), all
   retained; re-validation leaves only the NY row consistent. *)
let test_flatten_annotations () =
  let ot = op_of (trace ()) 2 in
  Alcotest.(check int) "four flattened rows" 4 (T.n_rows ot);
  Alcotest.(check int) "flatten retains element rows" 4
    (List.length (rows_where T.retained_at ot));
  let consistent = rows_where T.consistent_at ot in
  Alcotest.(check int) "re-validation: only Sue/NY row" 1 (List.length consistent);
  Alcotest.(check string) "it is the NY row" "\"NY\""
    (field_str "city" ot (List.hd consistent))

(* Figure 6: the selection keeps everything in the relaxed stream; only
   year ≥ 2019 rows are retained. *)
let test_selection_annotations () =
  let ot = op_of (trace ()) 3 in
  Alcotest.(check int) "selection passes all rows through" 4 (T.n_rows ot);
  let retained = rows_where T.retained_at ot in
  (* only Sue's LA-2019 element is in address2 with year ≥ 2019 *)
  Alcotest.(check int) "one row satisfies θ" 1 (List.length retained);
  let inconsistent_retained = List.filter (T.consistent_at ot) retained in
  Alcotest.(check int) "the retained rows are not the NY row" 0
    (List.length inconsistent_retained)

(* The empty-address padding of the outer-flatten relaxation. *)
let test_flatten_padding () =
  let db =
    Relation.Db.of_list
      [
        ( "person",
          Relation.of_tuples ~schema:person_schema
            [ person "Solo" [ addr "NY" 2019 ] [] ] );
      ]
  in
  let bt = Whynot.Backtrace.run ~env query missing in
  let ot = op_of (T.run ~env db sa0 bt) 2 in
  Alcotest.(check int) "one padded row" 1 (T.n_rows ot);
  Alcotest.(check bool) "padding is not retained by the inner flatten" false
    (T.retained_at ot 0);
  Alcotest.(check bool) "padding does not survive" false (T.surviving_at ot 0);
  Alcotest.(check string) "padded city is null" "⊥" (field_str "city" ot 0)

(* Surviving rows of the root reproduce the original result: the
   surviving root rows of the trace, the engine's rows and the reference
   evaluator's agree as multisets, row for row under [Value.equal].
   Float aggregates are the exception: each side sums its rows in its
   own order, so a sum can differ in its last bits and agree only in the
   printed (rounded) form.  [check_surviving] accepts that and returns
   the names of the comparisons where it happened. *)
let check_surviving label ~env db missing (sa : Whynot.Alternatives.sa) =
  let sorted rows = List.sort Value.compare rows in
  let q = sa.Whynot.Alternatives.query in
  let bt = Whynot.Backtrace.run ~env q missing in
  let surviving =
    let root = root_of (T.run ~env db sa bt) in
    sorted (List.map (data root) (rows_where T.surviving_at root))
  in
  let compare_with name rows =
    let rows = sorted rows in
    let printed = List.map Value.to_string in
    Alcotest.(check (list string))
      (Fmt.str "%s: surviving = %s" label name)
      (printed rows) (printed surviving);
    if List.for_all2 Value.equal rows surviving then []
    else [ Fmt.str "%s %s" label name ]
  in
  compare_with "Exec.rows" (Engine.Columnar.to_rows (fst (Engine.Exec.rows db q)))
  @ compare_with "Eval" (Relation.tuples (Eval.eval db q))

(* The comparisons where the surviving rows agree with a float sum only
   when printed.  A change to it means an evaluator changed the order in
   which it sums some float aggregate. *)
let printed_only =
  [
    "Q1@1 S1 Exec.rows"; "Q1@1 S1 Eval"; "Q1@1 S2 Exec.rows";
    "Q3@1 S1 Exec.rows"; "Q3@1 S1 Eval";
    "Q6@1 S1 Eval"; "Q6@1 S4 Eval";
    "Q1F@1 S1 Exec.rows"; "Q1F@1 S1 Eval"; "Q1F@1 S2 Exec.rows";
    "Q3F@1 S1 Eval";
    "Q6F@1 S1 Eval"; "Q6F@1 S4 Exec.rows"; "Q6F@1 S4 Eval";
    "F2@1 S2 Exec.rows";
    "Q1@2 S1 Exec.rows"; "Q1@2 S2 Exec.rows"; "Q1@2 S2 Eval";
    "Q3@2 S1 Exec.rows"; "Q3@2 S1 Eval"; "Q3@2 S2 Exec.rows"; "Q3@2 S2 Eval";
    "Q6@2 S1 Exec.rows"; "Q6@2 S1 Eval"; "Q6@2 S3 Exec.rows";
    "Q6@2 S4 Exec.rows"; "Q6@2 S4 Eval";
    "Q1F@2 S1 Exec.rows"; "Q1F@2 S2 Exec.rows"; "Q1F@2 S2 Eval";
    "Q3F@2 S1 Exec.rows"; "Q3F@2 S1 Eval"; "Q3F@2 S2 Exec.rows"; "Q3F@2 S2 Eval";
    "Q6F@2 S1 Eval"; "Q6F@2 S2 Exec.rows"; "Q6F@2 S4 Eval";
    "F2@2 S1 Exec.rows"; "F2@2 S1 Eval"; "F2@2 S2 Exec.rows"; "F2@2 S2 Eval";
  ]

(* On the running example, and on every SA query of every registry
   scenario at scales 1 and 2. *)
let test_surviving_is_original () =
  let found =
    check_surviving "running example" ~env db missing sa0
    @ List.concat_map
        (fun scale ->
          List.concat_map
            (fun (s : Scenarios.Scenario.t) ->
              let inst = s.Scenarios.Scenario.make ~scale () in
              let phi = inst.Scenarios.Scenario.question in
              let db = phi.Whynot.Question.db in
              let env = Whynot.Pipeline.schema_env db in
              List.concat_map
                (fun (sa : Whynot.Alternatives.sa) ->
                  check_surviving
                    (Fmt.str "%s@%d S%d" s.Scenarios.Scenario.name scale
                       (sa.Whynot.Alternatives.index + 1))
                    ~env db phi.Whynot.Question.missing sa)
                (Whynot.Alternatives.enumerate ~env phi.Whynot.Question.query
                   inst.Scenarios.Scenario.alternatives))
            Scenarios.Registry.all)
        [ 1; 2 ]
  in
  Alcotest.(check (list string)) "cases equal only when printed" printed_only found

(* The shape [Msr.families] and the lineage baselines rely on: the
   operators come in post-order over the query and their rid blocks tile
   [0, total) in that order, the data batch and every flag vector hold
   one entry per row, and every parent rid is a row of one of the
   operator's immediate children.  The first violation, if any. *)
let structure_error (tr : T.t) : string option =
  let q = tr.T.sa.Whynot.Alternatives.query in
  let rec post (op : Query.t) =
    List.concat_map post op.Query.children @ [ op.Query.id ]
  in
  let in_block rid (o : T.op_trace) = rid >= o.T.rid0 && rid < o.T.rid0 + o.T.n in
  let check next (o : T.op_trace) =
    let id = o.T.op_id in
    if o.T.rid0 <> next then
      Fmt.failwith "op %d starts at rid %d, not %d" id o.T.rid0 next;
    List.iter
      (fun (name, l) ->
        if l <> o.T.n then
          Fmt.failwith "op %d: %s has %d entries for %d rows" id name l o.T.n)
      [
        ("data", Engine.Columnar.length o.T.data);
        ("consistent", Bytes.length o.T.consistent);
        ("retained", Bytes.length o.T.retained);
        ("surviving", Bytes.length o.T.surviving);
        ("ranges", Option.fold ~none:o.T.n ~some:Array.length o.T.ranges);
      ];
    let kids =
      List.filter_map
        (fun (c : Query.t) -> T.op_trace tr c.Query.id)
        (Option.get (Query.find_op q id)).Query.children
    in
    for i = 0 to o.T.n - 1 do
      List.iter
        (fun p ->
          if not (List.exists (in_block p) kids) then
            Fmt.failwith "op %d row %d: parent %d is no child's row" id i p)
        (T.parents_at o i)
    done;
    next + o.T.n
  in
  if List.map (fun (o : T.op_trace) -> o.T.op_id) tr.T.ops <> post q then
    Some "operators not in post-order"
  else
    match List.fold_left check 0 tr.T.ops with
    | _ -> None
    | exception Failure m -> Some m

let check_structure label tr =
  Option.iter (Alcotest.failf "%s: %s" label) (structure_error tr)

(* The running example, traced with and without re-validation. *)
let test_lineage_well_formed () =
  check_structure "revalidate" (trace ());
  check_structure "no revalidation" (trace ~revalidate:false ())

(* The same over random queries and databases, traced plain and through
   shared blocks.  The second SA changes every operator at or above a
   binary one, so the blocks are the subtrees free of binary operators,
   and a right input's block lands at a rid other than 0. *)
let structure_prop =
  QCheck.Test.make ~count:300 ~name:"rid blocks tile, parents are child rows"
    (QCheck.make
       ~print:(fun (q, _) -> Parser.query_to_string q)
       (fun rs -> (Query_gen.gen_query rs, Query_gen.gen_db rs)))
    (fun (q, db) ->
      let env = Query_gen.env in
      let binary (op : Query.t) =
        List.compare_length_with op.Query.children 2 >= 0
      in
      let changed =
        Query.fold
          (fun acc (op : Query.t) ->
            if Query.fold (fun b o -> b || binary o) false op then
              Whynot.Msr.Int_set.add op.Query.id acc
            else acc)
          Whynot.Msr.Int_set.empty q
      in
      let sa = { sa0 with Whynot.Alternatives.query = q } in
      let sas =
        [ sa; { sa with Whynot.Alternatives.index = 1; changed_ops = changed } ]
      in
      let shared = T.share ~env db sas in
      let bt = Whynot.Backtrace.run ~env q Nip.any in
      List.for_all
        (fun tr ->
          match structure_error tr with
          | None -> true
          | Some e -> QCheck.Test.fail_report e)
        [ T.run ~env db sa bt; T.annotate (T.relax ~shared ~env db sa) bt ])

(* Ablation: without re-validation, all of Sue's flattened rows count as
   consistent (they descend from the compatible tuple) — the false
   positives of prior lineage-based approaches. *)
let test_ablation_no_revalidation () =
  let ot = op_of (trace ~revalidate:false ()) 2 in
  let consistent = rows_where T.consistent_at ot in
  Alcotest.(check int) "both Sue rows flagged without re-validation" 2
    (List.length consistent)

(* Union and difference end to end: a tuple reachable through either
   union branch yields the branch's failure set; difference tracks
   removal. *)
let test_union_branches () =
  let schema = Vtype.relation [ ("a", Vtype.TInt) ] in
  let db2 =
    Relation.Db.of_list
      [
        ("u", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]);
        ("v", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]);
      ]
  in
  let g = Query.Gen.create () in
  let q =
    Query.union ~id:5 g
      (Query.select ~id:3 g
         (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 2))
         (Query.table ~id:1 g "u"))
      (Query.select ~id:4 g
         (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 3))
         (Query.table ~id:2 g "v"))
  in
  let phi =
    Whynot.Question.make ~query:q ~db:db2
      ~missing:(Nip.tup [ ("a", Nip.int 1) ])
  in
  let result = Whynot.Pipeline.explain ~use_sas:false phi in
  let sets =
    List.sort compare (Whynot.Pipeline.explanation_sets result)
  in
  Alcotest.(check (list (list int))) "either branch's selection fixes it"
    [ [ 3 ]; [ 4 ] ] sets

let test_difference_blames_nothing_spurious () =
  let schema = Vtype.relation [ ("a", Vtype.TInt) ] in
  let db2 =
    Relation.Db.of_list
      [
        ( "u",
          Relation.of_tuples ~schema
            [ Value.Tuple [ ("a", Value.Int 1) ]; Value.Tuple [ ("a", Value.Int 2) ] ]
        );
        ("v", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]);
      ]
  in
  let g = Query.Gen.create () in
  (* σ_{a≥2}(u − v): why is a=1 missing?  Fixing the selection alone is
     not enough (the difference removes it), and the difference is not
     reparameterizable — the heuristic must not return the σ alone as a
     complete fix.  Under the relaxation the difference marks the removed
     occurrence as not retained, so no consistent derivation exists and
     the pipeline stays silent rather than answering incorrectly. *)
  let q =
    Query.select ~id:4 g
      (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 2))
      (Query.diff ~id:3 g (Query.table ~id:1 g "u") (Query.table ~id:2 g "v"))
  in
  let phi =
    Whynot.Question.make ~query:q ~db:db2
      ~missing:(Nip.tup [ ("a", Nip.int 1) ])
  in
  let result = Whynot.Pipeline.explain ~use_sas:false phi in
  List.iter
    (fun set ->
      Alcotest.(check bool) "difference never blamed" false (List.mem 3 set))
    (Whynot.Pipeline.explanation_sets result)

(* An Int = Float join predicate holds under numeric coercion (1 = 1.0,
   0 = -0.0), so the relaxed trace's surviving root rows are [Eval]'s
   bag for every join kind: an equality between an int and a float
   attribute is no hash key. *)
let test_int_float_join () =
  let db =
    Relation.Db.of_list
      [
        ( "r",
          Relation.of_tuples ~schema:(Vtype.relation [ ("a", Vtype.TInt) ])
            (List.map (fun a -> Value.Tuple [ ("a", Value.Int a) ]) [ 1; 2; 0 ]) );
        ( "s",
          Relation.of_tuples ~schema:(Vtype.relation [ ("b", Vtype.TFloat) ])
            (List.map (fun b -> Value.Tuple [ ("b", Value.Float b) ]) [ 1.0; 3.0; -0.0; nan ]) );
      ]
  in
  let env = Whynot.Pipeline.schema_env db in
  List.iter
    (fun kind ->
      let g = Query.Gen.create () in
      let q =
        Query.join g kind
          (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.attr "b"))
          (Query.table g "r") (Query.table g "s")
      in
      let sa = { sa0 with Whynot.Alternatives.query = q } in
      let bt = Whynot.Backtrace.run ~env q (Nip.tup [ ("a", Nip.int 2) ]) in
      let surviving =
        let root = root_of (T.run ~env db sa bt) in
        List.map (data root) (rows_where T.surviving_at root)
      in
      let expected = Relation.data (Eval.eval db q) in
      let got = Value.bag_of_list surviving in
      if not (Value.equal expected got) then
        Alcotest.failf "%a join: expected %a, surviving %a" Query.pp_node q.Query.node
          Value.pp expected Value.pp got)
    [ Query.Inner; Query.Left; Query.Full ]

(* A relaxed γ whose every member survives is its own original row, also
   when the row holds a NaN: one surviving root row per group, [Eval]'s
   bag, and no non-surviving copy. *)
let test_nan_group () =
  let z = Sys.opaque_identity 0.0 in
  let schema = Vtype.relation [ ("k", Vtype.TFloat) ] in
  let db =
    Relation.Db.of_list
      [
        ( "f",
          Relation.of_tuples ~schema
            (List.map (fun k -> Value.Tuple [ ("k", Value.Float k) ]) [ nan; z /. z; 1.0 ]) );
      ]
  in
  let env = [ ("f", schema) ] in
  let g = Query.Gen.create () in
  let q = Query.group_agg g [ "k" ] [ (Agg.Count, None, "n") ] (Query.table g "f") in
  let sa = { sa0 with Whynot.Alternatives.query = q } in
  let bt = Whynot.Backtrace.run ~env q (Nip.tup [ ("k", Nip.flt 5.0) ]) in
  let root = root_of (T.run ~env db sa bt) in
  let roots = List.init (T.n_rows root) Fun.id in
  Alcotest.(check (list bool)) "every root row survives" [ true; true ]
    (List.map (T.surviving_at root) roots);
  Alcotest.(check bool) "= Eval" true
    (Value.equal
       (Relation.data (Eval.eval db q))
       (Value.bag_of_list (List.map (data root) roots)))

(* Aggregate ranges: interval satisfiability used for optimistic
   consistency. *)
let test_interval_satisfies () =
  let open Whynot.Tracing in
  Alcotest.(check bool) "Gt inside" true
    (interval_satisfies Expr.Gt (Value.Int 3) (0., 5.));
  Alcotest.(check bool) "Gt outside" false
    (interval_satisfies Expr.Gt (Value.Int 7) (0., 5.));
  Alcotest.(check bool) "Eq inside" true
    (interval_satisfies Expr.Eq (Value.Int 0) (0., 5.));
  Alcotest.(check bool) "Lt at bound" false
    (interval_satisfies Expr.Lt (Value.Int 0) (0., 5.));
  Alcotest.(check bool) "Le at bound" true
    (interval_satisfies Expr.Le (Value.Int 0) (0., 5.))

(* --- Shared SA-invariant subtrees ---------------------------------------- *)

(* Two traces agree field by field: the SA, operator order and ids, rid blocks,
   NIPs, every flag vector, parents, ranges and row data. *)
let same_trace label (a : T.t) (b : T.t) =
  let ids (t : T.t) = List.map (fun (o : T.op_trace) -> o.T.op_id) t.T.ops in
  Alcotest.(check (list int)) (label ^ ": op order") (ids a) (ids b);
  Alcotest.(check int) (label ^ ": root") a.T.root_op b.T.root_op;
  Alcotest.(check bool) (label ^ ": sa") true (a.T.sa = b.T.sa);
  List.iter2
    (fun (x : T.op_trace) (y : T.op_trace) ->
      let l = Fmt.str "%s op %d" label x.T.op_id in
      Alcotest.(check int) (l ^ " rid0") (T.rid0 x) (T.rid0 y);
      Alcotest.(check int) (l ^ " n") (T.n_rows x) (T.n_rows y);
      Alcotest.(check bool) (l ^ " nip") true (x.T.nip = y.T.nip);
      Alcotest.(check bool) (l ^ " consistent") true
        (Bytes.equal x.T.consistent y.T.consistent);
      Alcotest.(check bool) (l ^ " retained") true
        (Bytes.equal x.T.retained y.T.retained);
      Alcotest.(check bool) (l ^ " surviving") true
        (Bytes.equal x.T.surviving y.T.surviving);
      Alcotest.(check bool) (l ^ " ranges") true (x.T.ranges = y.T.ranges);
      for i = 0 to T.n_rows x - 1 do
        if T.parents_at x i <> T.parents_at y i then
          Alcotest.failf "%s row %d: parents differ" l i;
        if not (Value.equal (data x i) (data y i)) then
          Alcotest.failf "%s row %d: data differ" l i
      done)
    a.T.ops b.T.ops

(* Every SA traced with and without the shared blocks, with and without
   re-validation, exact and at stride 3; and annotated from one relaxed
   evaluation, kept across all four, as a prepared handle does. *)
let check_shared label ~env db missing (sas : Whynot.Alternatives.sa list) =
  let shared = T.share ~env db sas in
  List.iter
    (fun (sa : Whynot.Alternatives.sa) ->
      let bt = Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query missing in
      let relaxed = T.relax ~shared ~env db sa in
      List.iter
        (fun (revalidate, stride) ->
          let l =
            Fmt.str "%s S%d revalidate=%b stride=%d" label
              (sa.Whynot.Alternatives.index + 1) revalidate stride
          in
          let plain = T.run ~revalidate ~sample_stride:stride ~env db sa bt in
          same_trace l
            (T.annotate ~revalidate ~sample_stride:stride
               (T.relax ~shared ~env db sa) bt)
            plain;
          same_trace (l ^ " relax+annotate")
            (T.annotate ~revalidate ~sample_stride:stride relaxed bt)
            plain)
        [ (true, 1); (true, 3); (false, 1); (false, 3) ])
    sas;
  shared

let test_shared_registry () =
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = s.Scenarios.Scenario.make ~scale:1 () in
      let phi = inst.Scenarios.Scenario.question in
      let db = phi.Whynot.Question.db in
      let env = Whynot.Pipeline.schema_env db in
      let sas =
        Whynot.Alternatives.enumerate ~env phi.Whynot.Question.query
          inst.Scenarios.Scenario.alternatives
      in
      ignore
        (check_shared s.Scenarios.Scenario.name ~env db
           phi.Whynot.Question.missing sas))
    Scenarios.Registry.all

(* The attributes [nip] constrains that [col] lacks: top-level fields,
   then, through tuple and bag patterns, nested and element fields. *)
let rec missing_attrs (nip : Nip.t) (col : Engine.Columnar.col) : string list =
  match nip, col with
  | Nip.Tup cs, Engine.Columnar.CTuple (_, fs, _) ->
    List.concat_map
      (fun (l, p) ->
        match List.assoc_opt l fs with
        | _ when p = Nip.Any -> []
        | None -> [ l ]
        | Some c -> List.map (fun m -> l ^ "." ^ m) (missing_attrs p c))
      cs
  | Nip.Bag (ps, _), Engine.Columnar.CBag bg ->
    List.concat_map (fun p -> missing_attrs p bg.Engine.Columnar.belems) ps
  | _ -> []

(* Tracing reads an attribute a batch lacks as Null, so a column pruned
   by mistake would pass unnoticed: every attribute an operator's NIP
   constrains must be a column of that operator's batch, in every SA of
   every registry scenario, with and without the shared blocks. *)
let test_nip_attrs_are_columns () =
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      List.iter
        (fun scale ->
          let inst = s.Scenarios.Scenario.make ~scale () in
          let phi = inst.Scenarios.Scenario.question in
          let db = phi.Whynot.Question.db in
          let env = Whynot.Pipeline.schema_env db in
          let sas =
            Whynot.Alternatives.enumerate ~env phi.Whynot.Question.query
              inst.Scenarios.Scenario.alternatives
          in
          let shared = T.share ~env db sas in
          List.iter
            (fun (sa : Whynot.Alternatives.sa) ->
              let bt =
                Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query
                  phi.Whynot.Question.missing
              in
              List.iter
                (fun (tr : T.t) ->
                  List.iter
                    (fun (o : T.op_trace) ->
                      if T.n_rows o > 0 then
                        match missing_attrs o.T.nip o.T.data.Engine.Columnar.row with
                        | [] -> ()
                        | m ->
                          Alcotest.failf "%s@%d S%d op %d lacks %s"
                            s.Scenarios.Scenario.name scale
                            (sa.Whynot.Alternatives.index + 1) o.T.op_id
                            (String.concat ", " m))
                    tr.T.ops)
                [ T.run ~env db sa bt; T.annotate (T.relax ~shared ~env db sa) bt ])
            sas)
        [ 1; 2 ])
    Scenarios.Registry.all

let likes_schema =
  Vtype.relation [ ("who", Vtype.TString); ("thing", Vtype.TString) ]

let like who thing =
  Value.Tuple [ ("who", Value.String who); ("thing", Value.String thing) ]

let db_likes =
  Relation.Db.of_list
    (( "likes",
       Relation.of_tuples ~schema:likes_schema
         [ like "Sue" "tea"; like "Peter" "coffee"; like "Sue" "x" ] )
    :: Relation.Db.tables db)

let env_likes = ("likes", likes_schema) :: env
let address_alts = [ ("person", [ [ "address1" ]; [ "address2" ] ]) ]

(* (a) The changed flatten precedes the shared σ(likes) subtree in
   post-order and yields 5 rows under address1 but 4 under address2, so
   the block lands at a different rid in each SA. *)
let test_shared_block_moves () =
  let g = Query.Gen.create ~start:50 () in
  let q =
    Query.project_attrs ~id:6 g [ "name"; "city"; "thing" ]
      (Query.join ~id:5 g Query.Inner
         (Expr.Cmp (Expr.Eq, Expr.attr "name", Expr.attr "who"))
         (Query.flatten_inner ~id:2 g "address1" (Query.table ~id:1 g "person"))
         (Query.select ~id:4 g
            (Expr.Cmp (Expr.Neq, Expr.attr "thing", Expr.str "x"))
            (Query.table ~id:3 g "likes")))
  in
  let missing = Nip.tup [ ("city", Nip.str "NY"); ("thing", Nip.str "tea") ] in
  let sas = Whynot.Alternatives.enumerate ~env:env_likes q address_alts in
  Alcotest.(check int) "two SAs" 2 (List.length sas);
  let shared = check_shared "moved block" ~env:env_likes db_likes missing sas in
  Alcotest.(check int) "person and σ(likes) are shared" 2
    (T.shared_blocks shared);
  let sigma_rid0 (sa : Whynot.Alternatives.sa) =
    let bt =
      Whynot.Backtrace.run ~env:env_likes sa.Whynot.Alternatives.query missing
    in
    match T.op_trace (T.annotate (T.relax ~shared ~env:env_likes db_likes sa) bt) 4 with
    | Some ot -> T.rid0 ot
    | None -> Alcotest.fail "no trace for σ^4"
  in
  Alcotest.(check (list int)) "the block starts at a different rid per SA"
    [ 10; 9 ] (List.map sigma_rid0 sas)

(* (b) A self-join: both sides read [person], at different positions. *)
let test_shared_self_join () =
  let g = Query.Gen.create ~start:50 () in
  let q =
    Query.project_attrs ~id:7 g [ "name"; "city"; "other" ]
      (Query.join ~id:6 g Query.Inner
         (Expr.Cmp (Expr.Eq, Expr.attr "name", Expr.attr "other"))
         (Query.flatten_inner ~id:2 g "address1" (Query.table ~id:1 g "person"))
         (Query.rename ~id:5 g [ ("other", "name") ]
            (Query.project_attrs ~id:4 g [ "name" ]
               (Query.table ~id:3 g "person"))))
  in
  let missing =
    Nip.tup [ ("city", Nip.str "NY"); ("other", Nip.str "Peter") ]
  in
  let sas = Whynot.Alternatives.enumerate ~env q address_alts in
  Alcotest.(check int) "two SAs" 2 (List.length sas);
  let shared = check_shared "self-join" ~env db missing sas in
  Alcotest.(check int) "both person subtrees are shared" 2
    (T.shared_blocks shared)

let () =
  Alcotest.run "tracing"
    [
      ( "running-example-annotations",
        [
          Alcotest.test_case "table access (Fig. 4)" `Quick test_table_annotations;
          Alcotest.test_case "flatten (Fig. 5)" `Quick test_flatten_annotations;
          Alcotest.test_case "selection (Fig. 6)" `Quick test_selection_annotations;
          Alcotest.test_case "outer-flatten padding" `Quick test_flatten_padding;
          Alcotest.test_case "surviving = original" `Quick test_surviving_is_original;
          Alcotest.test_case "lineage well-formed" `Quick test_lineage_well_formed;
          QCheck_alcotest.to_alcotest structure_prop;
        ] );
      ( "set-operations",
        [
          Alcotest.test_case "union branches" `Quick test_union_branches;
          Alcotest.test_case "difference" `Quick test_difference_blames_nothing_spurious;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "no re-validation" `Quick test_ablation_no_revalidation;
        ] );
      ( "float keys",
        [
          Alcotest.test_case "int = float join" `Quick test_int_float_join;
          Alcotest.test_case "γ over a NaN key" `Quick test_nan_group;
        ] );
      ( "shared",
        [
          Alcotest.test_case "registry: NIP attributes are batch columns" `Quick
            test_nip_attrs_are_columns;
          Alcotest.test_case "registry: run ~shared = run" `Quick
            test_shared_registry;
          Alcotest.test_case "block at a different rid per SA" `Quick
            test_shared_block_moves;
          Alcotest.test_case "self-join" `Quick test_shared_self_join;
        ] );
      ( "intervals",
        [ Alcotest.test_case "satisfiability" `Quick test_interval_satisfies ] );
    ]
