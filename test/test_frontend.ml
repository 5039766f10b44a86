(* Frontend tests: SQL lowering vs programmatic construction, print/parse
   round-trips, caret diagnostics (golden), and a QCheck fuzzer that
   round-trips random well-typed queries through the printer. *)

open Nested
open Nrab

let re_env = Frontend.Compile.env_of_db Scenarios.Paper_scenarios.db

let re_sql =
  "SELECT name, city FROM FLATTEN(person, address2) WHERE year >= 2019 \
   GROUP BY city NEST name INTO nList"

let re_query () =
  let g = Query.Gen.create () in
  Query.nest_rel g [ "name" ] ~into:"nList"
    (Query.project_attrs g [ "name"; "city" ]
       (Query.select g
          (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019))
          (Query.flatten_inner g "address2" (Query.table g "person"))))

let compile_exn ~env text =
  match Frontend.Compile.text ~env text with
  | Ok (q, ty) -> (q, ty)
  | Error d ->
      Alcotest.failf "unexpected diagnostic:\n%s"
        (Frontend.Diagnostic.render ~source:text d)

let op_ids q = List.map (fun (op : Query.t) -> op.Query.id) (Query.operators q)

let fp = Serve.Fingerprint.query

(* --- the running example, end to end ------------------------------- *)

let test_re_lowering () =
  let q, ty = compile_exn ~env:re_env re_sql in
  let reference = re_query () in
  Alcotest.(check string)
    "same structure" (Parser.query_to_string reference) (Parser.query_to_string q);
  Alcotest.(check (list int)) "same operator ids" (op_ids reference) (op_ids q);
  Alcotest.(check int64) "same fingerprint" (fp reference) (fp q);
  let expected_ty = Typecheck.infer re_env reference in
  Alcotest.(check bool) "same output type" true (Vtype.equal expected_ty ty)

let test_re_print_roundtrip () =
  let reference = re_query () in
  let sql = Frontend.Print.to_sql ~env:re_env reference in
  let q, _ = compile_exn ~env:re_env sql in
  Alcotest.(check int64) "reprint fingerprints equal" (fp reference) (fp q)

(* --- hand-written round-trips over a synthetic schema --------------- *)

let env = Query_gen.env

(* compile, print, re-compile: both compilations must agree modulo ids. *)
let roundtrip ?(env = env) text =
  let q, _ = compile_exn ~env text in
  let sql = Frontend.Print.to_sql ~env q in
  let q2, _ = compile_exn ~env sql in
  if not (Int64.equal (fp q) (fp q2)) then
    Alcotest.failf "round-trip changed the query:\n  input:   %s\n  printed: %s"
      text sql

let test_roundtrips () =
  List.iter roundtrip
    [
      "SELECT * FROM people";
      "SELECT name, age FROM people";
      "SELECT DISTINCT item FROM orders";
      "SELECT name FROM people WHERE age >= 30 AND (active = true OR score < 1.5)";
      "SELECT name FROM people WHERE NOT (name CONTAINS 'ete') OR name IS NOT NULL";
      "SELECT name, age + 1 AS next FROM people WHERE age * 2 - 1 <= 99";
      "SELECT city, year FROM FLATTEN(people, addrs) WHERE year >= 2000";
      "SELECT * FROM UNNEST(people, addrs)";
      "SELECT * FROM FLATTEN OUTER (people, addrs)";
      "SELECT * FROM RENAME(orders, oid AS id, qty AS n)";
      "SELECT name, item FROM people JOIN orders ON age = oid";
      "SELECT name, item FROM people LEFT JOIN orders ON age = oid WHERE qty > 2";
      "SELECT name, item FROM people, orders WHERE age = oid";
      "SELECT item FROM orders UNION SELECT name AS item FROM people";
      "SELECT item FROM orders EXCEPT SELECT item FROM orders WHERE qty < 0";
      "SELECT name, age, score FROM people GROUP BY name NEST age, score \
       INTO rest";
      "SELECT name, age, score, active FROM people GROUP BY name, active \
       NEST TUPLE age AS a, score INTO s";
      "SELECT item, count(*) AS n, sum(qty) AS total FROM orders GROUP BY item";
      "SELECT kind, avg(qty) AS mean FROM orders GROUP BY item AS kind";
      "SELECT item, count(DISTINCT oid) AS ids FROM orders GROUP BY item";
      "WITH big AS (SELECT * FROM orders WHERE qty > 10) SELECT item FROM big";
      "WITH a AS (SELECT oid FROM orders), b AS (SELECT oid AS o FROM a) \
       SELECT * FROM b";
      "SELECT name FROM (SELECT name, age FROM people) WHERE age > 1";
      "SELECT name FROM people WHERE CASE WHEN active = true THEN age > 18 \
       ELSE age > 21 END";
    ]

(* CASE is desugared during lowering; make sure the desugaring is the
   documented or/and/not expansion. *)
let test_case_desugars () =
  let q, _ =
    compile_exn ~env
      "SELECT name FROM people WHERE CASE WHEN active = true THEN age > 18 \
       ELSE age > 21 END"
  in
  let q2, _ =
    compile_exn ~env
      "SELECT name FROM people WHERE (active = true AND age > 18) OR \
       (NOT active = true AND age > 21)"
  in
  Alcotest.(check int64) "case = or/and/not expansion" (fp q2) (fp q)

(* --- s-expression surface: labeled nest/group-by round-trips -------- *)

let test_sexp_labeled_roundtrip () =
  let cases =
    [
      "(nest ((x name)) nList (project (name city) (table people)))";
      "(nest-tuple (age (s score)) pair (table people))";
      "(groupby ((kind item)) ((sum qty total) (count * n)) (table orders))";
    ]
  in
  List.iter
    (fun text ->
      let q = Parser.query_of_string text in
      let printed = Parser.query_to_string q in
      let q2 = Parser.query_of_string printed in
      Alcotest.(check string) "sexp round-trip" printed (Parser.query_to_string q2);
      Alcotest.(check int64) "sexp fingerprint" (fp q) (fp q2))
    cases;
  (* the sexp path in Compile typechecks too *)
  let q, _ =
    compile_exn ~env
      "(nest ((x city)) cities (project (name city) (flatten-inner addrs (table people))))"
  in
  Alcotest.(check bool) "labeled nest typechecks" true (Query.op_count q > 0)

(* --- fuzzer: random well-typed queries survive print -> parse -------- *)

let fuzz_count =
  match Sys.getenv_opt "FRONTEND_FUZZ_COUNT" with
  | Some s -> int_of_string s
  | None -> 1000

let arb_query =
  QCheck.make ~print:(fun q -> Parser.query_to_string q) Query_gen.gen_query

let fuzz_print_roundtrip =
  QCheck.Test.make ~count:fuzz_count ~name:"print/parse round-trip" arb_query
    (fun q ->
      match Frontend.Print.to_sql ~env q with
      | exception Frontend.Print.Unprintable msg ->
          QCheck.Test.fail_reportf "unprintable query: %s\n%s" msg
            (Parser.query_to_string q)
      | sql -> (
          match Frontend.Compile.sql ~env sql with
          | Error d ->
              QCheck.Test.fail_reportf "printed SQL no longer compiles:\n%s\nsexp: %s"
                (Frontend.Diagnostic.render ~source:sql d)
                (Parser.query_to_string q)
          | Ok (q2, _) ->
              if Int64.equal (fp q) (fp q2) then true
              else
                QCheck.Test.fail_reportf
                  "fingerprint drift through print/parse:\n\
                   sql: %s\nbefore: %s\nafter:  %s"
                  sql
                  (Parser.query_to_string q)
                  (Parser.query_to_string q2)))

let fuzz_sexp_roundtrip =
  QCheck.Test.make ~count:fuzz_count ~name:"sexp round-trip" arb_query (fun q ->
      let text = Parser.query_to_string q in
      let q2 = Parser.query_of_string text in
      Int64.equal (fp q) (fp q2))

(* --- diagnostics: exact caret renders ------------------------------- *)

let check_diag ~name text expected =
  match Frontend.Compile.text ~env text with
  | Ok _ -> Alcotest.failf "%s: expected a diagnostic, got Ok" name
  | Error d ->
      Alcotest.(check string) name expected
        (Frontend.Diagnostic.render ~source:text d)

(* Exact caret renders for malformed inputs: the golden strings pin down
   line/column arithmetic, caret width, and hint plumbing. *)
let test_diagnostics () =
  check_diag ~name:"unterminated string"
    "SELECT name FROM people WHERE name = 'unterminated"
    "lex error at 1:38: unterminated string literal\n\
    \  1 | SELECT name FROM people WHERE name = 'unterminated\n\
    \    |                                      ^";
  check_diag ~name:"unknown column" "SELECT nam FROM people"
    "type error at 1:8: unknown column \"nam\" (available: name, age, score, \
     active, addrs)\n\
    \  1 | SELECT nam FROM people\n\
    \    |        ^^^";
  check_diag ~name:"bag/scalar comparison"
    "SELECT name FROM people WHERE addrs = 1"
    "type error at 1:31: cannot compare a value of type {{\u{27E8}city: STR, \
     year: INT\u{27E9}}} \u{2014} comparisons need primitive values\n\
    \  1 | SELECT name FROM people WHERE addrs = 1\n\
    \    |                               ^^^^^\n\
    \  hint: bag attributes can be FLATTENed, aggregated, or tested with a \
     why-not pattern";
  check_diag ~name:"dangling CTE reference"
    "WITH a AS (SELECT * FROM b),\n\
    \     b AS (SELECT * FROM orders)\n\
     SELECT * FROM a"
    "type error at 1:26: unknown table \"b\"\n\
    \  1 | WITH a AS (SELECT * FROM b),\n\
    \    |                          ^\n\
    \  hint: CTE \"b\" is not in scope here; a CTE can only reference tables \
     and CTEs defined before it";
  check_diag ~name:"missing comma between items" "SELECT name age FROM people"
    "parse error at 1:13: expected keyword FROM, found identifier \"age\"\n\
    \  1 | SELECT name age FROM people\n\
    \    |             ^^^\n\
    \  hint: separate select items with commas";
  check_diag ~name:"nest of unselected attribute"
    "SELECT name FROM people GROUP BY name NEST age INTO rest"
    "type error at 1:44: unknown column \"age\" (available: name)\n\
    \  1 | SELECT name FROM people GROUP BY name NEST age INTO rest\n\
    \    |                                            ^^^";
  check_diag ~name:"duplicate output attribute"
    "SELECT name, age AS name FROM people"
    "type error at 1:21: duplicate output attribute \"name\"\n\
    \  1 | SELECT name, age AS name FROM people\n\
    \    |                     ^^^^";
  check_diag ~name:"unknown table" "SELECT * FROM persons"
    "type error at 1:15: unknown table \"persons\"\n\
    \  1 | SELECT * FROM persons\n\
    \    |               ^^^^^^^\n\
    \  hint: available tables: people, orders";
  check_diag ~name:"count(*) without GROUP BY"
    "SELECT count(*) AS n FROM orders"
    "type error at 1:8: count(*) needs a GROUP BY clause\n\
    \  1 | SELECT count(*) AS n FROM orders\n\
    \    |        ^^^^^^^^^^^^^\n\
    \  hint: per-tuple aggregates run over a bag attribute: count(address2) \
     AS n";
  check_diag ~name:"flatten of a scalar" "SELECT * FROM FLATTEN(people, name)"
    "type error at 1:31: FLATTEN expects a bag-of-tuples attribute, but name \
     : STR\n\
    \  1 | SELECT * FROM FLATTEN(people, name)\n\
    \    |                               ^^^^\n\
    \  hint: only nested bag attributes can be flattened";
  check_diag ~name:"join mismatch spans line 4"
    "SELECT name,\n       item\nFROM people\nJOIN orders ON name = qty"
    "type error at 4:16: incomparable types STR vs INT\n\
    \  4 | JOIN orders ON name = qty\n\
    \    |                ^^^^^^^^^^";
  check_diag ~name:"union schema mismatch"
    "SELECT item FROM orders UNION SELECT * FROM people"
    "type error at 1:1: UNION over different schemas: {{\u{27E8}item: \
     STR\u{27E9}}} vs {{\u{27E8}name: STR, age: INT, score: FLOAT, active: \
     BOOL, addrs: {{\u{27E8}city: STR, year: INT\u{27E9}}}\u{27E9}}}\n\
    \  1 | SELECT item FROM orders UNION SELECT * FROM people\n\
    \    | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n\
    \  hint: project both sides to the same attributes in the same order"

(* OCaml-isms glued to digits (0x1F, 0b101, 1_000) must be rejected as
   one bad literal, not silently split into a number followed by an
   identifier. *)
let test_malformed_numbers () =
  check_diag ~name:"hex literal"
    "SELECT name FROM people WHERE age = 0x1F"
    "lex error at 1:37: malformed number \"0x1F\"\n\
    \  1 | SELECT name FROM people WHERE age = 0x1F\n\
    \    |                                     ^^^^";
  check_diag ~name:"binary literal"
    "SELECT name FROM people WHERE age = 0b101"
    "lex error at 1:37: malformed number \"0b101\"\n\
    \  1 | SELECT name FROM people WHERE age = 0b101\n\
    \    |                                     ^^^^^";
  check_diag ~name:"underscore separator"
    "SELECT name FROM people WHERE age = 1_000"
    "lex error at 1:37: malformed number \"1_000\"\n\
    \  1 | SELECT name FROM people WHERE age = 1_000\n\
    \    |                                     ^^^^^";
  check_diag ~name:"trailing junk on a float"
    "SELECT name FROM people WHERE score = 1.5x"
    "lex error at 1:39: malformed number \"1.5x\"\n\
    \  1 | SELECT name FROM people WHERE score = 1.5x\n\
    \    |                                       ^^^^"

(* A tab before the error span: the snippet expands tabs (width 4) and
   measures the carets over the expanded line, so they stay under the
   offending token. *)
let test_tab_expansion () =
  check_diag ~name:"tab before the span"
    "SELECT name\nFROM people\nWHERE\tage = 0x1F"
    "lex error at 3:13: malformed number \"0x1F\"\n\
    \  3 | WHERE   age = 0x1F\n\
    \    |               ^^^^"

(* --- forestry scenarios: SQL-defined family ------------------------- *)

let find_scenario name =
  match Scenarios.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "scenario %s not registered" name

let test_forestry_scenarios () =
  List.iter
    (fun name ->
      let s = find_scenario name in
      let inst = s.Scenarios.Scenario.make ~scale:3 ~seed:11 () in
      let q = inst.Scenarios.Scenario.question in
      (match Whynot.Question.check_missing q with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: NIP does not conform: %s" name e);
      Alcotest.(check bool)
        (name ^ " is a proper why-not question")
        true
        (Whynot.Question.is_proper q);
      Alcotest.(check bool)
        (name ^ " has non-empty output")
        true
        (Whynot.Question.original_result q |> Relation.tuples |> ( <> ) []))
    [ "F1"; "F2" ]

(* The injected error is recoverable: rebuilding F1 over [estimates]
   instead of [years] makes the missing region appear. *)
let test_forestry_alternative_recovers () =
  let s = find_scenario "F1" in
  let inst = s.Scenarios.Scenario.make ~scale:3 ~seed:11 () in
  let q = inst.Scenarios.Scenario.question in
  let db = q.Whynot.Question.db in
  let env = Frontend.Compile.env_of_db db in
  let sql =
    "WITH recent AS (SELECT fcode, year, pct FROM FLATTEN(forest, estimates) \
     WHERE year >= 2015)\n\
     SELECT region, cname, pct\n\
     FROM countries JOIN recent ON ccode = fcode\n\
     WHERE CASE WHEN income = 'High income' THEN pct >= 40. ELSE pct >= 60. \
     END\n\
     GROUP BY region NEST cname, pct INTO top"
  in
  let fixed, _ = compile_exn ~env sql in
  Alcotest.(check bool)
    "estimates alternative restores the region" true
    (Whynot.Question.is_successful q fixed)

(* NIP pattern diagnostics share the same renderer (satellite 2). *)
let test_nip_diagnostics () =
  (match Whynot.Nip_syntax.parse "(tuple (city (str NY))" with
  | Ok _ -> Alcotest.fail "expected a pattern diagnostic"
  | Error d ->
      Alcotest.(check string) "unterminated pattern"
        "pattern error at 1:1: unterminated list\n\
        \  1 | (tuple (city (str NY))\n\
        \    | ^"
        (Frontend.Diagnostic.render ~source:"(tuple (city (str NY))" d));
  (match Whynot.Nip_syntax.parse "(tuple (city (oops NY)))" with
  | Ok _ -> Alcotest.fail "expected a pattern diagnostic"
  | Error d ->
      Alcotest.(check bool) "structural error carries a span" true
        (d.Frontend.Diagnostic.span <> None));
  match Whynot.Nip_syntax.parse "(tuple (city (str NY)) (nList (bag ? *)))" with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "running example pattern should parse:\n%s"
        (Frontend.Diagnostic.one_line
           ~source:"(tuple (city (str NY)) (nList (bag ? *)))" d)

let () =
  Alcotest.run "frontend"
    [
      ( "running-example",
        [
          Alcotest.test_case "lowering" `Quick test_re_lowering;
          Alcotest.test_case "print-roundtrip" `Quick test_re_print_roundtrip;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "handwritten" `Quick test_roundtrips;
          Alcotest.test_case "case-desugar" `Quick test_case_desugars;
          Alcotest.test_case "sexp-labeled" `Quick test_sexp_labeled_roundtrip;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest fuzz_print_roundtrip;
          QCheck_alcotest.to_alcotest fuzz_sexp_roundtrip;
        ] );
      ( "forestry",
        [
          Alcotest.test_case "scenarios" `Quick test_forestry_scenarios;
          Alcotest.test_case "alternative-recovers" `Quick
            test_forestry_alternative_recovers;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "golden" `Quick test_diagnostics;
          Alcotest.test_case "malformed-numbers" `Quick test_malformed_numbers;
          Alcotest.test_case "tab-expansion" `Quick test_tab_expansion;
          Alcotest.test_case "nip-patterns" `Quick test_nip_diagnostics;
        ] );
    ]
