(* Row-at-a-time references vs the columnar engine, per registry
   scenario.

   The query result must equal the row-at-a-time reference evaluator
   [Nrab.Eval]'s, and the explanations (exact and stride-3 sampled) must
   render exactly as the scenario's block of the golden corpus
   [explanations.expected] — the corpus was printed under the former
   row-at-a-time engine and the columnar engine with identical bytes.
   The runtest diff rule guards the whole corpus; these cases name the
   scenario that moved. *)

open Nested

let corpus =
  lazy
    (Golden.parse
       (In_channel.with_open_bin "explanations.expected" In_channel.input_all))

let test_scenario (s : Scenarios.Scenario.t) () =
  let name = s.Scenarios.Scenario.name in
  let phi = (s.Scenarios.Scenario.make ~scale:1 ()).Scenarios.Scenario.question in
  let db = phi.Whynot.Question.db and q = phi.Whynot.Question.query in
  let result r = Value.to_string (Relation.data r) in
  Alcotest.(check string)
    "query result = Nrab.Eval"
    (result (Nrab.Eval.eval db q))
    (result (fst (Engine.Exec.run db q)));
  match List.assoc_opt name (Lazy.force corpus) with
  | None -> Alcotest.failf "%s has no block in explanations.expected" name
  | Some expected ->
    Alcotest.(check string) "explanations = golden corpus" expected
      (Golden.block s)

let cases =
  List.map
    (fun (s : Scenarios.Scenario.t) ->
      Alcotest.test_case
        (s.Scenarios.Scenario.name ^ " row = columnar")
        `Quick (test_scenario s))
    Scenarios.Registry.all

let () = Alcotest.run "determinism" [ ("row-vs-columnar", cases) ]
