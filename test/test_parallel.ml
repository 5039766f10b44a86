(* The parallel execution layer must be invisible in the results: the
   engine agrees with [Nrab.Eval] on every registered scenario, and the
   pipeline, which fans exact multi-SA runs out over the domain pool,
   ranks exactly like the sequential composition of its layers. *)

open Nested

let relation_string r = Value.to_string (Relation.data r)

let scenario_instances () =
  List.map
    (fun (s : Scenarios.Scenario.t) ->
      (s.Scenarios.Scenario.name, s.Scenarios.Scenario.make ~scale:1 ()))
    Scenarios.Registry.all

(* Engine = Eval, for every scenario. *)
let test_engine_agreement () =
  List.iter
    (fun (name, (inst : Scenarios.Scenario.instance)) ->
      let phi = inst.Scenarios.Scenario.question in
      let db = phi.Whynot.Question.db in
      let q = phi.Whynot.Question.query in
      Alcotest.(check string)
        (Fmt.str "%s: engine = Eval" name)
        (relation_string (Nrab.Eval.eval db q))
        (relation_string (fst (Engine.Exec.run db q)));
      (* [Exec.rows] is the same run before the relation's sort: the
         same rows, in engine order. *)
      let sorted rows = List.sort Value.compare rows in
      Alcotest.(check (list string))
        (Fmt.str "%s: Exec.rows is a permutation of Exec.run" name)
        (List.map Value.to_string
           (sorted (Relation.tuples (fst (Engine.Exec.run db q)))))
        (List.map Value.to_string (sorted (Engine.Columnar.to_rows (fst (Engine.Exec.rows db q))))))
    (scenario_instances ())

(* One explanation, every field the ranking and the codec read. *)
let render_explanation (e : Whynot.Explanation.t) =
  Fmt.str "%a conf=%s" Whynot.Explanation.pp e
    (match e.Whynot.Explanation.confidence with
    | Some c -> Fmt.str "%g" c
    | None -> "-")

(* Algorithm 1 composed from the public layer calls, one SA after the
   other: Backtrace.run → Tracing.run → Msr.from_trace per SA in SA
   order, then prune + rank over the concatenated candidates. *)
let sequential_composition (inst : Scenarios.Scenario.instance) =
  let phi = inst.Scenarios.Scenario.question in
  let db = phi.Whynot.Question.db and q = phi.Whynot.Question.query in
  let env = Whynot.Pipeline.schema_env db in
  let sas =
    Whynot.Alternatives.enumerate ~env q inst.Scenarios.Scenario.alternatives
  in
  let bi =
    {
      Whynot.Msr.original_result =
        Relation.tuples (fst (Engine.Exec.run db q));
    }
  in
  let candidates =
    List.concat_map
      (fun (sa : Whynot.Alternatives.sa) ->
        let bt =
          Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query
            phi.Whynot.Question.missing
        in
        Whynot.Msr.from_trace ~bi ~q (Whynot.Tracing.run ~env db sa bt))
      sas
  in
  Whynot.Explanation.rank (Whynot.Explanation.prune_dominated candidates)

(* Pipeline.explain (parallel SAs wherever a scenario has more than one)
   = the sequential composition, for every scenario, twice: the second
   round's MSR calls reuse the per-domain scratch every domain kept from
   the first. *)
let test_pipeline_equals_composition () =
  let instances = scenario_instances () in
  let expected =
    List.map
      (fun (_, inst) -> List.map render_explanation (sequential_composition inst))
      instances
  in
  List.iter
    (fun round ->
      List.iter2
        (fun (name, (inst : Scenarios.Scenario.instance)) expected ->
          let r =
            Whynot.Pipeline.explain
              ~alternatives:inst.Scenarios.Scenario.alternatives
              inst.Scenarios.Scenario.question
          in
          Alcotest.(check (list string))
            (Fmt.str "%s, round %d: explanations" name round)
            expected
            (List.map render_explanation r.Whynot.Pipeline.explanations))
        instances expected)
    [ 1; 2 ]

let is_sa_span sp =
  String.length (Obs.Span.name sp) > 3
  && String.sub (Obs.Span.name sp) 0 3 = "sa:"

let parallel_sas (r : Whynot.Pipeline.result) =
  match Obs.Span.attr r.Whynot.Pipeline.span "parallel_sas" with
  | Some (Obs.Span.Bool b) -> b
  | _ -> false

(* The first scenario that enumerates more than one SA. *)
let multi_sa_instance =
  lazy
    (List.find
       (fun (inst : Scenarios.Scenario.instance) ->
         let phi = inst.Scenarios.Scenario.question in
         let env = Whynot.Pipeline.schema_env phi.Whynot.Question.db in
         List.length
           (Whynot.Alternatives.enumerate ~env phi.Whynot.Question.query
              inst.Scenarios.Scenario.alternatives)
         > 1)
       (List.map snd (scenario_instances ())))

let explain_multi ?approx ?use_sas () =
  let inst = Lazy.force multi_sa_instance in
  Whynot.Pipeline.explain ?approx ?use_sas
    ~alternatives:inst.Scenarios.Scenario.alternatives
    inst.Scenarios.Scenario.question

let test_exact_multi_sa_is_parallel () =
  Alcotest.(check bool) "exact multi-SA run sets parallel_sas" true
    (parallel_sas (explain_multi ()));
  (* a stride with no wall-clock budget decides the same for every SA *)
  let strided =
    Whynot.Approx.start
      { Whynot.Approx.exact with Whynot.Approx.sample_stride = Some 2 }
  in
  Alcotest.(check bool) "unbudgeted sampled run sets parallel_sas" true
    (parallel_sas (explain_multi ~approx:strided ()))

let test_use_sas_false_is_sequential () =
  let r = explain_multi ~use_sas:false () in
  Alcotest.(check int) "one SA" 1 (List.length r.Whynot.Pipeline.sas);
  Alcotest.(check bool) "single-SA run does not set parallel_sas" false
    (parallel_sas r)

(* A budgeted run keeps the sequential path: its SA spans tile one after
   another, carry no queue wait, and each SA's tracing stride is the
   rung the ladder decided for it. *)
let test_budgeted_is_sequential () =
  let hour = 3.6e6 in
  let budget ~spent =
    Whynot.Approx.start
      ~from_ns:(Obs.Clock.now_ns () - int_of_float (spent *. hour *. 1e6))
      { Whynot.Approx.exact with Whynot.Approx.budget_ms = Some hour }
  in
  let exact = explain_multi () in
  List.iter
    (fun (spent, mode, stride, top_k) ->
      let r = explain_multi ~approx:(budget ~spent) () in
      let label = Fmt.str "%.0f%% spent" (spent *. 100.) in
      Alcotest.(check bool) (label ^ ": no parallel_sas") false (parallel_sas r);
      let sa_spans = Obs.Span.find_all is_sa_span r.Whynot.Pipeline.span in
      Alcotest.(check int)
        (label ^ ": one span per SA")
        (List.length r.Whynot.Pipeline.sas)
        (List.length sa_spans);
      ignore
        (List.fold_left
           (fun prev_end sp ->
             Alcotest.(check bool)
               (Fmt.str "%s: %s starts after its predecessor" label
                  (Obs.Span.name sp))
               true
               (Obs.Span.start_ns sp >= prev_end);
             Alcotest.(check bool)
               (Fmt.str "%s: %s has no queued_ms" label (Obs.Span.name sp))
               true
               (Obs.Span.attr sp "queued_ms" = None);
             Option.get (Obs.Span.end_ns sp))
           0 sa_spans);
      let report = Option.get r.Whynot.Pipeline.approx in
      Alcotest.(check string) (label ^ ": mode") mode report.Whynot.Approx.mode;
      Alcotest.(check int) (label ^ ": max stride") stride
        report.Whynot.Approx.max_stride;
      Alcotest.(check (option int)) (label ^ ": top-k") top_k
        report.Whynot.Approx.top_k;
      if stride = 1 then
        Alcotest.(check (list string))
          (label ^ ": same explanations as the exact run")
          (List.map render_explanation exact.Whynot.Pipeline.explanations)
          (List.map render_explanation r.Whynot.Pipeline.explanations))
    [
      (0.0, "exact", 1, None);
      (0.5, "sampled", 4, None);
      (0.9, "top_k", 8, Some 3);
    ]

(* The span tree keeps one sa:S<i> child per schema alternative even
   when the SAs run concurrently, each still has its three phases and
   records its queue wait, and the root-level prune+rank starts only
   after the last SA finished. *)
let test_parallel_span_tree () =
  let par = explain_multi () in
  let n_sas = List.length par.Whynot.Pipeline.sas in
  let span = par.Whynot.Pipeline.span in
  let sa_spans = Obs.Span.find_all is_sa_span span in
  Alcotest.(check int) "one sa span per SA" n_sas (List.length sa_spans);
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (Fmt.str "%s finished" (Obs.Span.name sp))
        true (Obs.Span.finished sp);
      (match Obs.Span.attr sp "queued_ms" with
      | Some (Obs.Span.Float ms) ->
        Alcotest.(check bool)
          (Fmt.str "%s queued_ms >= 0" (Obs.Span.name sp))
          true (ms >= 0.0)
      | _ -> Alcotest.failf "%s must record queued_ms" (Obs.Span.name sp));
      List.iter
        (fun phase ->
          Alcotest.(check int)
            (Fmt.str "%s has %s" (Obs.Span.name sp) phase)
            1
            (Obs.Span.count_named phase sp))
        [ "backtrace"; "tracing"; "msr" ])
    sa_spans;
  Alcotest.(check bool) "root span records parallel_sas" true
    (parallel_sas par);
  let last_sa_end =
    List.fold_left
      (fun m sp -> max m (Option.get (Obs.Span.end_ns sp)))
      0 sa_spans
  in
  match
    List.rev
      (List.filter
         (fun sp -> Obs.Span.name sp = "msr")
         (Obs.Span.children span))
  with
  | rank :: _ ->
    Alcotest.(check bool) "prune+rank msr span starts after every SA" true
      (Obs.Span.start_ns rank >= last_sa_end)
  | [] -> Alcotest.fail "root must have a prune+rank msr span"

let () =
  Alcotest.run "parallel"
    [
      ( "agreement",
        [
          Alcotest.test_case "engine = Eval" `Quick
            test_engine_agreement;
          Alcotest.test_case "pipeline = sequential layer composition" `Quick
            test_pipeline_equals_composition;
        ] );
      ( "selection",
        [
          Alcotest.test_case "exact multi-SA runs in parallel" `Quick
            test_exact_multi_sa_is_parallel;
          Alcotest.test_case "budgeted run stays sequential" `Quick
            test_budgeted_is_sequential;
          Alcotest.test_case "single-SA run stays sequential" `Quick
            test_use_sas_false_is_sequential;
        ] );
      ( "spans",
        [ Alcotest.test_case "parallel span tree" `Quick test_parallel_span_tree ] );
    ]
