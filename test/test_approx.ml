(* Exact-vs-approximate agreement.

   The budget ladder must degrade, never corrupt: an unlimited budget
   (or a fully-off config) renders byte-identical to an exact run, a
   top-k cutoff at or above the result size is the full ranking, and
   sampled runs carry honest confidences — at most 1.0, monotonically
   non-increasing in the stride.  The stride-3 sampled explanations
   themselves are pinned in the golden corpus (explanations.expected). *)

let render (q : Nrab.Query.t) (rp : Whynot.Pipeline.result) =
  String.concat "\n"
    (List.map
       (fun (e : Whynot.Explanation.t) ->
         Fmt.str "%s lb=%d ub=%d sa=%d conf=%s"
           (Whynot.Explanation.to_string_with_query q e)
           e.Whynot.Explanation.side_effect_lb
           e.Whynot.Explanation.side_effect_ub e.Whynot.Explanation.sa
           (match e.Whynot.Explanation.confidence with
           | None -> "-"
           | Some c -> Fmt.str "%.4f" c))
       rp.Whynot.Pipeline.explanations)

let approx cfg = Whynot.Approx.start cfg

let sampled stride =
  { Whynot.Approx.exact with Whynot.Approx.sample_stride = Some stride }

let scenario_runs f =
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = s.Scenarios.Scenario.make ~scale:1 () in
      let phi = inst.Scenarios.Scenario.question in
      let explain ?approx () =
        Whynot.Pipeline.explain ?approx
          ~alternatives:inst.Scenarios.Scenario.alternatives phi
      in
      f s.Scenarios.Scenario.name phi.Whynot.Question.query explain)
    Scenarios.Registry.all

(* no budget, unlimited budget, and an all-off config are the same run *)
let test_unlimited_budget_is_exact () =
  scenario_runs (fun name q explain ->
      let reference = render q (explain ()) in
      let unlimited =
        approx
          {
            Whynot.Approx.exact with
            Whynot.Approx.budget_ms = Some 3.6e6 (* an hour: never burns *);
          }
      in
      Alcotest.(check string)
        (name ^ ": unlimited budget is byte-identical")
        reference
        (render q (explain ~approx:unlimited ()));
      Alcotest.(check string)
        (name ^ ": all-off config is byte-identical")
        reference
        (render q (explain ~approx:(approx Whynot.Approx.exact) ()));
      match (explain ~approx:unlimited ()).Whynot.Pipeline.approx with
      | Some r ->
        Alcotest.(check string) (name ^ ": mode is exact") "exact"
          r.Whynot.Approx.mode;
        Alcotest.(check (float 0.0)) (name ^ ": confidence 1") 1.0
          r.Whynot.Approx.confidence;
        Alcotest.(check int) (name ^ ": nothing skipped") 0
          r.Whynot.Approx.skipped
      | None -> ())

(* a top-k cutoff at (or above) the result size is the full ranking *)
let test_topk_at_size_is_full_ranking () =
  scenario_runs (fun name q explain ->
      let exact = explain () in
      let n = List.length exact.Whynot.Pipeline.explanations in
      let at k =
        explain
          ~approx:
            (approx { Whynot.Approx.exact with Whynot.Approx.top_k = Some k })
          ()
      in
      List.iter
        (fun k ->
          let r = at k in
          Alcotest.(check string)
            (Fmt.str "%s: top-%d of %d is the full ranking" name k n)
            (render q exact) (render q r);
          match r.Whynot.Pipeline.approx with
          | Some rep ->
            Alcotest.(check (option int))
              (name ^ ": report names the cutoff")
              (Some k) rep.Whynot.Approx.top_k
          | None -> Alcotest.fail (name ^ ": top-k run must carry a report"))
        [ n; n + 3 ];
      (* a genuine cutoff keeps exactly the k best, and they are a
         prefix of the exact ranking *)
      if n > 1 then begin
        let r = at 1 in
        let kept = r.Whynot.Pipeline.explanations in
        Alcotest.(check int) (name ^ ": top-1 keeps one") 1 (List.length kept);
        match (kept, exact.Whynot.Pipeline.explanations) with
        | e :: _, best :: _ ->
          Alcotest.(check string)
            (name ^ ": top-1 is the exact winner")
            (Whynot.Explanation.to_string_with_query q best)
            (Whynot.Explanation.to_string_with_query q e)
        | _ -> Alcotest.fail (name ^ ": empty ranking")
      end)

(* sampled confidences: at most 1, stamped from the stride, and
   non-increasing as the stride grows *)
let test_confidence_bounds_and_monotonicity () =
  scenario_runs (fun name _q explain ->
      let confidence stride =
        let r = explain ~approx:(approx (sampled stride)) () in
        List.iter
          (fun (e : Whynot.Explanation.t) ->
            match e.Whynot.Explanation.confidence with
            | Some c ->
              Alcotest.(check bool)
                (Fmt.str "%s: confidence %g in (0,1]" name c)
                true
                (c > 0.0 && c <= 1.0)
            | None ->
              if stride > 1 then
                Alcotest.fail
                  (name ^ ": sampled explanations must carry a confidence"))
          r.Whynot.Pipeline.explanations;
        match r.Whynot.Pipeline.approx with
        | Some rep ->
          Alcotest.(check bool)
            (name ^ ": report confidence in (0,1]")
            true
            (rep.Whynot.Approx.confidence > 0.0
            && rep.Whynot.Approx.confidence <= 1.0);
          rep.Whynot.Approx.confidence
        | None -> 1.0
      in
      let cs = List.map confidence [ 1; 2; 4; 8 ] in
      let rec check_monotone = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool)
            (Fmt.str "%s: confidence non-increasing (%g >= %g)" name a b)
            true (a >= b);
          check_monotone rest
        | _ -> ()
      in
      check_monotone cs)

let () =
  Alcotest.run "approx"
    [
      ( "agreement",
        [
          Alcotest.test_case "unlimited budget is exact" `Quick
            test_unlimited_budget_is_exact;
          Alcotest.test_case "top-k at size is the full ranking" `Quick
            test_topk_at_size_is_full_ranking;
          Alcotest.test_case "confidence bounds and monotonicity" `Quick
            test_confidence_bounds_and_monotonicity;
        ] );
    ]
