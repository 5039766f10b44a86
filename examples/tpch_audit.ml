(* Auditing a revenue report (scenario Q10): customer 61402 returned items
   and should show up with a non-zero revenue loss — but the report misses
   them entirely.  Three errors hide in the query; we compare what the
   different explanation approaches recover, and show the engine's
   execution statistics for the original query.

     dune exec examples/tpch_audit.exe *)

let () =
  let s = Option.get (Scenarios.Registry.find "Q10") in
  let inst = s.Scenarios.Scenario.make ~scale:2 () in
  let phi = inst.Scenarios.Scenario.question in
  let q = phi.Whynot.Question.query in

  Fmt.pr "report query:@.  %a@.@." Nrab.Query.pp q;

  (* Run the report on the mini-DISC engine and show what a Spark UI
     would show: per-operator cardinalities and shuffles. *)
  let result, stats = Engine.Exec.run phi.Whynot.Question.db q in
  Fmt.pr "report rows: %d@." (Nested.Relation.cardinal result);
  Fmt.pr "%a@.@." Engine.Stats.pp stats;

  Fmt.pr "missing: %a@.@." Whynot.Nip.pp phi.Whynot.Question.missing;

  (* The lineage baseline blames the customer/orders join — misleading:
     even an outer join cannot produce the demanded non-zero revenue. *)
  let wnpp = Baselines.Wnpp.explanations phi in
  Fmt.pr "WN++:   %s   (misleading — cannot yield revenue > 0)@."
    (String.concat ", " (List.map Baselines.Explanation_set.to_string wnpp));

  (* Reparameterization-based explanations without and with schema
     alternatives. *)
  let rpnosa = Whynot.Pipeline.explain ~use_sas:false phi in
  Fmt.pr "RPnoSA: %s@."
    (String.concat ", "
       (List.map
          (Whynot.Explanation.to_string_with_query q)
          rpnosa.Whynot.Pipeline.explanations));
  let rp =
    Whynot.Pipeline.explain ~alternatives:inst.Scenarios.Scenario.alternatives phi
  in
  Fmt.pr "RP:     %s@."
    (String.concat ", "
       (List.map
          (Whynot.Explanation.to_string_with_query q)
          rp.Whynot.Pipeline.explanations));

  Fmt.pr
    "@.The last RP explanation {σ, σ, π} pinpoints all three injected\n\
     errors: the return-flag constant, the order-date window, and the\n\
     tax-for-discount swap inside the revenue projection.@."
