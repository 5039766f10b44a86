(* Recovery by phase replay: a faulted explain is byte-identical to a
   clean one with the engine-run and every tracing fault site flaking at
   once — the pipeline's phase retry is the one recovery path, and it
   recomputes each faulted phase from immutable inputs — and a killed
   pool worker does not lose its job.  Ends with the chaos-coverage
   lint: every registered fault site must have been armed by some test
   in this binary. *)

let transient msg = Engine.Fault.Transient (Failure msg)

let fast_retries n =
  Engine.Fault.retries ~base_backoff_ms:0.0 ~max_backoff_ms:0.0 n

(* --- pipeline byte-identity ----------------------------------------------- *)

let result_fingerprint (r : Whynot.Pipeline.result) =
  Fmt.str "%a|%a" Whynot.Pipeline.pp_result r
    Fmt.(Dump.list (Dump.list int))
    (Whynot.Pipeline.explanation_sets r)

(* The engine's run of ⟦Q⟧_D, the share job and every SA's relaxed
   trace flake in the same runs; each fault is replayed from immutable
   inputs, so the explanations do not move. *)
let test_every_site_flaking () =
  let insts =
    List.map
      (fun (s : Scenarios.Scenario.t) ->
        (s.Scenarios.Scenario.name, s.Scenarios.Scenario.make ~scale:1 ()))
      Scenarios.Registry.all
  in
  let explain ~retry (inst : Scenarios.Scenario.instance) =
    result_fingerprint
      (Whynot.Pipeline.explain ~retry
         ~alternatives:inst.Scenarios.Scenario.alternatives
         inst.Scenarios.Scenario.question)
  in
  let sites =
    [ ("engine.run", 7); ("tracing.relaxed", 3); ("tracing.shared", 2) ]
  in
  Obs.Faultinject.reset ();
  let plain =
    List.map (fun (n, i) -> (n, explain ~retry:Engine.Fault.no_retry i)) insts
  in
  List.iter
    (fun (site, period) ->
      Obs.Faultinject.arm site
        (Obs.Faultinject.Flaky { period; exn_ = transient "chaos" }))
    sites;
  let armed =
    List.map (fun (n, i) -> (n, explain ~retry:(fast_retries 3) i)) insts
  in
  let fired = List.map (fun (site, _) -> (site, Obs.Faultinject.fired site)) sites in
  Obs.Faultinject.reset ();
  List.iter
    (fun (site, n) ->
      Alcotest.(check bool) (Fmt.str "%s actually fired" site) true (n > 0))
    fired;
  List.iter2
    (fun (name, expected) (_, got) ->
      Alcotest.(check string)
        (Fmt.str "%s: chaos run byte-identical" name)
        expected got)
    plain armed

(* --- pool supervision under chaos (arms the worker site) ------------------ *)

let test_pool_worker_death_survived () =
  Obs.Faultinject.reset ();
  Obs.Faultinject.arm "engine.pool.worker"
    (Obs.Faultinject.Fail { times = 1; exn_ = Failure "chaos: worker killed" });
  let pool = Engine.Pool.create ~size:2 () in
  let fut = Engine.Pool.submit pool (fun () -> 6 * 7) in
  Alcotest.(check int) "job survives the dead worker" 42
    (Engine.Pool.await fut);
  Engine.Pool.shutdown pool;
  Obs.Faultinject.reset ()

(* --- chaos-coverage lint --------------------------------------------------- *)

(* Every registered fault-injection site must have been armed by some
   test in this binary — a site nobody ever arms is dead chaos
   surface.  Runs last (suites execute in order). *)
let test_every_site_armed () =
  let registered = Obs.Faultinject.registered_sites () in
  let armed = Obs.Faultinject.ever_armed () in
  Alcotest.(check bool) "sites are registered" true (registered <> []);
  List.iter
    (fun site ->
      if not (List.mem site armed) then
        Alcotest.fail
          (Fmt.str
             "chaos site %S is registered but never armed by any test in \
              this binary — add a chaos test exercising it"
             site))
    registered

let () =
  Alcotest.run "recover"
    [
      ( "pipeline byte-identity",
        [
          Alcotest.test_case "every site flaking at once" `Quick
            test_every_site_flaking;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker death survived" `Quick
            test_pool_worker_death_survived;
        ] );
      ( "chaos coverage",
        [
          Alcotest.test_case "every registered site armed" `Quick
            test_every_site_armed;
        ] );
    ]
