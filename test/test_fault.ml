(* Fault tolerance: transient faults, the retry loop, pool
   supervision, and — the property the whole layer exists for — that a
   chaos run (deterministic transient faults replayed by the pipeline's
   phase retry) produces byte-identical results to a fault-free run. *)

open Nested

let transient msg = Engine.Fault.Transient (Failure msg)

let counter_value name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

(* --- protect ------------------------------------------------------------- *)

let test_protect_recovers () =
  let tries = ref 0 in
  let retried_at = ref [] in
  let r =
    Engine.Fault.protect ~retries:3 ~task:"flaky"
      ~on_retry:(fun ~attempt _ -> retried_at := attempt :: !retried_at)
      (fun () ->
        incr tries;
        if !tries <= 2 then raise (transient "blip");
        "ok")
  in
  Alcotest.(check string) "recovers" "ok" r;
  Alcotest.(check int) "two faults, three attempts" 3 !tries;
  Alcotest.(check (list int)) "on_retry saw attempts 2,3" [ 3; 2 ] !retried_at

let test_protect_permanent_not_retried () =
  let tries = ref 0 in
  (match
     Engine.Fault.protect ~retries:5 (fun () ->
         incr tries;
         failwith "permanent")
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "one attempt only" 1 !tries;
  (* a cancelled run must not retry: cancellation is permanent *)
  let tries = ref 0 in
  (match
     Engine.Fault.protect ~retries:5 (fun () ->
         incr tries;
         raise (Whynot.Cancel.Cancelled "deadline"))
   with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception Whynot.Cancel.Cancelled _ -> ());
  Alcotest.(check int) "cancellation is permanent" 1 !tries

let test_protect_exhaustion () =
  let boom = Failure "disk on fire" in
  let before = counter_value "engine.task.exhausted" in
  (match
     Engine.Fault.protect ~retries:2 ~task:"op:x#1/p3" (fun () ->
         raise (Engine.Fault.Transient boom))
   with
  | _ -> Alcotest.fail "expected Exhausted"
  | exception Engine.Fault.Exhausted { task; attempts; last } ->
    Alcotest.(check string) "task attribution" "op:x#1/p3" task;
    Alcotest.(check int) "all attempts spent" 3 attempts;
    Alcotest.(check bool) "last fault unwrapped" true (last == boom));
  Alcotest.(check int)
    "exhaustion counted" 1
    (counter_value "engine.task.exhausted" - before);
  (* a negative budget is clamped to no retries: one attempt *)
  match
    Engine.Fault.protect ~retries:(-3) (fun () ->
        raise (Engine.Fault.Transient boom))
  with
  | _ -> Alcotest.fail "expected Exhausted"
  | exception Engine.Fault.Exhausted { attempts; _ } ->
    Alcotest.(check int) "negative retries clamped" 1 attempts

let test_abort_suppresses_retries () =
  (* cancellation composes with retries: the abort hook is polled before
     each re-attempt, so a cancelled run raises instead of burning its
     retry budget *)
  let cancel = Whynot.Cancel.create () in
  let tries = ref 0 in
  (match
     Engine.Fault.protect ~retries:5
       ~abort:(fun () ->
         if Whynot.Cancel.cancelled cancel then
           Some (Whynot.Cancel.Cancelled "retry-gate")
         else None)
       (fun () ->
         incr tries;
         Whynot.Cancel.cancel cancel;
         raise (transient "blip"))
   with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception Whynot.Cancel.Cancelled where ->
    Alcotest.(check string) "abort names the gate" "retry-gate" where);
  Alcotest.(check int) "no retry after cancellation" 1 !tries

(* --- pool supervision ---------------------------------------------------- *)

let test_worker_death_detected () =
  Obs.Faultinject.reset ();
  let before = counter_value "engine.pool.worker_deaths" in
  (* every fire of the site raises: both workers die at their first loop
     iteration, before dequeueing anything *)
  Obs.Faultinject.arm "engine.pool.worker"
    (Obs.Faultinject.Fail { times = 2; exn_ = Failure "chaos: worker killed" });
  let pool = Engine.Pool.create ~size:2 () in
  (* the queue survives the deaths; await helps, so the job still runs *)
  let fut = Engine.Pool.submit pool (fun () -> 5 * 5) in
  Alcotest.(check int) "job survives dead workers" 25 (Engine.Pool.await fut);
  Engine.Pool.shutdown pool;
  Obs.Faultinject.reset ();
  Alcotest.(check int)
    "both deaths detected at join" 2
    (counter_value "engine.pool.worker_deaths" - before)

let test_shutdown_drains_stranded_jobs () =
  Obs.Faultinject.reset ();
  Obs.Faultinject.arm "engine.pool.worker"
    (Obs.Faultinject.Fail { times = 1; exn_ = Failure "chaos: worker killed" });
  let pool = Engine.Pool.create ~size:1 () in
  let futs = List.init 4 (fun i -> Engine.Pool.submit pool (fun () -> i * i)) in
  (* no await before shutdown: anything the dead worker stranded in the
     queue must be recomputed inline by shutdown itself *)
  Engine.Pool.shutdown pool;
  Obs.Faultinject.reset ();
  List.iteri
    (fun i fut ->
      Alcotest.(check int)
        (Fmt.str "stranded job %d resolved" i)
        (i * i) (Engine.Pool.await fut))
    futs

(* --- determinism under chaos --------------------------------------------- *)

let scenario_questions () =
  List.map
    (fun (s : Scenarios.Scenario.t) ->
      (s.Scenarios.Scenario.name, s.Scenarios.Scenario.make ~scale:1 ()))
    Scenarios.Registry.all

let result_fingerprint (r : Whynot.Pipeline.result) =
  Json.to_string (Serve.Codec.result_to_json ~timings:false r)

(* Arm [site] Flaky with [period] and explain every registry scenario
   under a retry budget: every fault is replayed from immutable inputs,
   so the explanation JSON and the ranking match the unarmed run. *)
let pipeline_identical_under ~site ~period () =
  let insts = scenario_questions () in
  let run ~retries (inst : Scenarios.Scenario.instance) =
    Whynot.Pipeline.explain ~retries
      ~alternatives:inst.Scenarios.Scenario.alternatives
      inst.Scenarios.Scenario.question
  in
  Obs.Faultinject.reset ();
  let plain =
    List.map (fun (n, i) -> (n, run ~retries:0 i)) insts
  in
  Obs.Faultinject.arm site
    (Obs.Faultinject.Flaky { period; exn_ = transient "chaos" });
  let armed = List.map (fun (n, i) -> (n, run ~retries:3 i)) insts in
  let triggered = Obs.Faultinject.fired site in
  Obs.Faultinject.reset ();
  Alcotest.(check bool) "chaos actually fired" true (triggered > 0);
  List.iter2
    (fun (name, expected) (_, got) ->
      Alcotest.(check string)
        (Fmt.str "%s: explanation JSON byte-identical" name)
        (result_fingerprint expected) (result_fingerprint got);
      Alcotest.(check (list (list int)))
        (Fmt.str "%s: ranking identical" name)
        (Whynot.Pipeline.explanation_sets expected)
        (Whynot.Pipeline.explanation_sets got))
    plain armed

(* Arm [site] to fail on every attempt: the explain exhausts its budget
   of 3 attempts, and [task_ok] checks which task the error names. *)
let pipeline_exhaustion_attributed ~site task_ok () =
  let inst =
    (Option.get (Scenarios.Registry.find "RE")).Scenarios.Scenario.make
      ~scale:1 ()
  in
  Obs.Faultinject.reset ();
  Obs.Faultinject.arm site
    (Obs.Faultinject.Fail { times = -1; exn_ = transient "hard chaos" });
  (match
     Whynot.Pipeline.explain ~retries:2
       ~alternatives:inst.Scenarios.Scenario.alternatives
       inst.Scenarios.Scenario.question
   with
  | _ -> Alcotest.fail "expected Exhausted"
  | exception Engine.Fault.Exhausted { task; attempts; _ } ->
    Alcotest.(check bool) (Fmt.str "task %S attributed" task) true
      (task_ok task);
    Alcotest.(check int) "budget spent" 3 attempts);
  Obs.Faultinject.reset ()

(* Period 3 on the per-SA tracing site: roughly every third schema
   alternative's data-tracing attempt faults and is recomputed; an
   exhausted one names its SA. *)
let test_pipeline_identical_under_chaos =
  pipeline_identical_under ~site:"tracing.relaxed" ~period:3

let test_pipeline_exhaustion_attributed =
  pipeline_exhaustion_attributed ~site:"tracing.relaxed"
    (String.starts_with ~prefix:"sa:S1")

(* ⟦Q⟧_D runs on the engine inside [prepare].  The engine does not
   retry: a fault in its run propagates unwrapped, the [prepare/msr]
   phase replays the whole run, and an exhausted one names that phase. *)
let test_pipeline_identical_under_partition_chaos =
  pipeline_identical_under ~site:"engine.run" ~period:7

let test_pipeline_partition_exhaustion_attributed =
  pipeline_exhaustion_attributed ~site:"engine.run" (String.equal "prepare/msr")

(* One faulted engine run is replayed by the phase that owns it: the
   explanations are byte-identical to an unarmed run, and the retry is
   marked on the [prepare] [msr] phase span, not on any span of the
   engine run inside it. *)
let test_engine_run_replayed_by_phase () =
  let inst =
    (Option.get (Scenarios.Registry.find "RE")).Scenarios.Scenario.make
      ~scale:1 ()
  in
  let explain () =
    Whynot.Pipeline.explain ~retries:1
      ~alternatives:inst.Scenarios.Scenario.alternatives
      inst.Scenarios.Scenario.question
  in
  Obs.Faultinject.reset ();
  let plain = explain () in
  Obs.Faultinject.arm "engine.run"
    (Obs.Faultinject.fail_once (transient "chaos"));
  let armed = explain () in
  let fired = Obs.Faultinject.fired "engine.run" in
  Obs.Faultinject.reset ();
  Alcotest.(check int) "the engine run faulted once" 1 fired;
  Alcotest.(check string) "codec JSON byte-identical"
    (result_fingerprint plain) (result_fingerprint armed);
  let attempted =
    Obs.Span.find_all
      (fun sp -> Option.is_some (Obs.Span.attr sp "attempt"))
      armed.Whynot.Pipeline.span
  in
  match attempted with
  | [ sp ] ->
    Alcotest.(check string) "the retried span" "msr" (Obs.Span.name sp);
    Alcotest.(check bool) "a prepare phase, under the run's root" true
      (List.memq sp (Obs.Span.children armed.Whynot.Pipeline.span));
    Alcotest.(check bool) "attempt = 2" true
      (Obs.Span.attr sp "attempt" = Some (Obs.Span.Int 2))
  | sps ->
    Alcotest.fail
      (Fmt.str "expected one retried span, got [%s]"
         (String.concat "; " (List.map Obs.Span.name sps)))

(* The share job traces the SA-invariant subtrees once per prepared
   query.  A transient fault there is retried inside the job, so the
   explanations do not change; a fault that outlasts the retry budget
   surfaces attributed to the prepare phase, not to an SA. *)
let test_share_job_identical_under_chaos =
  pipeline_identical_under ~site:"tracing.shared" ~period:2

let test_share_job_exhaustion_attributed =
  pipeline_exhaustion_attributed ~site:"tracing.shared" (String.equal "prepare/tracing")

(* A prepared handle keeps each SA's relaxed trace in a set-once slot.
   An evaluation that faults publishes nothing: with no retry budget the
   explain fails, and the next explain still evaluates every SA.  Under
   Flaky chaos the retries fill the slots, the result matches a fault-free
   explain, and a second explain reads every slot, so the site does not
   fire again. *)
let test_kept_relaxed_traces_under_chaos () =
  let inst =
    (Option.get (Scenarios.Registry.find "D3")).Scenarios.Scenario.make
      ~scale:1 ()
  in
  let phi = inst.Scenarios.Scenario.question in
  let alternatives = inst.Scenarios.Scenario.alternatives in
  Obs.Faultinject.reset ();
  let plain = Whynot.Pipeline.explain ~alternatives phi in
  let h =
    Whynot.Pipeline.prepare ~alternatives ~db:phi.Whynot.Question.db
      phi.Whynot.Question.query
  in
  let explain ?use_sas ~retries () =
    Whynot.Pipeline.explain_with ?use_sas ~retries h phi.Whynot.Question.missing
  in
  let reused (r : Whynot.Pipeline.result) =
    List.map
      (fun sp ->
        match Obs.Span.attr sp "relaxed_reused" with
        | Some (Obs.Span.Bool b) -> b
        | _ -> Alcotest.fail "tracing span without relaxed_reused")
      (Obs.Span.find_all
         (fun sp -> Obs.Span.name sp = "tracing")
         r.Whynot.Pipeline.span)
  in
  let n_sas = List.length (Whynot.Pipeline.handle_sas h) in
  Obs.Faultinject.arm "tracing.relaxed"
    (Obs.Faultinject.Flaky { period = 1; exn_ = transient "chaos" });
  (match explain ~use_sas:false ~retries:0 () with
  | _ -> Alcotest.fail "expected Exhausted"
  | exception Engine.Fault.Exhausted _ -> ());
  Obs.Faultinject.arm "tracing.relaxed"
    (Obs.Faultinject.Flaky { period = 2; exn_ = transient "chaos" });
  let first = explain ~retries:3 () in
  Alcotest.(check bool) "chaos fired on the first fill" true
    (Obs.Faultinject.fired "tracing.relaxed" > 1);
  Alcotest.(check (list bool)) "the faulted evaluation published nothing"
    (List.init n_sas (fun _ -> false))
    (reused first);
  Alcotest.(check string) "first fill byte-identical" (result_fingerprint plain)
    (result_fingerprint first);
  let fired = Obs.Faultinject.fired "tracing.relaxed" in
  let faults = counter_value "fault.tracing.relaxed" in
  let second = explain ~retries:3 () in
  Alcotest.(check (list bool)) "every slot read"
    (List.init n_sas (fun _ -> true))
    (reused second);
  Alcotest.(check int) "the site does not fire again" fired
    (Obs.Faultinject.fired "tracing.relaxed");
  Alcotest.(check int) "fault.tracing.relaxed unmoved" faults
    (counter_value "fault.tracing.relaxed");
  Alcotest.(check string) "kept traces byte-identical" (result_fingerprint plain)
    (result_fingerprint second);
  Obs.Faultinject.reset ()

(* --- serve integration --------------------------------------------------- *)

let test_scheduler_maps_exhaustion_to_faulted () =
  let sched = Serve.Scheduler.create ~queue_capacity:4 () in
  (match
     Serve.Scheduler.run sched (fun _cancel ->
         Engine.Fault.protect ~task:"prepare/msr" (fun () ->
             raise (transient "shard lost")))
   with
  | Error (Serve.Scheduler.Faulted { task; attempts; message }) ->
    Alcotest.(check string) "task attribution survives" "prepare/msr" task;
    Alcotest.(check int) "attempts" 1 attempts;
    Alcotest.(check bool)
      "message carries the fault" true
      (String.length message > 0)
  | Ok _ -> Alcotest.fail "expected Faulted"
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e));
  let st = Serve.Scheduler.stats sched in
  Alcotest.(check int) "faulted counted" 1 st.Serve.Scheduler.faulted;
  Alcotest.(check int) "not counted as completed" 0 st.Serve.Scheduler.completed

let test_server_explain_retries_transparently () =
  (* a server with a retry budget absorbs transient pipeline faults: the
     client sees a normal response, identical to the fault-free one *)
  let mk task_retries =
    Serve.Server.create
      ~config:
        {
          Serve.Server.default_config with
          timings = false;
          task_retries;
        }
      ()
  in
  let explain srv =
    ignore
      (Serve.Server.handle_request srv
         (Serve.Protocol.Register
            { dataset = "RE"; scale = 1; seed = 0; refresh = false })
        : Serve.Protocol.response);
    Serve.Server.handle_request srv
      (Serve.Protocol.Explain
         {
           dataset = "RE";
           scale = 1;
           seed = 0;
           query = None;
           query_name = None;
           pattern = None;
           options = Serve.Protocol.default_options;
           deadline_ms = None;
           budget_ms = None;
         })
  in
  Obs.Faultinject.reset ();
  let fault_free = explain (mk 0) in
  Obs.Faultinject.arm "tracing.relaxed"
    (Obs.Faultinject.Fail { times = 1; exn_ = transient "chaos" });
  let with_faults = explain (mk 2) in
  Obs.Faultinject.reset ();
  (match (fault_free, with_faults) with
  | ( Serve.Protocol.Explained { result = a; _ },
      Serve.Protocol.Explained { result = b; _ } ) ->
    Alcotest.(check string)
      "retried response byte-identical" (Json.to_string a) (Json.to_string b)
  | _ -> Alcotest.fail "expected two Explained responses");
  (* without a retry budget the same fault surfaces as a typed error *)
  Obs.Faultinject.arm "tracing.relaxed"
    (Obs.Faultinject.Fail { times = 1; exn_ = transient "chaos" });
  let failed = explain (mk 0) in
  Obs.Faultinject.reset ();
  match failed with
  | Serve.Protocol.Error { code = Serve.Protocol.Task_failed; message; _ } ->
    Alcotest.(check bool)
      "error names the task" true
      (String.length message > 0)
  | r ->
    Alcotest.fail
      (Fmt.str "expected task_failed, got %s"
         (Serve.Protocol.response_to_string r))

let () =
  at_exit Engine.Pool.shutdown_default;
  Alcotest.run "fault"
    [
      ( "protect",
        [
          Alcotest.test_case "recovers after transient faults" `Quick
            test_protect_recovers;
          Alcotest.test_case "permanent faults not retried" `Quick
            test_protect_permanent_not_retried;
          Alcotest.test_case "exhaustion attributes the task" `Quick
            test_protect_exhaustion;
          Alcotest.test_case "abort suppresses retries" `Quick
            test_abort_suppresses_retries;
        ] );
      ( "pool supervision",
        [
          Alcotest.test_case "worker deaths detected" `Quick
            test_worker_death_detected;
          Alcotest.test_case "shutdown drains stranded jobs" `Quick
            test_shutdown_drains_stranded_jobs;
        ] );
      ( "determinism under chaos",
        [
          Alcotest.test_case "pipeline results identical" `Quick
            test_pipeline_identical_under_chaos;
          Alcotest.test_case "pipeline under partition faults" `Quick
            test_pipeline_identical_under_partition_chaos;
          Alcotest.test_case "pipeline partition exhaustion attributed" `Quick
            test_pipeline_partition_exhaustion_attributed;
          Alcotest.test_case "engine run replayed by its phase" `Quick
            test_engine_run_replayed_by_phase;
          Alcotest.test_case "pipeline exhaustion attributed" `Quick
            test_pipeline_exhaustion_attributed;
          Alcotest.test_case "share job results identical" `Quick
            test_share_job_identical_under_chaos;
          Alcotest.test_case "share job exhaustion attributed" `Quick
            test_share_job_exhaustion_attributed;
          Alcotest.test_case "kept relaxed traces under chaos" `Quick
            test_kept_relaxed_traces_under_chaos;
        ] );
      ( "serve",
        [
          Alcotest.test_case "scheduler maps Exhausted to Faulted" `Quick
            test_scheduler_maps_exhaustion_to_faulted;
          Alcotest.test_case "server retries transparently" `Quick
            test_server_explain_retries_transparently;
        ] );
    ]
