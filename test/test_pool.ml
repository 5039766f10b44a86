(* Unit tests for the shared domain pool: exception propagation, reuse
   across submissions, nested submission (helping), and teardown. *)

(* Submit [f x] for every [x], then await the results in submission
   order. *)
let submit_all pool f xs =
  let futures = Array.map (fun x -> Engine.Pool.submit pool (fun () -> f x)) xs in
  Array.map (fun fut -> Engine.Pool.await fut) futures

exception Boom of int

let test_exception_propagates () =
  let pool = Engine.Pool.create ~size:2 () in
  let fut = Engine.Pool.submit pool (fun () -> raise (Boom 7)) in
  Alcotest.check_raises "await re-raises" (Boom 7) (fun () ->
      ignore (Engine.Pool.await fut));
  (* the pool must survive a failed job *)
  let fut2 = Engine.Pool.submit pool (fun () -> 42) in
  Alcotest.(check int) "pool alive after failure" 42 (Engine.Pool.await fut2);
  Engine.Pool.shutdown pool

let test_reuse_across_submissions () =
  let pool = Engine.Pool.create ~size:1 () in
  let total = ref 0 in
  for round = 1 to 5 do
    let results =
      submit_all pool (fun i -> i + round) (Array.init 8 Fun.id)
    in
    total := !total + Array.fold_left ( + ) 0 results
  done;
  (* sum over rounds of (0+..+7) + 8*round = 28*5 + 8*15 *)
  Alcotest.(check int) "five rounds on one pool" 260 !total;
  Engine.Pool.shutdown pool

let test_nested_submission () =
  (* a pooled job fanning out on its own pool: await must help with
     queued work, or a size-1 pool would deadlock here *)
  let pool = Engine.Pool.create ~size:1 () in
  let fut =
    Engine.Pool.submit pool (fun () ->
        let inner =
          submit_all pool (fun i -> i * 2) (Array.init 5 Fun.id)
        in
        Array.fold_left ( + ) 0 inner)
  in
  Alcotest.(check int) "nested fan-out completes" 20 (Engine.Pool.await fut);
  Engine.Pool.shutdown pool

let test_shutdown_degrades_submit () =
  (* submit after shutdown never raises: the job runs inline on the
     calling domain and the future comes back already resolved *)
  let pool = Engine.Pool.create ~size:1 () in
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool (* idempotent *);
  let before =
    Obs.Metrics.Counter.value
      (Obs.Metrics.counter "engine.pool.inline_fallback")
  in
  let fut = Engine.Pool.submit pool (fun () -> 41 + 1) in
  Alcotest.(check int) "ran inline" 42 (Engine.Pool.await fut);
  let after =
    Obs.Metrics.Counter.value
      (Obs.Metrics.counter "engine.pool.inline_fallback")
  in
  Alcotest.(check bool) "fallback counted" true (after > before)

let test_await_after_shutdown_job_done () =
  let pool = Engine.Pool.create ~size:1 () in
  let fut = Engine.Pool.submit pool (fun () -> "done") in
  Alcotest.(check string) "resolves" "done" (Engine.Pool.await fut);
  Engine.Pool.shutdown pool;
  (* a resolved future stays readable after teardown *)
  Alcotest.(check string) "still resolved" "done" (Engine.Pool.await fut)

let test_create_shutdown_cycles () =
  (* the server creates and tears down pools across sessions; repeated
     cycles must neither leak domains nor wedge (each cycle joins its
     workers before the next spawns) *)
  for round = 1 to 10 do
    let pool = Engine.Pool.create ~size:2 () in
    let results =
      submit_all pool (fun i -> i + round) (Array.init 4 Fun.id)
    in
    Alcotest.(check (array int))
      (Fmt.str "round %d" round)
      (Array.init 4 (fun i -> i + round))
      results;
    Engine.Pool.shutdown pool;
    Engine.Pool.shutdown pool
  done

let test_shutdown_default () =
  (* the at_exit hook of the binaries; idempotent.  Runs last in this
     suite — it kills the shared pool for the rest of the process. *)
  let p = Engine.Pool.default () in
  let fut = Engine.Pool.submit p (fun () -> 7) in
  Alcotest.(check int) "default pool works" 7 (Engine.Pool.await fut);
  Engine.Pool.shutdown_default ();
  Engine.Pool.shutdown_default ();
  (* late submissions degrade to inline execution instead of raising *)
  let late = Engine.Pool.submit p (fun () -> 8) in
  Alcotest.(check int) "late submit runs inline" 8 (Engine.Pool.await late)

let test_default_pool_is_shared () =
  let p1 = Engine.Pool.default () in
  let p2 = Engine.Pool.default () in
  Alcotest.(check bool) "same instance" true (p1 == p2);
  Alcotest.(check bool) "at least one worker" true (Engine.Pool.size p1 >= 1)

(* [await ~helped] adds the time it spent running queued jobs.  On a
   size-1 pool, [slow] holds the worker until [queued] has run, and
   [queued] is submitted only once [slow] has started, so the awaiter of
   [slow] is the only domain that can run [queued]: it helps for at
   least [queued]'s 20 ms, whatever the scheduling.  An awaiter of a
   resolved future helps with nothing. *)
let test_await_helped () =
  let spin ms =
    let until = Obs.Clock.now_ns () + (ms * 1_000_000) in
    while Obs.Clock.now_ns () < until do
      Domain.cpu_relax ()
    done
  in
  let wait_for flag =
    while not (Atomic.get flag) do
      Domain.cpu_relax ()
    done
  in
  let started = Atomic.make false and released = Atomic.make false in
  let pool = Engine.Pool.create ~size:1 () in
  let slow =
    Engine.Pool.submit pool (fun () ->
        Atomic.set started true;
        wait_for released)
  in
  wait_for started;
  let queued =
    Engine.Pool.submit pool (fun () ->
        spin 20;
        Atomic.set released true)
  in
  let helped = ref 0 in
  Engine.Pool.await ~helped slow;
  Alcotest.(check bool)
    (Fmt.str "helped %d ns >= 20 ms" !helped)
    true
    (!helped >= 20_000_000);
  Engine.Pool.await queued;
  let idle = ref 0 in
  Engine.Pool.await ~helped:idle slow;
  Alcotest.(check int) "a resolved future helps with nothing" 0 !idle;
  Engine.Pool.shutdown pool

let () =
  Alcotest.run "pool"
    [
      ( "futures",
        [
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "await counts the time it helped" `Quick
            test_await_helped;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reuse across submissions" `Quick
            test_reuse_across_submissions;
          Alcotest.test_case "nested submission (helping)" `Quick
            test_nested_submission;
          Alcotest.test_case "submit after shutdown" `Quick
            test_shutdown_degrades_submit;
          Alcotest.test_case "future outlives pool" `Quick
            test_await_after_shutdown_job_done;
          Alcotest.test_case "create/shutdown cycles" `Quick
            test_create_shutdown_cycles;
          Alcotest.test_case "default pool shared" `Quick
            test_default_pool_is_shared;
          Alcotest.test_case "shutdown_default" `Quick test_shutdown_default;
        ] );
    ]
