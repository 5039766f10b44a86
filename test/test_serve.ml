(* Tests for the serving layer: fingerprint stability and
   alpha-equivalence, the explanation JSON codec (round-trip
   properties), the dataset catalog, the LRU cache, the bounded
   scheduler, the wire protocol, and an in-process request session
   against the full server (cache-hit byte-identity). *)

open Nrab

let q str = Parser.query_of_string str

let running_example =
  "(nest (name) nList (project (name city) (select (>= year 2019) \
   (flatten-inner address2 (table person)))))"

(* --- fingerprints ------------------------------------------------------ *)

let test_fp_deterministic () =
  let h1 = Serve.Fingerprint.query (q running_example) in
  let h2 = Serve.Fingerprint.query (q running_example) in
  Alcotest.(check bool) "same text, same hash" true (Int64.equal h1 h2)

let test_fp_alpha_equivalent () =
  (* relabeling operator ids must not change the fingerprint *)
  let q1 = q running_example in
  let q2 = Query.relabel (Query.Gen.create ~start:1000 ()) q1 in
  let ids query = List.map (fun (op : Query.t) -> op.Query.id) (Query.operators query) in
  Alcotest.(check bool) "ids differ" true (ids q1 <> ids q2);
  Alcotest.(check string) "alpha-equivalent queries hash equal"
    (Serve.Fingerprint.to_hex (Serve.Fingerprint.query q1))
    (Serve.Fingerprint.to_hex (Serve.Fingerprint.query q2))

let test_fp_param_sensitive () =
  let h t = Serve.Fingerprint.query (q t) in
  let base = h "(select (>= year 2019) (table person))" in
  List.iter
    (fun (label, text) ->
      Alcotest.(check bool) label false (Int64.equal base (h text)))
    [
      ("constant", "(select (>= year 2020) (table person))");
      ("comparison", "(select (> year 2019) (table person))");
      ("attribute", "(select (>= month 2019) (table person))");
      ("table", "(select (>= year 2019) (table persons))");
      ("structure", "(dedup (select (>= year 2019) (table person)))");
    ]

let test_fp_nip_and_options () =
  let p1 = Whynot.Nip_syntax.of_string "(tuple (city (str NY)) (nList (bag ? *)))" in
  let p2 = Whynot.Nip_syntax.of_string "(tuple (city (str LA)) (nList (bag ? *)))" in
  Alcotest.(check bool) "patterns distinguish" false
    (Int64.equal (Serve.Fingerprint.nip p1) (Serve.Fingerprint.nip p2));
  let o = Serve.Fingerprint.default_options in
  Alcotest.(check bool) "options distinguish" false
    (Int64.equal
       (Serve.Fingerprint.options o)
       (Serve.Fingerprint.options { o with max_sas = o.max_sas + 1 }))

let test_fp_keys () =
  let query = q running_example in
  let pat = Whynot.Nip_syntax.of_string "(tuple (city (str NY)) (nList (bag ? *)))" in
  let o = Serve.Fingerprint.default_options in
  let k v =
    Serve.Fingerprint.explain_key ~dataset:"RE@1#0" ~version:v ~options:o
      ~alternatives:[] query pat
  in
  Alcotest.(check bool) "version bump changes the key" true (k 1 <> k 2);
  let pk =
    Serve.Fingerprint.prepare_key ~dataset:"RE@1#0" ~version:1 ~max_sas:o.max_sas
      ~alternatives:[] query
  in
  Alcotest.(check bool) "pattern-free key differs from full key" true (pk <> k 1)

(* --- codec ------------------------------------------------------------- *)

let explanation_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* ops = list_size (return n) (int_range 1 60) in
    let* lb = int_range 0 5 in
    let* extra = int_range 0 5 in
    let* sa = int_range 0 4 in
    return
      (Whynot.Explanation.make ~sa ~lb ~ub:(lb + extra)
         (Whynot.Explanation.Int_set.of_list ops)))

let explanation_arb =
  QCheck.make ~print:(Fmt.to_to_string Whynot.Explanation.pp) explanation_gen

let expl_equal (a : Whynot.Explanation.t) (b : Whynot.Explanation.t) =
  Whynot.Explanation.equal_ops a b
  && a.Whynot.Explanation.side_effect_lb = b.Whynot.Explanation.side_effect_lb
  && a.Whynot.Explanation.side_effect_ub = b.Whynot.Explanation.side_effect_ub
  && a.Whynot.Explanation.sa = b.Whynot.Explanation.sa

let prop_explanation_roundtrip =
  QCheck.Test.make ~count:200 ~name:"explanation JSON roundtrip"
    explanation_arb (fun e ->
      expl_equal e (Serve.Codec.explanation_of_json (Serve.Codec.explanation_to_json e)))

let prop_explanations_roundtrip =
  QCheck.Test.make ~count:100 ~name:"explanation list JSON roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 8) explanation_arb)
    (fun es ->
      let back =
        Serve.Codec.explanations_of_json (Serve.Codec.explanations_to_json es)
      in
      List.length back = List.length es && List.for_all2 expl_equal es back)

let prop_roundtrip_via_text =
  QCheck.Test.make ~count:100 ~name:"roundtrip survives printing"
    explanation_arb (fun e ->
      let text = Nested.Json.to_line (Serve.Codec.explanation_to_json e) in
      expl_equal e (Serve.Codec.explanation_of_json (Nested.Json.of_string text)))

let test_codec_result_payload () =
  (* a real pipeline result decodes back to the same explanation list *)
  let inst =
    match Scenarios.Registry.find "RE" with
    | Some s -> s.Scenarios.Scenario.make ~scale:1 ()
    | None -> Alcotest.fail "running example scenario missing"
  in
  let result =
    Whynot.Pipeline.explain
      ~alternatives:inst.Scenarios.Scenario.alternatives
      inst.Scenarios.Scenario.question
  in
  let payload = Serve.Codec.result_to_json ~timings:false result in
  let back = Serve.Codec.result_explanations_of_json payload in
  Alcotest.(check int) "explanation count survives"
    (List.length result.Whynot.Pipeline.explanations)
    (List.length back);
  Alcotest.(check bool) "explanations survive" true
    (List.for_all2 expl_equal result.Whynot.Pipeline.explanations back);
  (* timings:false must not leak wall-clock fields *)
  let text = Nested.Json.to_line payload in
  let contains needle =
    let n = String.length text and m = String.length needle in
    let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no timings in deterministic payload" false
    (contains "phases_ms" || contains "total_ms")

let test_codec_rejects_garbage () =
  List.iter
    (fun text ->
      match Serve.Codec.explanation_of_json (Nested.Json.of_string text) with
      | exception Serve.Codec.Decode_error _ -> ()
      | _ -> Alcotest.fail ("decoded garbage: " ^ text))
    [ "42"; "{}"; "{\"ops\": 1}"; "{\"ops\": [1], \"side_effect_lb\": true}" ]

(* --- catalog ----------------------------------------------------------- *)

let test_catalog_register_reuse_refresh () =
  let c = Serve.Catalog.create () in
  (match Serve.Catalog.register c ~name:"re" ~scale:1 () with
  | Error m -> Alcotest.fail m
  | Ok (e, fresh) ->
    Alcotest.(check string) "canonical name" "RE" e.Serve.Catalog.key.Serve.Catalog.name;
    Alcotest.(check bool) "first registration generates" true fresh;
    Alcotest.(check int) "version starts at 1" 1 e.Serve.Catalog.version);
  (match Serve.Catalog.register c ~name:"RE" ~scale:1 () with
  | Error m -> Alcotest.fail m
  | Ok (e, fresh) ->
    Alcotest.(check bool) "second registration reuses" false fresh;
    Alcotest.(check int) "version unchanged" 1 e.Serve.Catalog.version);
  (match Serve.Catalog.register c ~refresh:true ~name:"RE" ~scale:1 () with
  | Error m -> Alcotest.fail m
  | Ok (e, fresh) ->
    Alcotest.(check bool) "refresh regenerates" true fresh;
    Alcotest.(check int) "refresh bumps version" 2 e.Serve.Catalog.version);
  Alcotest.(check int) "one dataset" 1 (Serve.Catalog.size c);
  (match Serve.Catalog.register c ~name:"no-such-scenario" ~scale:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scenario must be an error");
  Alcotest.(check bool) "evict present" true
    (Serve.Catalog.evict c ~name:"RE" ~scale:1 ());
  Alcotest.(check bool) "evict absent" false
    (Serve.Catalog.evict c ~name:"RE" ~scale:1 ());
  Alcotest.(check int) "empty again" 0 (Serve.Catalog.size c)

let test_catalog_keys_are_distinct () =
  let c = Serve.Catalog.create () in
  let reg ?seed ~scale () =
    match Serve.Catalog.register c ?seed ~name:"Q1" ~scale () with
    | Ok (e, _) -> e
    | Error m -> Alcotest.fail m
  in
  let a = reg ~scale:1 () in
  let b = reg ~scale:2 () in
  let d = reg ~seed:7 ~scale:1 () in
  Alcotest.(check int) "three entries" 3 (Serve.Catalog.size c);
  Alcotest.(check bool) "scales share nothing" true
    (a.Serve.Catalog.instance != b.Serve.Catalog.instance);
  Alcotest.(check bool) "seeds share nothing" true
    (a.Serve.Catalog.instance != d.Serve.Catalog.instance);
  (* same key → same interned instance *)
  let a2 = reg ~scale:1 () in
  Alcotest.(check bool) "same key shares the instance" true
    (a.Serve.Catalog.instance == a2.Serve.Catalog.instance)

(* --- LRU cache --------------------------------------------------------- *)

let test_cache_lru_eviction () =
  let c = Serve.Cache.create ~name:"t1" ~capacity:2 in
  Serve.Cache.add c "a" 1;
  Serve.Cache.add c "b" 2;
  ignore (Serve.Cache.find c "a" : int option);
  (* "a" is now most recent, so inserting "c" evicts "b" *)
  Serve.Cache.add c "c" 3;
  Alcotest.(check (option int)) "a kept" (Some 1) (Serve.Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Serve.Cache.find c "b");
  Alcotest.(check (option int)) "c kept" (Some 3) (Serve.Cache.find c "c");
  let s = Serve.Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Serve.Cache.evictions;
  Alcotest.(check int) "size capped" 2 s.Serve.Cache.size

let test_cache_overwrite_and_invalidate () =
  let c = Serve.Cache.create ~name:"t2" ~capacity:8 in
  Serve.Cache.add c "k1/x" 1;
  Serve.Cache.add c "k1/y" 2;
  Serve.Cache.add c "k2/z" 3;
  Serve.Cache.add c "k1/x" 10;
  Alcotest.(check (option int)) "overwrite wins" (Some 10)
    (Serve.Cache.find c "k1/x");
  Alcotest.(check int) "no duplicate entries" 3 (Serve.Cache.length c);
  Alcotest.(check int) "prefix invalidation drops both" 2
    (Serve.Cache.invalidate c (String.starts_with ~prefix:"k1/"));
  Alcotest.(check (option int)) "other prefix survives" (Some 3)
    (Serve.Cache.find c "k2/z");
  Alcotest.(check int) "clear reports" 1 (Serve.Cache.clear c);
  Alcotest.(check int) "empty" 0 (Serve.Cache.length c)

let test_cache_disabled () =
  let c = Serve.Cache.create ~name:"t3" ~capacity:0 in
  Serve.Cache.add c "a" 1;
  Alcotest.(check (option int)) "capacity 0 never caches" None
    (Serve.Cache.find c "a")

let test_cache_many_keys () =
  (* LRU discipline over a longer run: last [cap] inserts survive *)
  let cap = 16 in
  let c = Serve.Cache.create ~name:"t4" ~capacity:cap in
  for i = 1 to 100 do
    Serve.Cache.add c (string_of_int i) i
  done;
  Alcotest.(check int) "size is capacity" cap (Serve.Cache.length c);
  for i = 85 to 100 do
    Alcotest.(check (option int))
      (Fmt.str "key %d survives" i)
      (Some i)
      (Serve.Cache.find c (string_of_int i))
  done;
  Alcotest.(check (option int)) "older key evicted" None
    (Serve.Cache.find c "84")

(* --- scheduler --------------------------------------------------------- *)

let test_scheduler_runs_jobs () =
  let s = Serve.Scheduler.create ~queue_capacity:4 () in
  (match Serve.Scheduler.run s (fun _cancel -> 6 * 7) with
  | Ok n -> Alcotest.(check int) "result" 42 n
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e));
  let st = Serve.Scheduler.stats s in
  Alcotest.(check int) "submitted" 1 st.Serve.Scheduler.submitted;
  Alcotest.(check int) "completed" 1 st.Serve.Scheduler.completed;
  Alcotest.(check int) "drained" 0 (Serve.Scheduler.depth s)

let test_scheduler_backpressure () =
  let pool = Engine.Pool.create ~size:1 () in
  let s = Serve.Scheduler.create ~pool ~queue_capacity:1 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  (* fill the only admission slot with a job blocked on the gate *)
  let first =
    match
      Serve.Scheduler.submit s (fun _ ->
          Mutex.lock gate;
          Mutex.unlock gate;
          "first")
    with
    | Ok t -> t
    | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e)
  in
  (match Serve.Scheduler.submit s (fun _ -> "second") with
  | Error (Serve.Scheduler.Overloaded { depth; capacity }) ->
    Alcotest.(check int) "depth at capacity" 1 depth;
    Alcotest.(check int) "capacity" 1 capacity
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Overloaded");
  Mutex.unlock gate;
  (match Serve.Scheduler.await first with
  | Ok v -> Alcotest.(check string) "first completes" "first" v
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e));
  let st = Serve.Scheduler.stats s in
  Alcotest.(check int) "one rejection" 1 st.Serve.Scheduler.rejected;
  Engine.Pool.shutdown pool

let test_scheduler_deadline () =
  let pool = Engine.Pool.create ~size:1 () in
  let s = Serve.Scheduler.create ~pool ~queue_capacity:8 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let blocker =
    match
      Serve.Scheduler.submit s (fun _ ->
          Mutex.lock gate;
          Mutex.unlock gate)
    with
    | Ok t -> t
    | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e)
  in
  (* queued behind the blocker with a deadline that lapses while waiting *)
  let doomed =
    match Serve.Scheduler.submit s ~deadline_ms:5.0 (fun _ -> "ran") with
    | Ok t -> t
    | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e)
  in
  Unix.sleepf 0.05;
  Mutex.unlock gate;
  (match Serve.Scheduler.await blocker with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e));
  (match Serve.Scheduler.await doomed with
  | Error (Serve.Scheduler.Deadline_exceeded { waited_ms; deadline_ms; phase })
    ->
    Alcotest.(check bool) "waited past deadline" true (waited_ms > deadline_ms);
    Alcotest.(check bool) "expired while queued (no phase)" true (phase = None)
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded");
  let st = Serve.Scheduler.stats s in
  Alcotest.(check int) "one expiry" 1 st.Serve.Scheduler.expired;
  Engine.Pool.shutdown pool

let test_scheduler_cancels_mid_run () =
  (* a job that cooperatively polls its token is reclaimed mid-flight,
     with the polling point named in the error *)
  let pool = Engine.Pool.create ~size:1 () in
  let s = Serve.Scheduler.create ~pool ~queue_capacity:4 () in
  (match
     Serve.Scheduler.run s ~deadline_ms:10.0 (fun cancel ->
         let give_up = Unix.gettimeofday () +. 5.0 in
         while Unix.gettimeofday () < give_up do
           Unix.sleepf 0.005;
           Whynot.Cancel.check cancel ~where:"spin"
         done;
         "never")
   with
  | Error (Serve.Scheduler.Deadline_exceeded { phase = Some "spin"; waited_ms; _ })
    ->
    Alcotest.(check bool) "ran past the deadline" true (waited_ms >= 10.0)
  | Error e -> Alcotest.fail (Serve.Scheduler.error_to_string e)
  | Ok _ -> Alcotest.fail "expected mid-run Deadline_exceeded");
  let st = Serve.Scheduler.stats s in
  Alcotest.(check int) "counted as expired" 1 st.Serve.Scheduler.expired;
  Alcotest.(check int) "depth back to 0" 0 (Serve.Scheduler.depth s);
  Engine.Pool.shutdown pool

(* --- cancellation tokens ------------------------------------------------ *)

let test_cancel_token () =
  let c = Whynot.Cancel.create () in
  Alcotest.(check bool) "fresh token live" false (Whynot.Cancel.cancelled c);
  Whynot.Cancel.cancel c;
  Alcotest.(check bool) "flag cancels" true (Whynot.Cancel.cancelled c);
  (match Whynot.Cancel.check c ~where:"here" with
  | exception Whynot.Cancel.Cancelled "here" -> ()
  | exception e -> Alcotest.fail (Printexc.to_string e)
  | () -> Alcotest.fail "check must raise on a cancelled token");
  let d = Whynot.Cancel.with_deadline_ms 0.0 in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "deadline cancels" true (Whynot.Cancel.cancelled d);
  Whynot.Cancel.cancel Whynot.Cancel.none;
  Alcotest.(check bool) "none is never cancelled" false
    (Whynot.Cancel.cancelled Whynot.Cancel.none)

let test_pipeline_cancelled_run () =
  let inst =
    match Scenarios.Registry.find "RE" with
    | Some s -> s.Scenarios.Scenario.make ~scale:1 ()
    | None -> Alcotest.fail "running example scenario missing"
  in
  let cancel = Whynot.Cancel.create () in
  Whynot.Cancel.cancel cancel;
  match
    Whynot.Pipeline.explain ~cancel
      ~alternatives:inst.Scenarios.Scenario.alternatives
      inst.Scenarios.Scenario.question
  with
  | exception Whynot.Cancel.Cancelled where ->
    (* the very first phase boundary observes the cancellation *)
    Alcotest.(check string) "first boundary attributed" "alternatives" where
  | _ -> Alcotest.fail "cancelled run must raise"

(* --- single-flight ------------------------------------------------------ *)

let test_inflight_coalesces () =
  let fl = Serve.Inflight.create ~name:"t-basic" () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let n = 4 in
  let outcomes = Array.make n None in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              Some
                (Serve.Inflight.run fl "key" (fun () ->
                     Mutex.lock gate;
                     Mutex.unlock gate;
                     42)))
          ())
  in
  Unix.sleepf 0.05;
  Mutex.unlock gate;
  Array.iter Thread.join threads;
  let leaders = ref 0 and followers = ref 0 in
  Array.iter
    (fun o ->
      match o with
      | Some (Serve.Inflight.Leader, Ok 42) -> incr leaders
      | Some (Serve.Inflight.Follower _, Ok 42) -> incr followers
      | _ -> Alcotest.fail "every caller must get Ok 42")
    outcomes;
  Alcotest.(check int) "exactly one leader" 1 !leaders;
  Alcotest.(check int) "everybody else coalesced" (n - 1) !followers;
  Alcotest.(check int) "table drained" 0 (Serve.Inflight.active fl);
  let s = Serve.Inflight.stats fl in
  Alcotest.(check int) "one execution" 1 s.Serve.Inflight.leaders;
  Alcotest.(check int) "coalesced counted" (n - 1) s.Serve.Inflight.coalesced

let test_inflight_leader_failure_releases () =
  let fl = Serve.Inflight.create ~name:"t-fail" () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let n = 3 in
  let outcomes = Array.make n None in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              Some
                (Serve.Inflight.run fl "key" (fun () ->
                     Mutex.lock gate;
                     Mutex.unlock gate;
                     failwith "boom")))
          ())
  in
  Unix.sleepf 0.05;
  Mutex.unlock gate;
  Array.iter Thread.join threads;
  Array.iter
    (fun o ->
      match o with
      | Some (_, Error (Failure msg)) when msg = "boom" -> ()
      | Some (_, Ok _) -> Alcotest.fail "leader failed — nobody may succeed"
      | _ -> Alcotest.fail "every caller must be released with the error")
    outcomes;
  Alcotest.(check int) "nothing left in flight" 0 (Serve.Inflight.active fl);
  let s = Serve.Inflight.stats fl in
  Alcotest.(check int) "failure counted" 1 s.Serve.Inflight.failures;
  (* the key leads afresh after the failed flight *)
  match Serve.Inflight.run fl "key" (fun () -> 7) with
  | Serve.Inflight.Leader, Ok 7 -> ()
  | _ -> Alcotest.fail "a later request must lead afresh"

(* --- fault injection ---------------------------------------------------- *)

let test_faultinject_actions () =
  Obs.Faultinject.reset ();
  Obs.Faultinject.arm "t.site" (Obs.Faultinject.fail_once (Failure "inj"));
  (match Obs.Faultinject.fire "t.site" with
  | exception Failure msg when msg = "inj" -> ()
  | () -> Alcotest.fail "armed site must raise");
  (* fail-once disarms itself *)
  Obs.Faultinject.fire "t.site";
  Alcotest.(check int) "fired once" 1 (Obs.Faultinject.fired "t.site");
  Obs.Faultinject.arm "t.garble" (Obs.Faultinject.Garble (fun s -> "!" ^ s));
  Alcotest.(check string) "garble rewrites" "!abc"
    (Obs.Faultinject.transform "t.garble" "abc");
  Alcotest.(check string) "unarmed transform is identity" "abc"
    (Obs.Faultinject.transform "t.other" "abc");
  Obs.Faultinject.reset ();
  Alcotest.(check int) "reset zeroes counts" 0
    (Obs.Faultinject.fired "t.site")

(* --- protocol ---------------------------------------------------------- *)

let test_protocol_parse_requests () =
  (match Serve.Protocol.request_of_string "{\"op\": \"register\", \"dataset\": \"RE\"}" with
  | Ok (Serve.Protocol.Register { dataset; scale; seed; refresh }) ->
    Alcotest.(check string) "dataset" "RE" dataset;
    Alcotest.(check int) "default scale" 1 scale;
    Alcotest.(check int) "default seed" 0 seed;
    Alcotest.(check bool) "default refresh" false refresh
  | Ok _ -> Alcotest.fail "wrong request"
  | Error m -> Alcotest.fail m);
  (match
     Serve.Protocol.request_of_string
       "{\"op\": \"explain\", \"dataset\": \"RE\", \"whynot\": \"(tuple (city \
        (str NY)) (nList (bag ? *)))\", \"max_sas\": 4, \"deadline_ms\": 250}"
   with
  | Ok (Serve.Protocol.Explain e) ->
    Alcotest.(check bool) "pattern parsed" true (e.pattern <> None);
    Alcotest.(check bool) "query defaulted" true (e.query = None);
    Alcotest.(check int) "max_sas" 4 e.options.Serve.Protocol.max_sas;
    Alcotest.(check (option (float 0.01))) "deadline" (Some 250.0) e.deadline_ms
  | Ok _ -> Alcotest.fail "wrong request"
  | Error m -> Alcotest.fail m);
  List.iter
    (fun line ->
      match Serve.Protocol.request_of_string line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad request: " ^ line))
    [
      "not json";
      "{}";
      "{\"op\": \"frobnicate\"}";
      "{\"op\": \"register\"}";
      "{\"op\": \"explain\", \"dataset\": \"RE\", \"query\": \"(((\"}";
      "{\"op\": \"explain\", \"dataset\": \"RE\", \"max_sas\": \"lots\"}";
    ]

let test_protocol_response_lines () =
  let line =
    Serve.Protocol.response_to_string
      (Serve.Protocol.Error
         { code = Serve.Protocol.Overloaded; message = "try later"; details = None })
  in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match Nested.Json.of_string line with
  | Nested.Json.J_object fields ->
    Alcotest.(check bool) "ok=false" true
      (List.assoc "ok" fields = Nested.Json.J_bool false);
    Alcotest.(check bool) "code" true
      (List.assoc "code" fields = Nested.Json.J_string "overloaded")
  | _ -> Alcotest.fail "response is not an object"

(* --- server sessions --------------------------------------------------- *)

let quiet_config =
  { Serve.Server.default_config with timings = false }

let expect_ok label = function
  | Serve.Protocol.Error { message; _ } ->
    Alcotest.fail (Fmt.str "%s: unexpected error: %s" label message)
  | r -> r

let test_server_cache_hit_is_byte_identical () =
  let srv = Serve.Server.create ~config:quiet_config () in
  (match
     expect_ok "register"
       (Serve.Server.handle_request srv
          (Serve.Protocol.Register
             { dataset = "RE"; scale = 1; seed = 0; refresh = false }))
   with
  | Serve.Protocol.Registered { fresh; _ } ->
    Alcotest.(check bool) "fresh" true fresh
  | _ -> Alcotest.fail "expected registered");
  let explain () =
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
  let r1 = expect_ok "explain#1" (explain ()) in
  let r2 = expect_ok "explain#2" (explain ()) in
  (match (r1, r2) with
  | ( Serve.Protocol.Explained { cache = c1; result = j1; _ },
      Serve.Protocol.Explained { cache = c2; result = j2; _ } ) ->
    Alcotest.(check bool) "first is a miss" true (c1 = `Miss);
    Alcotest.(check bool) "second is a hit" true (c2 = `Hit);
    Alcotest.(check string) "payloads byte-identical"
      (Nested.Json.to_line j1) (Nested.Json.to_line j2)
  | _ -> Alcotest.fail "expected two explained responses");
  match Serve.Server.handle_request srv Serve.Protocol.Stats with
  | Serve.Protocol.Stats_reply sections ->
    (match List.assoc "cache" sections with
    | Nested.Json.J_object fields ->
      Alcotest.(check bool) "stats show the hit" true
        (List.assoc "hits" fields = Nested.Json.J_int 1)
    | _ -> Alcotest.fail "cache section missing")
  | _ -> Alcotest.fail "expected stats"

let test_server_handle_reuse_across_patterns () =
  let srv = Serve.Server.create ~config:quiet_config () in
  ignore
    (expect_ok "register"
       (Serve.Server.handle_request srv
          (Serve.Protocol.Register
             { dataset = "RE"; scale = 1; seed = 0; refresh = false })));
  let explain pattern =
    Serve.Server.handle_request srv
      (Serve.Protocol.Explain
         {
           dataset = "RE";
           scale = 1;
           seed = 0;
           query = None;
           query_name = None;
           pattern;
           options = Serve.Protocol.default_options;
           deadline_ms = None;
           budget_ms = None;
         })
  in
  (match expect_ok "pattern A" (explain None) with
  | Serve.Protocol.Explained { cache = `Miss; _ } -> ()
  | _ -> Alcotest.fail "first pattern: expected a full miss");
  let other =
    Some (Whynot.Nip_syntax.of_string "(tuple (city (str LA)) (nList (bag ? *)))")
  in
  match expect_ok "pattern B" (explain other) with
  | Serve.Protocol.Explained { cache = `Handle; _ } ->
    (* new pattern, same query: the traced-run handle was reused *)
    ()
  | Serve.Protocol.Explained { cache = c; _ } ->
    Alcotest.fail
      (Fmt.str "expected handle reuse, got %s"
         (match c with
         | `Hit -> "hit"
         | `Miss -> "miss"
         | `Handle -> "handle"
         | `Coalesced -> "coalesced"))
  | _ -> Alcotest.fail "expected explained"

let test_server_refresh_invalidates () =
  let srv = Serve.Server.create ~config:quiet_config () in
  let register refresh =
    expect_ok "register"
      (Serve.Server.handle_request srv
         (Serve.Protocol.Register { dataset = "RE"; scale = 1; seed = 0; refresh }))
  in
  ignore (register false);
  let explain () =
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
  (match expect_ok "cold" (explain ()) with
  | Serve.Protocol.Explained { cache = `Miss; version = 1; _ } -> ()
  | _ -> Alcotest.fail "expected miss at version 1");
  ignore (register true);
  match expect_ok "after refresh" (explain ()) with
  | Serve.Protocol.Explained { cache = `Miss; version = 2; _ } -> ()
  | Serve.Protocol.Explained { cache = `Hit; _ } ->
    Alcotest.fail "refresh must invalidate the cache"
  | _ -> Alcotest.fail "expected explained at version 2"

let test_server_typed_errors () =
  let srv = Serve.Server.create ~config:quiet_config () in
  (match
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
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Not_found; _ } -> ()
  | _ -> Alcotest.fail "explain before register must be not_found");
  match
    Serve.Server.handle_request srv
      (Serve.Protocol.Register
         { dataset = "no-such"; scale = 1; seed = 0; refresh = false })
  with
  | Serve.Protocol.Error { code = Serve.Protocol.Not_found; _ } -> ()
  | _ -> Alcotest.fail "registering an unknown scenario must be not_found"

(* --- the SQL frontend over the wire ------------------------------------- *)

let re_sql =
  "SELECT name, city FROM FLATTEN(person, address2) WHERE year >= 2019 \
   GROUP BY city NEST name INTO nList"

let re_pattern = "(tuple (city (str NY)) (nList (bag ? *)))"

let register_dataset srv name =
  ignore
    (expect_ok "register"
       (Serve.Server.handle_request srv
          (Serve.Protocol.Register
             { dataset = name; scale = 1; seed = 0; refresh = false })))

let explain_via srv ~dataset ?query ?query_name () =
  Serve.Server.handle_request srv
    (Serve.Protocol.Explain
       {
         dataset;
         scale = 1;
         seed = 0;
         query;
         query_name;
         pattern = None;
         options = Serve.Protocol.default_options;
         deadline_ms = None;
         budget_ms = None;
       })

let register_query srv ~dataset ~name ~query ~pattern =
  Serve.Server.handle_request srv
    (Serve.Protocol.Register_query
       { name; dataset; scale = 1; seed = 0; query; pattern })

let explained_payload label = function
  | Serve.Protocol.Explained { result; _ } -> Nested.Json.to_line result
  | Serve.Protocol.Error { message; _ } ->
    Alcotest.fail (Fmt.str "%s: %s" label message)
  | _ -> Alcotest.fail (label ^ ": expected explained")

(* The acceptance property of the text path: a query arriving as SQL
   text — inline or stored via register_query — explains byte-for-byte
   identically to the scenario's programmatically constructed query.
   Each leg runs on a fresh server so no shared cache can mask a
   divergence. *)
let check_text_byte_identity ~dataset ~sql =
  let reference =
    let srv = Serve.Server.create ~config:quiet_config () in
    register_dataset srv dataset;
    explained_payload "programmatic" (explain_via srv ~dataset ())
  in
  let by_name =
    let srv = Serve.Server.create ~config:quiet_config () in
    register_dataset srv dataset;
    (match register_query srv ~dataset ~name:"q" ~query:sql ~pattern:None with
    | Serve.Protocol.Query_registered { replaced = false; _ } -> ()
    | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
    | _ -> Alcotest.fail "expected query_registered");
    explained_payload "by name" (explain_via srv ~dataset ~query_name:"q" ())
  in
  Alcotest.(check string) "registered text is byte-identical" reference by_name;
  let inline =
    let srv = Serve.Server.create ~config:quiet_config () in
    register_dataset srv dataset;
    explained_payload "inline sql" (explain_via srv ~dataset ~query:(`Sql sql) ())
  in
  Alcotest.(check string) "inline text is byte-identical" reference inline

let test_wire_text_identity_re () =
  check_text_byte_identity ~dataset:"RE" ~sql:re_sql

let test_wire_text_identity_forestry () =
  check_text_byte_identity ~dataset:"F1"
    ~sql:Scenarios.Forestry_scenarios.f1_sql

let test_wire_parse_verb () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_dataset srv "RE";
  (match
     Serve.Server.handle_request srv
       (Serve.Protocol.Parse
          {
            dataset = "RE";
            scale = 1;
            seed = 0;
            query = Some re_sql;
            pattern = Some re_pattern;
          })
   with
  | Serve.Protocol.Parsed { sql; sexp; fingerprint; output_type; pattern; _ }
    ->
    Alcotest.(check bool) "has canonical sql" true (sql <> None);
    let expected =
      Serve.Fingerprint.to_hex (Serve.Fingerprint.query (q running_example))
    in
    Alcotest.(check (option string)) "fingerprint matches the programmatic \
                                      query" (Some expected) fingerprint;
    (match sexp with
    | Some s ->
      Alcotest.(check string) "canonical sexp reparses to the same query"
        expected
        (Serve.Fingerprint.to_hex (Serve.Fingerprint.query (q s)))
    | None -> Alcotest.fail "expected a canonical sexp");
    Alcotest.(check bool) "typed output" true (output_type <> None);
    Alcotest.(check bool) "pattern echoed" true (pattern <> None)
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected parsed");
  match
    Serve.Server.handle_request srv
      (Serve.Protocol.Parse
         {
           dataset = "RE";
           scale = 1;
           seed = 0;
           query = Some "SELECT nope FROM person";
           pattern = None;
         })
  with
  | Serve.Protocol.Error { code = Serve.Protocol.Invalid_query; details; _ }
    -> (
    match details with
    | Some (Nested.Json.J_object fields) ->
      Alcotest.(check bool) "diagnostic names its stage" true
        (List.mem_assoc "stage" fields);
      Alcotest.(check bool) "diagnostic carries a position" true
        (List.mem_assoc "line" fields)
    | _ -> Alcotest.fail "expected structured diagnostic details")
  | _ -> Alcotest.fail "expected invalid_query"

let test_wire_register_query_lifecycle () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_dataset srv "RE";
  (match
     register_query srv ~dataset:"RE" ~name:"Top" ~query:re_sql ~pattern:None
   with
  | Serve.Protocol.Query_registered { replaced = false; _ } -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected query_registered");
  (* names are case-insensitive: re-registering replaces *)
  (match
     register_query srv ~dataset:"RE" ~name:"top" ~query:re_sql ~pattern:None
   with
  | Serve.Protocol.Query_registered { replaced = true; _ } -> ()
  | _ -> Alcotest.fail "expected replacement");
  (match explain_via srv ~dataset:"RE" ~query_name:"nope" () with
  | Serve.Protocol.Error { code = Serve.Protocol.Not_found; _ } -> ()
  | _ -> Alcotest.fail "unknown query_name must be not_found");
  (match
     explain_via srv ~dataset:"RE" ~query:(`Sql re_sql) ~query_name:"top" ()
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "query and query_name together must be bad_request");
  (* a registration whose query doesn't compile is rejected at the door *)
  (match
     register_query srv ~dataset:"RE" ~name:"bad"
       ~query:"SELECT nope FROM person" ~pattern:None
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Invalid_query; _ } -> ()
  | _ -> Alcotest.fail "expected invalid_query");
  (* ... and so is a pattern that cannot fit the query's output type *)
  match
    register_query srv ~dataset:"RE" ~name:"bad-pattern" ~query:re_sql
      ~pattern:(Some "(tuple (nosuch ?))")
  with
  | Serve.Protocol.Error { code = Serve.Protocol.Invalid_query; _ } -> ()
  | _ -> Alcotest.fail "expected invalid_query for the pattern"

let test_wire_stored_pattern_defaults () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_dataset srv "RE";
  (match
     register_query srv ~dataset:"RE" ~name:"q" ~query:re_sql
       ~pattern:(Some re_pattern)
   with
  | Serve.Protocol.Query_registered _ -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected query_registered");
  let reference = explained_payload "default" (explain_via srv ~dataset:"RE" ()) in
  (* the stored query + stored pattern hash to the scenario's own cache
     key, so this must be a cache hit — the strongest identity there is *)
  match explain_via srv ~dataset:"RE" ~query_name:"q" () with
  | Serve.Protocol.Explained { cache = `Hit; result; _ } ->
    Alcotest.(check string) "same cache entry" reference
      (Nested.Json.to_line result)
  | Serve.Protocol.Explained { cache = _; _ } ->
    Alcotest.fail
      "expected a cache hit: same query, same pattern, same cache key"
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected explained"

let test_wire_query_eviction () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_dataset srv "RE";
  (match
     register_query srv ~dataset:"RE" ~name:"Top" ~query:re_sql ~pattern:None
   with
  | Serve.Protocol.Query_registered { replaced = false; _ } -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected query_registered");
  (* case-insensitive lookup: the stored "Top" answers as "TOP" *)
  (match explain_via srv ~dataset:"RE" ~query_name:"TOP" () with
  | Serve.Protocol.Explained _ -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected explained");
  (* evicting the dataset must drop its registered queries too *)
  (match
     Serve.Server.handle_request srv
       (Serve.Protocol.Evict
          { dataset = Some "RE"; scale = 1; seed = 0; cache = false })
   with
  | Serve.Protocol.Evicted { datasets; queries; _ } ->
    Alcotest.(check int) "one dataset evicted" 1 datasets;
    Alcotest.(check int) "its query dropped with it" 1 queries
  | _ -> Alcotest.fail "expected evicted");
  register_dataset srv "RE";
  (* the dataset is back but the stale query must not be *)
  (match explain_via srv ~dataset:"RE" ~query_name:"Top" () with
  | Serve.Protocol.Error { code = Serve.Protocol.Not_found; _ } -> ()
  | _ -> Alcotest.fail "evicted query must be not_found after re-register");
  (* re-registering is a fresh insert, not a replacement *)
  match
    register_query srv ~dataset:"RE" ~name:"Top" ~query:re_sql ~pattern:None
  with
  | Serve.Protocol.Query_registered { replaced; _ } ->
    Alcotest.(check bool) "registry was really empty" false replaced;
    (match explain_via srv ~dataset:"RE" ~query_name:"top" () with
    | Serve.Protocol.Explained _ -> ()
    | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
    | _ -> Alcotest.fail "expected explained")
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected query_registered"

let list_queries srv ?dataset () =
  Serve.Server.handle_request srv
    (Serve.Protocol.List_queries { dataset; scale = 1; seed = 0 })

let test_wire_list_queries () =
  let srv = Serve.Server.create ~config:quiet_config () in
  (* listing an unregistered dataset is not_found, like register_query *)
  (match list_queries srv ~dataset:"RE" () with
  | Serve.Protocol.Error { code = Serve.Protocol.Not_found; _ } -> ()
  | _ -> Alcotest.fail "list over an unknown dataset must be not_found");
  register_dataset srv "RE";
  (* an empty registry lists as an empty, well-typed reply *)
  (match list_queries srv ~dataset:"RE" () with
  | Serve.Protocol.Queries { dataset = Some "RE"; queries = [] } -> ()
  | _ -> Alcotest.fail "expected an empty queries reply");
  let fingerprint =
    match
      register_query srv ~dataset:"RE" ~name:"Zeta" ~query:re_sql ~pattern:None
    with
    | Serve.Protocol.Query_registered { fingerprint; _ } -> fingerprint
    | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
    | _ -> Alcotest.fail "expected query_registered"
  in
  (match
     register_query srv ~dataset:"RE" ~name:"Alpha" ~query:re_sql ~pattern:None
   with
  | Serve.Protocol.Query_registered _ -> ()
  | _ -> Alcotest.fail "expected query_registered");
  (* per-dataset listing: sorted by name, carrying the registration's
     fingerprint and canonical forms *)
  (match list_queries srv ~dataset:"RE" () with
  | Serve.Protocol.Queries { dataset = Some "RE"; queries } ->
    Alcotest.(check (list string))
      "sorted by name" [ "Alpha"; "Zeta" ]
      (List.map (fun q -> q.Serve.Protocol.q_name) queries);
    List.iter
      (fun (q : Serve.Protocol.query_info) ->
        Alcotest.(check string) "fingerprint" fingerprint q.q_fingerprint;
        Alcotest.(check bool) "canonical sql present" true (q.q_sql <> None);
        Alcotest.(check bool) "canonical sexp present" true (q.q_sexp <> ""))
      queries
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected queries");
  (* the unfiltered listing spans datasets, sorted dataset-major *)
  register_dataset srv "F1";
  (match
     register_query srv ~dataset:"F1" ~name:"f"
       ~query:Scenarios.Forestry_scenarios.f1_sql ~pattern:None
   with
  | Serve.Protocol.Query_registered _ -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected query_registered");
  (match list_queries srv () with
  | Serve.Protocol.Queries { dataset = None; queries } ->
    Alcotest.(check (list (pair string string)))
      "dataset-major order"
      [ ("F1", "f"); ("RE", "Alpha"); ("RE", "Zeta") ]
      (List.map
         (fun q -> (q.Serve.Protocol.q_dataset, q.Serve.Protocol.q_name))
         queries)
  | _ -> Alcotest.fail "expected queries");
  (* eviction empties the dataset's slice of the listing *)
  ignore
    (Serve.Server.handle_request srv
       (Serve.Protocol.Evict
          { dataset = Some "RE"; scale = 1; seed = 0; cache = false }));
  register_dataset srv "RE";
  match list_queries srv ~dataset:"RE" () with
  | Serve.Protocol.Queries { queries = []; _ } -> ()
  | _ -> Alcotest.fail "evicted queries must not be listed"

let test_server_approx_no_alias () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_dataset srv "RE";
  let explain options =
    Serve.Server.handle_request srv
      (Serve.Protocol.Explain
         {
           dataset = "RE";
           scale = 1;
           seed = 0;
           query = None;
           query_name = None;
           pattern = None;
           options;
           deadline_ms = None;
           budget_ms = None;
         })
  in
  let has_approx j =
    match j with
    | Nested.Json.J_object fields -> List.mem_assoc "approx" fields
    | _ -> false
  in
  let exact =
    match expect_ok "exact" (explain Serve.Protocol.default_options) with
    | Serve.Protocol.Explained { cache = `Miss; result; _ } ->
      Alcotest.(check bool) "exact payload has no approx report" false
        (has_approx result);
      Nested.Json.to_line result
    | _ -> Alcotest.fail "expected a miss"
  in
  let sampled_options =
    { Serve.Protocol.default_options with sample_stride = Some 2 }
  in
  (* a sampled request must never be served from the exact cache entry *)
  (match expect_ok "sampled" (explain sampled_options) with
  | Serve.Protocol.Explained { cache = `Hit; _ } ->
    Alcotest.fail "sampled explain aliased the exact cache entry"
  | Serve.Protocol.Explained { cache = _; result; _ } ->
    Alcotest.(check bool) "sampled payload carries the approx report" true
      (has_approx result)
  | _ -> Alcotest.fail "expected explained");
  (* and the exact entry is still there, byte-identical *)
  match expect_ok "exact again" (explain Serve.Protocol.default_options) with
  | Serve.Protocol.Explained { cache = `Hit; result; _ } ->
    Alcotest.(check string) "exact entry untouched" exact
      (Nested.Json.to_line result)
  | _ -> Alcotest.fail "expected the exact entry to still hit"

let test_server_line_session () =
  (* the line-level entry point the transports share *)
  let srv = Serve.Server.create ~config:quiet_config () in
  let step line =
    let text, stop = Serve.Server.handle_line srv line in
    (Nested.Json.of_string text, stop)
  in
  let field name = function
    | Nested.Json.J_object fields -> List.assoc_opt name fields
    | _ -> None
  in
  let j, stop = step "{\"op\": \"register\", \"dataset\": \"RE\"}" in
  Alcotest.(check bool) "register continues" false stop;
  Alcotest.(check bool) "register ok" true
    (field "ok" j = Some (Nested.Json.J_bool true));
  let j, _ = step "nonsense" in
  Alcotest.(check bool) "parse errors answer, not kill" true
    (field "code" j = Some (Nested.Json.J_string "bad_request"));
  let j, _ = step "{\"op\": \"evict\", \"dataset\": \"RE\"}" in
  Alcotest.(check bool) "evict drops one dataset" true
    (field "datasets" j = Some (Nested.Json.J_int 1));
  let j, stop = step "{\"op\": \"shutdown\"}" in
  Alcotest.(check bool) "shutdown stops the loop" true stop;
  Alcotest.(check bool) "goodbye" true
    (field "type" j = Some (Nested.Json.J_string "goodbye"))

(* --- robustness: coalescing, mid-run deadlines, faults, sockets --------- *)

let str_contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A ["parallel"] option on the wire is an unknown field: ignored, so the
   answer is byte-identical to one without it and shares its cache entry. *)
let test_server_parallel_field_ignored () =
  let explain ?(extra = "") srv =
    fst
      (Serve.Server.handle_line srv
         (Fmt.str
            "{\"op\": \"explain\", \"dataset\": \"D3\"%s}" extra))
  in
  let fresh () =
    let srv = Serve.Server.create ~config:quiet_config () in
    ignore
      (Serve.Server.handle_line srv "{\"op\": \"register\", \"dataset\": \"D3\"}");
    srv
  in
  let plain = explain (fresh ()) in
  let srv = fresh () in
  let with_field = explain ~extra:", \"parallel\": true" srv in
  Alcotest.(check string) "same payload bytes" plain with_field;
  Alcotest.(check bool) "answered ok" true
    (str_contains ~needle:"\"ok\": true" plain);
  Alcotest.(check bool) "same cache entry" true
    (str_contains ~needle:"\"cache\": \"hit\"" (explain srv))

(* A trace whose reparameterizable operators overflow the MSR bitmask
   answers an explain error and leaves the server serving. *)
let test_server_too_many_operators () =
  let srv = Serve.Server.create ~config:quiet_config () in
  let step line = Nested.Json.of_string (fst (Serve.Server.handle_line srv line)) in
  let field name = function
    | Nested.Json.J_object fields -> List.assoc_opt name fields
    | _ -> None
  in
  ignore (step "{\"op\": \"register\", \"dataset\": \"RE\"}");
  let rec chain k q =
    if k = 0 then q else chain (k - 1) (Fmt.str "(select (>= year 2019) %s)" q)
  in
  let query =
    Fmt.str "(nest (name) nList (project (name city) %s))"
      (chain (Whynot.Msr.max_operators + 1) "(flatten-inner address2 (table person))")
  in
  let j =
    step
      (Fmt.str "{\"op\": \"explain\", \"dataset\": \"RE\", \"query\": \"%s\"}" query)
  in
  Alcotest.(check bool) "explain answers an error" true
    (field "ok" j = Some (Nested.Json.J_bool false));
  (match field "message" j with
  | Some (Nested.Json.J_string m) ->
    Alcotest.(check bool) "the error names the operator bound" true
      (str_contains ~needle:"Too_many_operators" m)
  | _ -> Alcotest.fail "expected an error message");
  let j = step "{\"op\": \"explain\", \"dataset\": \"RE\"}" in
  Alcotest.(check bool) "the server still explains" true
    (field "ok" j = Some (Nested.Json.J_bool true))

let explain_request ?deadline_ms () =
  Serve.Protocol.Explain
    {
      dataset = "RE";
      scale = 1;
      seed = 0;
      query = None;
      query_name = None;
      pattern = None;
      options = Serve.Protocol.default_options;
      deadline_ms;
      budget_ms = None;
    }

let register_re srv =
  ignore
    (expect_ok "register"
       (Serve.Server.handle_request srv
          (Serve.Protocol.Register
             { dataset = "RE"; scale = 1; seed = 0; refresh = false })))

let stats_section srv name =
  match Serve.Server.handle_request srv Serve.Protocol.Stats with
  | Serve.Protocol.Stats_reply sections -> (
    match List.assoc_opt name sections with
    | Some (Nested.Json.J_object fields) -> fields
    | _ -> Alcotest.fail ("stats section missing: " ^ name))
  | _ -> Alcotest.fail "expected stats"

let stat fields name =
  match List.assoc_opt name fields with
  | Some (Nested.Json.J_int n) -> n
  | _ -> Alcotest.fail ("stats field missing: " ^ name)

let test_server_single_flight () =
  Obs.Faultinject.reset ();
  (* 2x the scheduler capacity in identical concurrent explains:
     coalescing must shield the queue, so nobody sees overloaded *)
  let config = { quiet_config with queue_capacity = 2 } in
  let srv = Serve.Server.create ~config () in
  register_re srv;
  (* hold the one real execution open long enough for everyone to pile in *)
  Obs.Faultinject.arm "server.explain" (Obs.Faultinject.Delay_ms 200.0);
  let k = 4 in
  let responses = Array.make k None in
  let threads =
    Array.init k (fun i ->
        Thread.create
          (fun () ->
            responses.(i) <-
              Some (Serve.Server.handle_request srv (explain_request ())))
          ())
  in
  Array.iter Thread.join threads;
  Obs.Faultinject.reset ();
  let payloads = ref [] and miss = ref 0 and coalesced = ref 0 in
  Array.iter
    (fun r ->
      match r with
      | Some (Serve.Protocol.Explained { cache; result; _ }) -> (
        payloads := Nested.Json.to_line result :: !payloads;
        match cache with
        | `Miss -> incr miss
        | `Coalesced -> incr coalesced
        | `Hit | `Handle -> ())
      | Some (Serve.Protocol.Error { message; _ }) -> Alcotest.fail message
      | _ -> Alcotest.fail "missing response")
    responses;
  Alcotest.(check int) "exactly one leader miss" 1 !miss;
  Alcotest.(check int) "everyone else coalesced" (k - 1) !coalesced;
  (match !payloads with
  | p :: rest ->
    List.iter (Alcotest.(check string) "payloads byte-identical" p) rest
  | [] -> Alcotest.fail "no payloads");
  let server = stats_section srv "server" in
  Alcotest.(check int) "exactly one pipeline execution" 1
    (stat server "prepares");
  let flight = stats_section srv "inflight" in
  Alcotest.(check int) "one flight leader" 1 (stat flight "leaders");
  Alcotest.(check int) "flight coalesced the rest" (k - 1)
    (stat flight "coalesced");
  let sched = stats_section srv "scheduler" in
  Alcotest.(check int) "scheduler saw one job" 1 (stat sched "submitted");
  Alcotest.(check int) "depth drained" 0 (stat sched "depth")

let test_server_deadline_mid_execution () =
  Obs.Faultinject.reset ();
  let srv = Serve.Server.create ~config:quiet_config () in
  register_re srv;
  (* the job outlives its deadline while already running: the slow-job
     fault fires inside the scheduler job, past the admission check *)
  Obs.Faultinject.arm "server.explain" (Obs.Faultinject.Delay_ms 60.0);
  (match
     Serve.Server.handle_request srv (explain_request ~deadline_ms:15.0 ())
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Deadline_exceeded; message; _ }
    ->
    Alcotest.(check bool)
      (Fmt.str "mid-run phase attribution in %S" message)
      true
      (str_contains ~needle:"cancelled at" message)
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected deadline_exceeded");
  Obs.Faultinject.reset ();
  (* the cancelled run must leave no trace: no cached payload, no cached
     handle, and the scheduler fully drained *)
  (match Serve.Server.handle_request srv (explain_request ()) with
  | Serve.Protocol.Explained { cache = `Miss; _ } -> ()
  | Serve.Protocol.Explained { cache = `Hit; _ } ->
    Alcotest.fail "cancelled run must not populate the explanation cache"
  | Serve.Protocol.Explained { cache = `Handle; _ } ->
    Alcotest.fail "cancelled run must not leave a handle behind"
  | Serve.Protocol.Explained _ -> Alcotest.fail "unexpected cache label"
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected explained");
  let sched = stats_section srv "scheduler" in
  Alcotest.(check int) "one expiry" 1 (stat sched "expired");
  Alcotest.(check int) "depth drained" 0 (stat sched "depth")

(* feed [lines] through [serve_channels] and return the response lines *)
let run_stdio config lines =
  let in_path = Filename.temp_file "whynot_serve" ".in" in
  let out_path = Filename.temp_file "whynot_serve" ".out" in
  let oc = open_out in_path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let srv = Serve.Server.create ~config () in
  let ic = open_in in_path and oc = open_out out_path in
  Serve.Server.serve_channels srv ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in out_path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = read [] in
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  out

let test_server_request_size_limit () =
  Obs.Faultinject.reset ();
  let config = { quiet_config with max_request_bytes = 64 } in
  let big = "{\"op\": \"stats\", \"pad\": \"" ^ String.make 200 'x' ^ "\"}" in
  match run_stdio config [ big; "{\"op\": \"stats\"}" ] with
  | [ first; second ] ->
    Alcotest.(check bool) "oversized line answers bad_request" true
      (str_contains ~needle:"bad_request" first);
    Alcotest.(check bool) "oversize is named" true
      (str_contains ~needle:"64" first);
    Alcotest.(check bool) "the session stays in sync" true
      (str_contains ~needle:"scheduler" second)
  | lines ->
    Alcotest.fail
      (Fmt.str "expected 2 response lines, got %d" (List.length lines))

let test_server_garbled_input_survives () =
  Obs.Faultinject.reset ();
  (* byte corruption on the read path: the poisoned line answers
     bad_request and the session keeps going *)
  let first = ref true in
  Obs.Faultinject.arm "server.read"
    (Obs.Faultinject.Garble
       (fun s ->
         if !first then begin
           first := false;
           "\xff{" ^ s
         end
         else s));
  let out = run_stdio quiet_config [ "{\"op\": \"stats\"}"; "{\"op\": \"stats\"}" ] in
  Obs.Faultinject.reset ();
  match out with
  | [ poisoned; clean ] ->
    Alcotest.(check bool) "garbled line answers bad_request" true
      (str_contains ~needle:"bad_request" poisoned);
    Alcotest.(check bool) "next request is fine" true
      (str_contains ~needle:"scheduler" clean)
  | lines ->
    Alcotest.fail
      (Fmt.str "expected 2 response lines, got %d" (List.length lines))

let connect_unix path =
  (* serve_unix unlinks and binds the path after the thread starts: retry
     until the listener is up *)
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go (tries - 1)
  in
  go 100

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let test_server_unix_lifecycle () =
  Obs.Faultinject.reset ();
  let path = Filename.temp_file "whynot" ".sock" in
  let srv = Serve.Server.create ~config:quiet_config () in
  let server_thread =
    Thread.create (fun () -> Serve.Server.serve_unix srv ~path) ()
  in
  (* connection A: a write fault (EPIPE) kills this connection only *)
  let a = connect_unix path in
  let ica = Unix.in_channel_of_descr a in
  let oca = Unix.out_channel_of_descr a in
  send_line oca "{\"op\": \"register\", \"dataset\": \"RE\"}";
  Alcotest.(check bool) "A served before the fault" true
    (str_contains ~needle:"\"ok\": true" (input_line ica));
  Obs.Faultinject.arm "server.write"
    (Obs.Faultinject.fail_once (Unix.Unix_error (Unix.EPIPE, "write", "")));
  send_line oca "{\"op\": \"stats\"}";
  (match input_line ica with
  | exception End_of_file -> ()
  | line -> Alcotest.fail ("EPIPE'd connection must close, got: " ^ line));
  Alcotest.(check int) "write fault fired" 1
    (Obs.Faultinject.fired "server.write");
  (* a transient accept fault is retried, and the next connection works:
     one connection's death did not take the server down *)
  Obs.Faultinject.arm "server.accept"
    (Obs.Faultinject.Fail
       {
         times = 1;
         exn_ = Unix.Unix_error (Unix.ECONNABORTED, "accept", "");
       });
  let b = connect_unix path in
  let icb = Unix.in_channel_of_descr b in
  let ocb = Unix.out_channel_of_descr b in
  send_line ocb "{\"op\": \"stats\"}";
  Alcotest.(check bool) "B served after both faults" true
    (str_contains ~needle:"scheduler" (input_line icb));
  Alcotest.(check int) "accept fault fired" 1
    (Obs.Faultinject.fired "server.accept");
  (* a shutdown request actually stops the server: serve_unix returns *)
  send_line ocb "{\"op\": \"shutdown\"}";
  Alcotest.(check bool) "goodbye" true
    (str_contains ~needle:"goodbye" (input_line icb));
  Thread.join server_thread;
  Alcotest.(check bool) "stop flag latched" true (Serve.Server.stopping srv);
  Alcotest.(check int) "connections drained" 0
    (Serve.Server.active_connections srv);
  Obs.Faultinject.reset ();
  (try Unix.close a with Unix.Unix_error _ -> ());
  (try Unix.close b with Unix.Unix_error _ -> ())

let test_server_connection_cap () =
  Obs.Faultinject.reset ();
  let path = Filename.temp_file "whynot" ".sock" in
  let config = { quiet_config with max_connections = 1 } in
  let srv = Serve.Server.create ~config () in
  let server_thread =
    Thread.create (fun () -> Serve.Server.serve_unix srv ~path) ()
  in
  let a = connect_unix path in
  let ica = Unix.in_channel_of_descr a in
  let oca = Unix.out_channel_of_descr a in
  send_line oca "{\"op\": \"stats\"}";
  ignore (input_line ica);
  (* A occupies the only slot: B gets one overloaded line, then EOF *)
  let b = connect_unix path in
  let icb = Unix.in_channel_of_descr b in
  Alcotest.(check bool) "over-cap connection answers overloaded" true
    (str_contains ~needle:"overloaded" (input_line icb));
  (match input_line icb with
  | exception End_of_file -> ()
  | line -> Alcotest.fail ("rejected connection must close, got: " ^ line));
  Unix.close b;
  send_line oca "{\"op\": \"shutdown\"}";
  ignore (input_line ica);
  Thread.join server_thread;
  (try Unix.close a with Unix.Unix_error _ -> ())

let test_resolve_host () =
  (match Serve.Server.resolve_host "127.0.0.1" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("numeric address: " ^ m));
  (match Serve.Server.resolve_host "localhost" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("hostname: " ^ m));
  match Serve.Server.resolve_host "no-such-host.invalid" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unresolvable name must be an Error"

(* --- prepared handles ----------------------------------------------------- *)

(* One handle per query serves every option variant: [explain_with] runs
   [use_sas = false] or a smaller [max_sas] on a prefix of the handle's
   SAs, and from its second call on reads each SA's kept relaxed trace.
   Every cell of the option grid, called twice on one shared handle,
   answers the same codec JSON as a fresh [Pipeline.explain] with the
   same options. *)
let test_handle_option_grid () =
  let payload r =
    Nested.Json.to_line (Serve.Codec.result_to_json ~timings:false r)
  in
  let approx ~stride ~top_k =
    let cfg =
      { Whynot.Approx.budget_ms = None;
        sample_stride = (if stride = 1 then None else Some stride);
        top_k }
    in
    if Whynot.Approx.is_exact cfg then None else Some (Whynot.Approx.start cfg)
  in
  let cells =
    List.concat_map
      (fun use_sas ->
        List.concat_map
          (fun max_sas ->
            List.concat_map
              (fun revalidate ->
                List.concat_map
                  (fun stride ->
                    List.map
                      (fun top_k -> (use_sas, max_sas, revalidate, stride, top_k))
                      [ None; Some 2 ])
                  [ 1; 3 ])
              [ true; false ])
          [ 1; 2; 16 ])
      [ true; false ]
  in
  let check_scenario (s : Scenarios.Scenario.t) scale =
    let inst = s.Scenarios.Scenario.make ~scale () in
    let phi = inst.Scenarios.Scenario.question in
    let alternatives = inst.Scenarios.Scenario.alternatives in
    let h =
      Whynot.Pipeline.prepare ~alternatives ~db:phi.Whynot.Question.db
        phi.Whynot.Question.query
    in
    List.iter
      (fun (use_sas, max_sas, revalidate, stride, top_k) ->
        let label =
          Fmt.str "%s@%d use_sas=%b max_sas=%d revalidate=%b stride=%d top_k=%a"
            s.Scenarios.Scenario.name scale use_sas max_sas revalidate stride
            Fmt.(option ~none:(any "none") int) top_k
        in
        let fresh =
          Whynot.Pipeline.explain ?approx:(approx ~stride ~top_k) ~use_sas
            ~max_sas ~revalidate ~alternatives phi
        in
        let on_handle () =
          Whynot.Pipeline.explain_with ?approx:(approx ~stride ~top_k)
            ~use_sas ~max_sas ~revalidate h phi.Whynot.Question.missing
        in
        let first = on_handle () in
        let second = on_handle () in
        Alcotest.(check string) (label ^ ": first call") (payload fresh)
          (payload first);
        Alcotest.(check string) (label ^ ": kept traces") (payload fresh)
          (payload second))
      cells
  in
  List.iter (fun s -> check_scenario s 1) Scenarios.Registry.all;
  List.iter
    (fun name -> check_scenario (Option.get (Scenarios.Registry.find name)) 2)
    [ "D1"; "T3"; "F2" ]

let explain_with_options srv ~dataset options =
  Serve.Server.handle_request srv
    (Serve.Protocol.Explain
       {
         dataset;
         scale = 1;
         seed = 0;
         query = None;
         query_name = None;
         pattern = None;
         options;
         deadline_ms = None;
         budget_ms = None;
       })

(* The prepare-handle key strips the knobs: the default and four option
   variants on one query run one prepare, the first answers "miss" and
   the rest "handle", and every payload equals a server that keeps no
   handles.  A max_sas above the default is prepared on its own. *)
let test_server_one_handle_per_query () =
  let d = Serve.Protocol.default_options in
  let variants =
    [
      ("default", d, `Miss);
      ("use_sas=false", { d with use_sas = false }, `Handle);
      ("max_sas=1", { d with max_sas = 1 }, `Handle);
      ("revalidate=false", { d with revalidate = false }, `Handle);
      ("stride=2", { d with sample_stride = Some 2 }, `Handle);
      ("max_sas=32", { d with max_sas = 32 }, `Miss);
    ]
  in
  let shared = Serve.Server.create ~config:quiet_config () in
  let unkept =
    Serve.Server.create ~config:{ quiet_config with handle_capacity = 0 } ()
  in
  register_dataset shared "D3";
  register_dataset unkept "D3";
  let disposition = function
    | `Hit -> "hit"
    | `Miss -> "miss"
    | `Handle -> "handle"
    | `Coalesced -> "coalesced"
  in
  let prepares () = stat (stats_section shared "server") "prepares" in
  List.iter
    (fun (name, options, expected) ->
      let payload_of srv =
        match expect_ok name (explain_with_options srv ~dataset:"D3" options) with
        | Serve.Protocol.Explained { cache; result; _ } ->
          (cache, Nested.Json.to_line result)
        | _ -> Alcotest.fail (name ^ ": expected explained")
      in
      let cache, got = payload_of shared in
      let _, want = payload_of unkept in
      Alcotest.(check string) (name ^ ": disposition") (disposition expected)
        (disposition cache);
      Alcotest.(check string) (name ^ ": payload byte-identical") want got;
      if name = "stride=2" then
        Alcotest.(check int) "one prepare for five variants" 1 (prepares ()))
    variants;
  Alcotest.(check int) "max_sas=32 prepared its own handle" 2 (prepares ())

(* A failed or cancelled explain on a cached handle leaves its ⟦Q⟧_D
   slot empty, and the server keeps serving the handle: the next explain
   answers "handle", runs ⟦Q⟧_D again (the [engine.run] site fires once)
   and returns the payload of a fault-free server. *)
let test_server_original_slot_under_failure () =
  let fresh () =
    let srv = Serve.Server.create ~config:quiet_config () in
    register_re srv;
    srv
  in
  let payload label = function
    | Serve.Protocol.Explained { result; _ } -> Nested.Json.to_line result
    | Serve.Protocol.Error { message; _ } -> Alcotest.fail (label ^ ": " ^ message)
    | _ -> Alcotest.fail (label ^ ": expected explained")
  in
  Obs.Faultinject.reset ();
  let plain = payload "plain" (Serve.Server.handle_request (fresh ()) (explain_request ())) in
  let next label srv =
    Obs.Faultinject.reset ();
    Obs.Faultinject.arm "engine.run" (Obs.Faultinject.Delay_ms 0.0);
    let r = Serve.Server.handle_request srv (explain_request ()) in
    Alcotest.(check int) (label ^ ": ⟦Q⟧_D ran again") 1
      (Obs.Faultinject.fired "engine.run");
    Obs.Faultinject.reset ();
    (match r with
    | Serve.Protocol.Explained { cache = `Handle; _ } -> ()
    | _ -> Alcotest.fail (label ^ ": expected an answer from the kept handle"));
    Alcotest.(check string) (label ^ ": payload byte-identical") plain
      (payload label r)
  in
  let srv = fresh () in
  Obs.Faultinject.arm "engine.run"
    (Obs.Faultinject.fail_once (Engine.Fault.Transient (Failure "chaos")));
  (match Serve.Server.handle_request srv (explain_request ()) with
  | Serve.Protocol.Error { code = Serve.Protocol.Task_failed; message; _ } ->
    Alcotest.(check bool) (Fmt.str "%S names prepare/msr" message) true
      (str_contains ~needle:"prepare/msr" message)
  | _ -> Alcotest.fail "expected task_failed");
  next "after a fault" srv;
  let srv = fresh () in
  Obs.Faultinject.arm "engine.run" (Obs.Faultinject.Delay_ms 60.0);
  (match Serve.Server.handle_request srv (explain_request ~deadline_ms:15.0 ()) with
  | Serve.Protocol.Error { code = Serve.Protocol.Deadline_exceeded; _ } -> ()
  | _ -> Alcotest.fail "expected deadline_exceeded");
  next "after a cancellation" srv

let () =
  Alcotest.run "serve"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "deterministic" `Quick test_fp_deterministic;
          Alcotest.test_case "alpha-equivalence" `Quick test_fp_alpha_equivalent;
          Alcotest.test_case "parameter sensitivity" `Quick
            test_fp_param_sensitive;
          Alcotest.test_case "nip and options" `Quick test_fp_nip_and_options;
          Alcotest.test_case "cache keys" `Quick test_fp_keys;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_explanation_roundtrip;
          QCheck_alcotest.to_alcotest prop_explanations_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_via_text;
          Alcotest.test_case "result payload" `Quick test_codec_result_payload;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "register/reuse/refresh" `Quick
            test_catalog_register_reuse_refresh;
          Alcotest.test_case "distinct keys" `Quick
            test_catalog_keys_are_distinct;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "overwrite and invalidate" `Quick
            test_cache_overwrite_and_invalidate;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "long run" `Quick test_cache_many_keys;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "runs jobs" `Quick test_scheduler_runs_jobs;
          Alcotest.test_case "backpressure" `Quick test_scheduler_backpressure;
          Alcotest.test_case "deadline" `Quick test_scheduler_deadline;
          Alcotest.test_case "cancels mid-run" `Quick
            test_scheduler_cancels_mid_run;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "token semantics" `Quick test_cancel_token;
          Alcotest.test_case "pipeline observes cancellation" `Quick
            test_pipeline_cancelled_run;
        ] );
      ( "inflight",
        [
          Alcotest.test_case "coalesces concurrent callers" `Quick
            test_inflight_coalesces;
          Alcotest.test_case "leader failure releases followers" `Quick
            test_inflight_leader_failure_releases;
        ] );
      ( "faultinject",
        [ Alcotest.test_case "actions" `Quick test_faultinject_actions ] );
      ( "protocol",
        [
          Alcotest.test_case "parse requests" `Quick test_protocol_parse_requests;
          Alcotest.test_case "response lines" `Quick
            test_protocol_response_lines;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache hit is byte-identical" `Quick
            test_server_cache_hit_is_byte_identical;
          Alcotest.test_case "handle reuse across patterns" `Quick
            test_server_handle_reuse_across_patterns;
          Alcotest.test_case "refresh invalidates" `Quick
            test_server_refresh_invalidates;
          Alcotest.test_case "typed errors" `Quick test_server_typed_errors;
          Alcotest.test_case "approx options do not alias" `Quick
            test_server_approx_no_alias;
          Alcotest.test_case "line session" `Quick test_server_line_session;
          Alcotest.test_case "parallel field is ignored" `Quick
            test_server_parallel_field_ignored;
          Alcotest.test_case "too many operators" `Quick
            test_server_too_many_operators;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "RE text explains byte-identically" `Quick
            test_wire_text_identity_re;
          Alcotest.test_case "forestry text explains byte-identically" `Quick
            test_wire_text_identity_forestry;
          Alcotest.test_case "parse verb" `Quick test_wire_parse_verb;
          Alcotest.test_case "register_query lifecycle" `Quick
            test_wire_register_query_lifecycle;
          Alcotest.test_case "stored pattern defaults" `Quick
            test_wire_stored_pattern_defaults;
          Alcotest.test_case "query eviction" `Quick test_wire_query_eviction;
          Alcotest.test_case "list_queries verb" `Quick test_wire_list_queries;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "single-flight coalescing" `Quick
            test_server_single_flight;
          Alcotest.test_case "deadline mid-execution" `Quick
            test_server_deadline_mid_execution;
          Alcotest.test_case "request size limit" `Quick
            test_server_request_size_limit;
          Alcotest.test_case "garbled input survives" `Quick
            test_server_garbled_input_survives;
          Alcotest.test_case "unix socket lifecycle" `Quick
            test_server_unix_lifecycle;
          Alcotest.test_case "connection cap" `Quick test_server_connection_cap;
          Alcotest.test_case "resolve host" `Quick test_resolve_host;
        ] );
      ( "handle",
        [
          Alcotest.test_case "option grid byte-identical" `Quick
            test_handle_option_grid;
          Alcotest.test_case "one handle per query" `Quick
            test_server_one_handle_per_query;
          Alcotest.test_case "original slot under failure" `Quick
            test_server_original_slot_under_failure;
        ] );
    ]
