(* The observability subsystem: span trees, the monotone clock, the
   metrics registry (including cross-domain counter safety), and the
   Chrome trace_event exporter.  The exporter test round-trips through
   [Nested.Json] and checks the invariants chrome://tracing relies on:
   "X" phase events with non-decreasing timestamps, and cardinality
   attributes on every engine operator span. *)

open Nested
open Nrab

(* --- spans ---------------------------------------------------------------- *)

(* Deterministic time: a source returning [base + !t] — [base] sits above
   the process-wide monotone high-water mark, so the clamp is inert. *)
let with_fake_clock f =
  let base = Obs.Clock.now_ns () + 1_000_000_000 in
  let t = ref 0 in
  Obs.Clock.set_source (fun () -> base + !t);
  Fun.protect ~finally:Obs.Clock.reset_source (fun () -> f t)

let test_span_nesting () =
  let root = Obs.Span.start "root" in
  let a = Obs.Span.start ~parent:root "a" in
  let a1 = Obs.Span.start ~parent:a "a1" in
  Obs.Span.finish a1;
  Obs.Span.finish a;
  let b = Obs.Span.start ~parent:root "b" in
  Obs.Span.finish b;
  Obs.Span.finish root;
  Alcotest.(check (list string))
    "children in start order" [ "a"; "b" ]
    (List.map Obs.Span.name (Obs.Span.children root));
  Alcotest.(check (list string))
    "preorder traversal" [ "root"; "a"; "a1"; "b" ]
    (let acc = ref [] in
     Obs.Span.iter (fun s -> acc := Obs.Span.name s :: !acc) root;
     List.rev !acc);
  Alcotest.(check (option int))
    "parent link" (Some (Obs.Span.id root)) (Obs.Span.parent_id a);
  Alcotest.(check (option int)) "root has no parent" None (Obs.Span.parent_id root);
  Alcotest.(check int) "count_named" 1 (Obs.Span.count_named "a1" root);
  Alcotest.(check bool) "finished" true (Obs.Span.finished root)

let test_span_durations () =
  with_fake_clock @@ fun t ->
  let root = Obs.Span.start "root" in
  t := 1000;
  let child = Obs.Span.start ~parent:root "child" in
  t := 4000;
  Obs.Span.finish child;
  t := 5000;
  Obs.Span.finish root;
  Alcotest.(check int) "child duration" 3000 (Obs.Span.duration_ns child);
  Alcotest.(check int) "root duration" 5000 (Obs.Span.duration_ns root);
  (* finish is idempotent: the first call wins *)
  t := 9000;
  Obs.Span.finish child;
  Alcotest.(check int) "finish idempotent" 3000 (Obs.Span.duration_ns child)

let test_span_with_exception () =
  let root = Obs.Span.start "root" in
  (try
     Obs.Span.with_ ~parent:root "boom" (fun sp ->
         Obs.Span.set_int sp "n" 1;
         failwith "boom")
   with Failure _ -> ());
  Obs.Span.finish root;
  match Obs.Span.children root with
  | [ sp ] ->
    Alcotest.(check bool) "finished despite raise" true (Obs.Span.finished sp);
    Alcotest.(check (option int)) "attr survives" (Some 1)
      (match Obs.Span.attr sp "n" with
      | Some (Obs.Span.Int n) -> Some n
      | _ -> None)
  | _ -> Alcotest.fail "expected exactly one child"

let test_clock_monotone () =
  with_fake_clock @@ fun t ->
  t := 5000;
  let t1 = Obs.Clock.now_ns () in
  t := 2000 (* source goes backwards; the clamp must hold the line *);
  let t2 = Obs.Clock.now_ns () in
  t := 7000;
  let t3 = Obs.Clock.now_ns () in
  Alcotest.(check bool) "clamped" true (t2 >= t1);
  Alcotest.(check bool) "resumes" true (t3 > t2)

(* --- metrics -------------------------------------------------------------- *)

let test_histogram_percentiles () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "t" in
  for i = 1 to 1000 do
    Obs.Metrics.Histogram.observe h (float_of_int i)
  done;
  let s = Obs.Metrics.Histogram.summary h in
  Alcotest.(check int) "count" 1000 s.Obs.Metrics.Histogram.count;
  Alcotest.(check (float 0.5)) "sum" 500500.0 s.Obs.Metrics.Histogram.sum;
  Alcotest.(check (float 0.0)) "min" 1.0 s.Obs.Metrics.Histogram.min;
  Alcotest.(check (float 0.0)) "max" 1000.0 s.Obs.Metrics.Histogram.max;
  (* log-scale buckets at ratio 2^(1/16): ≤ ~4.4% relative error *)
  Alcotest.(check bool) "p50 within 10%" true
    (Float.abs (s.Obs.Metrics.Histogram.p50 -. 500.0) < 50.0);
  Alcotest.(check bool) "p95 within 10%" true
    (Float.abs (s.Obs.Metrics.Histogram.p95 -. 950.0) < 95.0)

let test_histogram_clamps () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "one" in
  Obs.Metrics.Histogram.observe h 42.0;
  let s = Obs.Metrics.Histogram.summary h in
  Alcotest.(check (float 0.0)) "p50 of singleton" 42.0 s.Obs.Metrics.Histogram.p50;
  Alcotest.(check (float 0.0)) "p95 of singleton" 42.0 s.Obs.Metrics.Histogram.p95

let test_registry () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg "c" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.Counter.value c);
  Alcotest.(check bool) "find-or-create returns same metric" true
    (Obs.Metrics.Counter.value (Obs.Metrics.counter ~registry:reg "c") = 5);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Obs.Metrics: c already registered with another kind (wanted gauge)")
    (fun () -> ignore (Obs.Metrics.gauge ~registry:reg "c"));
  Obs.Metrics.reset reg;
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.Counter.value c);
  Alcotest.(check int) "registration kept" 1
    (List.length (Obs.Metrics.metrics reg))

let test_concurrent_counters () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg "hits" in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.Metrics.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "4 domains x 10k increments" 40_000
    (Obs.Metrics.Counter.value c)

let test_snapshot_and_reset_all () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg "b.counter" in
  let g = Obs.Metrics.gauge ~registry:reg "a.gauge" in
  let h = Obs.Metrics.histogram ~registry:reg "c.hist" in
  Obs.Metrics.Counter.incr ~by:7 c;
  Obs.Metrics.Gauge.set g 2.5;
  Obs.Metrics.Histogram.observe h 5.0;
  (match Obs.Metrics.snapshot reg with
  | [ ("a.gauge", `Gauge 2.5); ("b.counter", `Counter 7); ("c.hist", `Histogram s) ]
    ->
    Alcotest.(check int) "histogram count in snapshot" 1
      s.Obs.Metrics.Histogram.count
  | _ -> Alcotest.fail "snapshot shape (sorted by name)");
  Obs.Metrics.reset_all reg;
  (match Obs.Metrics.snapshot reg with
  | [ ("a.gauge", `Gauge 0.0); ("b.counter", `Counter 0); ("c.hist", `Histogram s) ]
    ->
    Alcotest.(check int) "histogram zeroed" 0 s.Obs.Metrics.Histogram.count
  | _ -> Alcotest.fail "reset_all zeroes everything, keeping registrations");
  (* reset must clear the observed min/max, not just the counts: the
     percentile clamp would otherwise use stale bounds *)
  Obs.Metrics.Histogram.observe h 2.0;
  let s = Obs.Metrics.Histogram.summary h in
  Alcotest.(check (float 0.0)) "post-reset min" 2.0 s.Obs.Metrics.Histogram.min;
  Alcotest.(check (float 0.0)) "post-reset max" 2.0 s.Obs.Metrics.Histogram.max

let test_cumulative_buckets () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg "cb" in
  List.iter (Obs.Metrics.Histogram.observe h) [ 0.2; 0.9; 100.0; 3000.0 ];
  let buckets = Obs.Metrics.Histogram.cumulative_buckets h in
  Alcotest.(check int) "one entry per non-empty bucket" 3 (List.length buckets);
  let rec monotone = function
    | (le1, c1) :: ((le2, c2) :: _ as rest) ->
      le1 < le2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "le and counts increase" true (monotone buckets);
  (match buckets with
  | (le0, 2) :: _ -> Alcotest.(check (float 0.0)) "sub-1.0 bucket" 1.0 le0
  | _ -> Alcotest.fail "first bucket holds both small observations");
  Alcotest.(check int) "last cumulative count = total" 4
    (snd (List.nth buckets 2))

(* --- structured logging ---------------------------------------------------- *)

(* The global log level and sink state are restored after each test. *)
let with_log_state f =
  let saved = Obs.Log.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.remove_sink "test.mem";
      Obs.Log.set_level saved)
    f

let test_log_gating () =
  with_log_state @@ fun () ->
  Obs.Log.set_level (Some Obs.Log.Info);
  let evaluated = ref false in
  Obs.Log.debug "gated" (fun () ->
      evaluated := true;
      []);
  Alcotest.(check bool) "disabled level never evaluates its thunk" false
    !evaluated;
  Alcotest.(check bool) "enabled check" true (Obs.Log.enabled Obs.Log.Warn);
  Alcotest.(check bool) "disabled check" false (Obs.Log.enabled Obs.Log.Debug);
  Obs.Log.set_level None;
  Obs.Log.err "gated" (fun () ->
      evaluated := true;
      []);
  Alcotest.(check bool) "level None disables even errors" false !evaluated;
  Obs.Log.set_level (Some Obs.Log.Debug);
  Obs.Log.debug "open" (fun () ->
      evaluated := true;
      []);
  Alcotest.(check bool) "enabled level evaluates" true !evaluated

let test_log_sinks () =
  with_log_state @@ fun () ->
  Obs.Log.set_level (Some Obs.Log.Info);
  let sink, seen = Obs.Log.memory_sink () in
  (* a sink that raises must not take the record away from the others *)
  Obs.Log.add_sink "test.mem" (fun _ -> failwith "bad sink");
  Obs.Log.add_sink "test.mem" sink (* same name: replaces *);
  Obs.Log.add_sink "test.boom" (fun _ -> failwith "bad sink");
  Obs.Log.info "fanout" (fun () -> [ Obs.Log.str "k" "v" ]);
  Obs.Log.remove_sink "test.boom";
  (match seen () with
  | [ r ] ->
    Alcotest.(check string) "event" "fanout" r.Obs.Log.event;
    Alcotest.(check bool) "field" true
      (List.assoc_opt "k" r.Obs.Log.fields = Some (Obs.Span.String "v"))
  | rs -> Alcotest.fail (Fmt.str "expected one record, saw %d" (List.length rs)));
  Obs.Log.remove_sink "test.mem";
  Obs.Log.info "after" (fun () -> []);
  Alcotest.(check int) "removed sink sees nothing more" 1
    (List.length (seen ()))

(* --- trace context ---------------------------------------------------------- *)

let test_trace_context_scoping () =
  Alcotest.(check (option string)) "no ambient context" None
    (Obs.Trace_context.current ());
  let inner =
    Obs.Trace_context.with_id "outer" (fun () ->
        let a = Obs.Trace_context.current () in
        let b =
          Obs.Trace_context.with_id "inner" (fun () ->
              Obs.Trace_context.current ())
        in
        let c =
          Obs.Trace_context.with_opt None (fun () ->
              Obs.Trace_context.current ())
        in
        (a, b, c, Obs.Trace_context.current ()))
  in
  (match inner with
  | Some "outer", Some "inner", None, Some "outer" -> ()
  | _ -> Alcotest.fail "nesting must restore the outer context");
  (* restored even when the scope raises *)
  (try
     Obs.Trace_context.with_id "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (option string)) "restored after raise" None
    (Obs.Trace_context.current ());
  (* threads do not inherit each other's context *)
  let seen_in_thread = ref (Some "sentinel") in
  Obs.Trace_context.with_id "main-thread" (fun () ->
      let t =
        Thread.create (fun () -> seen_in_thread := Obs.Trace_context.current ()) ()
      in
      Thread.join t);
  Alcotest.(check (option string)) "fresh thread starts blank" None
    !seen_in_thread

let test_trace_ids () =
  let a = Obs.Trace_context.make () and b = Obs.Trace_context.make () in
  Alcotest.(check bool) "generated ids differ" true (a <> b);
  Alcotest.(check int) "16 hex chars" 16 (String.length a);
  List.iter
    (fun (ok, id) ->
      Alcotest.(check bool) (Fmt.str "is_valid %S" id) ok
        (Obs.Trace_context.is_valid id))
    [
      (true, a);
      (true, "t-1.a:B_x");
      (true, String.make 64 'x');
      (false, "");
      (false, String.make 65 'x');
      (false, "has space");
      (false, "newline\n");
      (false, "quote\"");
    ]

let test_span_trace_autotag () =
  let sp =
    Obs.Trace_context.with_id "tag-me" (fun () ->
        let sp = Obs.Span.start "tagged" in
        Obs.Span.finish sp;
        sp)
  in
  Alcotest.(check bool) "span carries the ambient id" true
    (Obs.Span.attr sp "trace_id" = Some (Obs.Span.String "tag-me"));
  let bare = Obs.Span.start "bare" in
  Obs.Span.finish bare;
  Alcotest.(check (option string)) "no context, no tag" None
    (match Obs.Span.attr bare "trace_id" with
    | Some (Obs.Span.String s) -> Some s
    | _ -> None)

(* --- Chrome trace_event export -------------------------------------------- *)

let small_db () =
  let schema = Vtype.relation [ ("a", Vtype.TInt); ("b", Vtype.TString) ] in
  let row a b =
    Value.Tuple [ ("a", Value.Int a); ("b", Value.String b) ]
  in
  Relation.Db.of_list
    [
      ( "r",
        Relation.of_tuples ~schema
          [ row 1 "x"; row 2 "y"; row 2 "y"; row 3 "z"; row 4 "x" ] );
    ]

let member k obj =
  match obj with
  | Json.J_object fields -> List.assoc_opt k fields
  | _ -> None

let expect_string = function Some (Json.J_string s) -> s | _ -> Alcotest.fail "expected string"
let expect_float = function
  | Some (Json.J_float f) -> f
  | Some (Json.J_int i) -> float_of_int i
  | _ -> Alcotest.fail "expected number"

let test_trace_event_json () =
  (* dedup forces a shuffle stage, so the trace has a "shuffle" span and
     non-zero shuffled_rows on the op span *)
  let g = Query.Gen.create () in
  let q =
    Query.dedup g
      (Query.select g
         (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 2))
         (Query.table g "r"))
  in
  let root = Obs.Span.start "test" in
  let _, _ = Engine.Exec.run ~parent:root (small_db ()) q in
  Obs.Span.finish root;
  let json = Json.of_string (Obs.Trace_event.to_string [ root ]) in
  let events =
    match member "traceEvents" json with
    | Some (Json.J_array evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 3);
  (* every event is a complete ("X") event with the required fields *)
  List.iter
    (fun ev ->
      Alcotest.(check string) "phase" "X" (expect_string (member "ph" ev));
      ignore (expect_string (member "name" ev));
      ignore (expect_float (member "ts" ev));
      ignore (expect_float (member "dur" ev));
      ignore (expect_float (member "pid" ev));
      ignore (expect_float (member "tid" ev)))
    events;
  (* timestamps non-decreasing in emission order *)
  let ts = List.map (fun ev -> expect_float (member "ts" ev)) events in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone timestamps" true (monotone ts);
  (* operator spans carry the Spark-UI cardinalities as args *)
  let op_events =
    List.filter
      (fun ev ->
        String.length (expect_string (member "name" ev)) >= 3
        && String.sub (expect_string (member "name" ev)) 0 3 = "op:")
      events
  in
  Alcotest.(check int) "one event per operator" 3 (List.length op_events);
  List.iter
    (fun ev ->
      let args = match member "args" ev with Some a -> a | None -> Alcotest.fail "no args" in
      List.iter
        (fun k ->
          match member k args with
          | Some (Json.J_int n) ->
            Alcotest.(check bool) (k ^ " non-negative") true (n >= 0)
          | _ -> Alcotest.fail ("op span missing arg " ^ k))
        [ "input_rows"; "output_rows"; "shuffled_rows" ])
    op_events;
  (* the dedup op (symbol δ) appears, and its shuffle stage left a span *)
  Alcotest.(check bool) "dedup op span present" true
    (List.exists
       (fun ev ->
         let n = expect_string (member "name" ev) in
         String.length n >= 5 && String.sub n 0 5 = "op:\xce\xb4")
       op_events);
  Alcotest.(check bool) "a shuffle span was recorded" true
    (Obs.Span.count_named "shuffle" root >= 1)

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "deterministic durations" `Quick test_span_durations;
          Alcotest.test_case "with_ finishes on raise" `Quick test_span_with_exception;
          Alcotest.test_case "clock is monotone" `Quick test_clock_monotone;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "histogram clamps to observed" `Quick test_histogram_clamps;
          Alcotest.test_case "registry find-or-create" `Quick test_registry;
          Alcotest.test_case "concurrent counters" `Quick test_concurrent_counters;
          Alcotest.test_case "snapshot and reset_all" `Quick test_snapshot_and_reset_all;
          Alcotest.test_case "cumulative buckets" `Quick test_cumulative_buckets;
        ] );
      ( "log",
        [
          Alcotest.test_case "level gating" `Quick test_log_gating;
          Alcotest.test_case "sinks" `Quick test_log_sinks;
        ] );
      ( "trace_context",
        [
          Alcotest.test_case "scoping and restore" `Quick test_trace_context_scoping;
          Alcotest.test_case "id generation and validation" `Quick test_trace_ids;
          Alcotest.test_case "span auto-tag" `Quick test_span_trace_autotag;
        ] );
      ( "trace_event",
        [ Alcotest.test_case "chrome trace JSON" `Quick test_trace_event_json ] );
    ]
