(* End-to-end telemetry: trace propagation from the wire envelope
   through the scheduler and pipeline onto pool worker domains (one
   grep over the log stream reconstructs a request's path), the
   trace-id echo policy, retry and coalesced-request attribution, the
   Prometheus exposition (golden test + grammar check on the live
   registry), the telemetry protocol verb, the log-record JSON codec
   (property-tested round-trip), the stats latency section, and the
   slow-query / SLO instrumentation. *)

open Nested

let quiet_config = { Serve.Server.default_config with timings = false }

(* Capture every record emitted while [f] runs: level Debug plus a
   memory sink, both undone on exit (the suite shares process-global
   log state with the engine). *)
let with_debug_capture f =
  let saved = Obs.Log.level () in
  Obs.Log.set_level (Some Obs.Log.Debug);
  let sink, seen = Obs.Log.memory_sink () in
  Obs.Log.add_sink "test.telemetry.mem" sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.remove_sink "test.telemetry.mem";
      Obs.Log.set_level saved)
    (fun () -> f seen)

let member name = function
  | Json.J_object fields -> List.assoc_opt name fields
  | _ -> None

let events_of records = List.map (fun r -> r.Obs.Log.event) records

let field name r = List.assoc_opt name r.Obs.Log.fields

let register_re srv =
  match
    Serve.Server.handle_request srv
      (Serve.Protocol.Register { dataset = "RE"; scale = 1; seed = 0; refresh = false })
  with
  | Serve.Protocol.Registered _ -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected registered"

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

(* --- trace propagation ------------------------------------------------- *)

let test_trace_e2e () =
  with_debug_capture @@ fun seen ->
  let srv = Serve.Server.create ~config:quiet_config () in
  let step line = Json.of_string (fst (Serve.Server.handle_line srv line)) in
  let reg =
    step {|{"op": "register", "dataset": "RE", "trace_id": "t-e2e.reg"}|}
  in
  Alcotest.(check (option string))
    "register echoes the client id" (Some "t-e2e.reg")
    (match member "trace_id" reg with Some (Json.J_string s) -> Some s | _ -> None);
  let ex =
    step {|{"op": "explain", "dataset": "RE", "trace_id": "t-e2e.explain"}|}
  in
  Alcotest.(check (option string))
    "explain echoes the client id" (Some "t-e2e.explain")
    (match member "trace_id" ex with Some (Json.J_string s) -> Some s | _ -> None);
  Alcotest.(check bool) "explain succeeded" true
    (member "ok" ex = Some (Json.J_bool true));
  (* one grep for the id reconstructs the request's path *)
  let trail =
    List.filter
      (fun r -> r.Obs.Log.trace_id = Some "t-e2e.explain")
      (seen ())
  in
  let evs = events_of trail in
  List.iter
    (fun e ->
      Alcotest.(check bool) (e ^ " on the trail") true (List.mem e evs))
    [ "serve.request"; "sched.admit"; "pipeline.done"; "serve.response" ];
  Alcotest.(check bool) "phase records on the trail (4 phases/SA)" true
    (List.length (List.filter (( = ) "pipeline.phase") evs) >= 4);
  Alcotest.(check (option string))
    "the trail starts at the request record" (Some "serve.request")
    (match evs with e :: _ -> Some e | [] -> None);
  Alcotest.(check (option string))
    "and ends at the response record" (Some "serve.response")
    (match List.rev evs with e :: _ -> Some e | [] -> None);
  (match List.find_opt (fun r -> r.Obs.Log.event = "serve.response") trail with
  | Some r ->
    Alcotest.(check bool) "response record names the op" true
      (field "op" r = Some (Obs.Span.String "explain"));
    Alcotest.(check bool) "response record says ok" true
      (field "ok" r = Some (Obs.Span.Bool true))
  | None -> Alcotest.fail "serve.response record missing")

let test_trace_echo_policy () =
  with_debug_capture @@ fun seen ->
  let srv = Serve.Server.create ~config:quiet_config () in
  let step line = fst (Serve.Server.handle_line srv line) in
  (* no client id: no echo on the wire, but the records still carry a
     generated (valid) id *)
  let text = step {|{"op": "stats"}|} in
  Alcotest.(check (option Alcotest.string)) "id-less response has no trace_id"
    None
    (match member "trace_id" (Json.of_string text) with
    | Some (Json.J_string s) -> Some s
    | _ -> None);
  (match
     List.find_opt
       (fun r ->
         r.Obs.Log.event = "serve.request"
         && field "op" r = Some (Obs.Span.String "stats"))
       (seen ())
   with
  | Some r -> (
    match r.Obs.Log.trace_id with
    | Some id ->
      Alcotest.(check bool) "generated id is valid" true
        (Obs.Trace_context.is_valid id)
    | None -> Alcotest.fail "id-less request must get a generated trace id")
  | None -> Alcotest.fail "serve.request record missing");
  (* a malformed client id is rejected before dispatch *)
  let bad = Json.of_string (step {|{"op": "stats", "trace_id": "bad id"}|}) in
  Alcotest.(check bool) "invalid trace_id answers bad_request" true
    (member "code" bad = Some (Json.J_string "bad_request"));
  Alcotest.(check bool) "rejected id is not echoed" true
    (member "trace_id" bad = None)

let test_retry_attribution () =
  with_debug_capture @@ fun seen ->
  Obs.Faultinject.reset ();
  let config = { quiet_config with task_retries = 3 } in
  let srv = Serve.Server.create ~config () in
  register_re srv;
  (* exactly one transient fault: the first tracing attempt fails, its
     retry succeeds *)
  Obs.Faultinject.arm "tracing.relaxed"
    (Obs.Faultinject.Fail
       { times = 1; exn_ = Engine.Fault.Transient (Failure "chaos") });
  let resp =
    Obs.Trace_context.with_id "t-retry" (fun () ->
        Serve.Server.handle_request srv (explain_request ()))
  in
  Obs.Faultinject.reset ();
  (match resp with
  | Serve.Protocol.Explained _ -> ()
  | Serve.Protocol.Error { message; _ } -> Alcotest.fail message
  | _ -> Alcotest.fail "expected explained");
  (* the retry happened on a pool worker domain, yet its record carries
     the submitting request's trace id *)
  let retries =
    List.filter (fun r -> r.Obs.Log.event = "task.retry") (seen ())
  in
  Alcotest.(check bool) "chaos produced retry records" true (retries <> []);
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "retry record carries the trace id"
        (Some "t-retry") r.Obs.Log.trace_id;
      (match field "attempt" r with
      | Some (Obs.Span.Int n) ->
        Alcotest.(check bool) "attempt numbering starts at 2" true (n >= 2)
      | _ -> Alcotest.fail "retry record missing attempt");
      match field "task" r with
      | Some (Obs.Span.String _) -> ()
      | _ -> Alcotest.fail "retry record missing task")
    retries

let test_coalesced_attribution () =
  with_debug_capture @@ fun seen ->
  Obs.Faultinject.reset ();
  let srv = Serve.Server.create ~config:quiet_config () in
  register_re srv;
  (* hold the leader's execution open so the second request coalesces *)
  Obs.Faultinject.arm "server.explain" (Obs.Faultinject.Delay_ms 200.0);
  let run id delay_ms =
    Thread.create
      (fun () ->
        if delay_ms > 0.0 then Thread.delay (delay_ms /. 1000.0);
        Obs.Trace_context.with_id id (fun () ->
            ignore (Serve.Server.handle_request srv (explain_request ()))))
      ()
  in
  let a = run "t-co.a" 0.0 in
  let b = run "t-co.b" 30.0 in
  Thread.join a;
  Thread.join b;
  Obs.Faultinject.reset ();
  match
    List.filter (fun r -> r.Obs.Log.event = "serve.coalesced") (seen ())
  with
  | [ r ] ->
    (* the one cross-trace edge: the follower names the leader *)
    Alcotest.(check (option string)) "the follower is the delayed request"
      (Some "t-co.b") r.Obs.Log.trace_id;
    Alcotest.(check bool) "and names the leader's trace" true
      (field "leader_trace" r = Some (Obs.Span.String "t-co.a"))
  | rs ->
    Alcotest.fail
      (Fmt.str "expected exactly one serve.coalesced record, saw %d"
         (List.length rs))

(* --- Prometheus exposition --------------------------------------------- *)

let test_prometheus_golden () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.Counter.incr ~by:3
    (Obs.Metrics.counter ~registry:reg "serve.requests");
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge ~registry:reg "pool.size") 3.5;
  (* the name needs sanitizing: spaces, '!', and a leading digit *)
  let h = Obs.Metrics.histogram ~registry:reg "9lat ms!" in
  Obs.Metrics.Histogram.observe h 0.5;
  Obs.Metrics.Histogram.observe h 0.5;
  Alcotest.(check string) "exposition is byte-stable"
    (String.concat "\n"
       [
         "# TYPE _9lat_ms_ histogram";
         "_9lat_ms__bucket{le=\"1\"} 2";
         "_9lat_ms__bucket{le=\"+Inf\"} 2";
         "_9lat_ms__sum 1";
         "_9lat_ms__count 2";
         "# TYPE pool_size gauge";
         "pool_size 3.5";
         "# TYPE serve_requests_total counter";
         "serve_requests_total 3";
         "";
       ])
    (Obs.Export.prometheus_of reg)

(* Grammar check: every line is a TYPE comment or `name[{labels}] value`
   with a metric-identifier name and a parseable value. *)
let check_prometheus_text text =
  let is_type_line l = String.length l >= 7 && String.sub l 0 7 = "# TYPE " in
  let valid_name n =
    n <> ""
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '{' | '}'
           | '"' | '=' | '+' | '.' | ',' ->
             true
           | _ -> false)
         n
    && (match n.[0] with '0' .. '9' -> false | _ -> true)
  in
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         if l = "" || is_type_line l then ()
         else
           match String.rindex_opt l ' ' with
           | None -> Alcotest.fail ("sample line without a value: " ^ l)
           | Some i ->
             let name = String.sub l 0 i in
             let v = String.sub l (i + 1) (String.length l - i - 1) in
             Alcotest.(check bool) ("sample name ok: " ^ l) true
               (valid_name name);
             Alcotest.(check bool) ("sample value ok: " ^ l) true
               (v = "+Inf" || v = "-Inf" || float_of_string_opt v <> None))

let test_telemetry_verb () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_re srv;
  (match Serve.Server.handle_request srv (explain_request ()) with
  | Serve.Protocol.Explained _ -> ()
  | _ -> Alcotest.fail "expected explained");
  (match
     Serve.Server.handle_request srv
       (Serve.Protocol.Telemetry { format = `Prometheus })
   with
  | Serve.Protocol.Telemetry_reply { format = `Prometheus; metrics = Json.J_string text } ->
    Alcotest.(check bool) "exposition mentions the explain histogram" true
      (let needle = "serve_explain_latency_ms_count" in
       let n = String.length text and m = String.length needle in
       let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
       go 0);
    check_prometheus_text text
  | _ -> Alcotest.fail "expected a Prometheus telemetry reply");
  (match
     Serve.Server.handle_request srv (Serve.Protocol.Telemetry { format = `Json })
   with
  | Serve.Protocol.Telemetry_reply { format = `Json; metrics = Json.J_object entries } ->
    Alcotest.(check bool) "JSON snapshot has entries" true (entries <> [])
  | _ -> Alcotest.fail "expected a JSON telemetry reply");
  (* the wire spelling *)
  let reply = Json.of_string (fst (Serve.Server.handle_line srv {|{"op": "telemetry"}|})) in
  Alcotest.(check bool) "telemetry over the wire" true
    (member "type" reply = Some (Json.J_string "telemetry")
    && member "format" reply = Some (Json.J_string "prometheus"));
  let bad =
    Json.of_string
      (fst (Serve.Server.handle_line srv {|{"op": "telemetry", "format": "xml"}|}))
  in
  Alcotest.(check bool) "unknown format answers bad_request" true
    (member "code" bad = Some (Json.J_string "bad_request"))

(* [whynot.tracing.shared_rows] counts the rows the share traces once
   for all SAs.  A multi-SA explain moves it and records the share under
   a [tracing.shared] span; a single-SA explain has nothing to share. *)
let test_shared_rows () =
  let shared_rows () =
    Obs.Metrics.Counter.value
      (Obs.Metrics.counter "whynot.tracing.shared_rows")
  in
  let inst =
    (Option.get (Scenarios.Registry.find "Q3")).Scenarios.Scenario.make
      ~scale:1 ()
  in
  let explain ~use_sas =
    Whynot.Pipeline.explain ~use_sas
      ~alternatives:inst.Scenarios.Scenario.alternatives
      inst.Scenarios.Scenario.question
  in
  let before = shared_rows () in
  let r = explain ~use_sas:true in
  Alcotest.(check bool) "a Q3 explain shares rows" true (shared_rows () > before);
  (match
     Obs.Span.find_all
       (fun sp -> Obs.Span.name sp = "tracing.shared")
       r.Whynot.Pipeline.span
   with
  | [ sp ] ->
    List.iter
      (fun a ->
        Alcotest.(check bool) (a ^ " recorded") true (Obs.Span.attr sp a <> None))
      [ "shared_blocks"; "shared_rows" ]
  | sps -> Alcotest.failf "expected one tracing.shared span, got %d" (List.length sps));
  let before = shared_rows () in
  ignore (explain ~use_sas:false);
  Alcotest.(check int) "a use_sas:false explain shares nothing" before
    (shared_rows ());
  let srv = Serve.Server.create ~config:quiet_config () in
  match
    Serve.Server.handle_request srv (Serve.Protocol.Telemetry { format = `Json })
  with
  | Serve.Protocol.Telemetry_reply { metrics; _ } ->
    Alcotest.(check bool) "the telemetry verb reports the counter" true
      (member "whynot.tracing.shared_rows" metrics
      = Some (Json.J_int (shared_rows ())))
  | _ -> Alcotest.fail "expected a telemetry reply"

(* Table scans keep only the columns the query reads.  On Q3 at scale 1
   each table access span of ⟦Q⟧_D's run and the [tracing.shared] span
   carry [columns_kept] and [columns_pruned], and the columns left out
   land on [engine.columnar.columns_pruned]. *)
let test_columns_pruned () =
  let pruned () =
    Obs.Metrics.Counter.value
      (Obs.Metrics.counter "engine.columnar.columns_pruned")
  in
  let inst =
    (Option.get (Scenarios.Registry.find "Q3")).Scenarios.Scenario.make
      ~scale:1 ()
  in
  let before = pruned () in
  let r =
    Whynot.Pipeline.explain ~alternatives:inst.Scenarios.Scenario.alternatives
      inst.Scenarios.Scenario.question
  in
  let int_attr sp a =
    match Obs.Span.attr sp a with
    | Some (Obs.Span.Int i) -> i
    | _ -> Alcotest.failf "%s: no integer %s" (Obs.Span.name sp) a
  in
  let tables =
    Nrab.Query.input_tables inst.Scenarios.Scenario.question.Whynot.Question.query
  in
  let scans =
    Obs.Span.find_all
      (fun sp ->
        List.exists
          (fun t -> String.starts_with ~prefix:("op:" ^ t ^ "#") (Obs.Span.name sp))
          tables)
      r.Whynot.Pipeline.span
  in
  Alcotest.(check int) "one span per table access" (List.length tables)
    (List.length scans);
  let exec_pruned =
    List.fold_left
      (fun acc sp ->
        Alcotest.(check bool)
          (Obs.Span.name sp ^ " keeps columns")
          true
          (int_attr sp "columns_kept" > 0);
        acc + int_attr sp "columns_pruned")
      0 scans
  in
  Alcotest.(check bool) "Exec prunes columns" true (exec_pruned > 0);
  let shared_pruned =
    match
      Obs.Span.find_all
        (fun sp -> Obs.Span.name sp = "tracing.shared")
        r.Whynot.Pipeline.span
    with
    | [ sp ] ->
      Alcotest.(check bool) "the shared blocks keep columns" true
        (int_attr sp "columns_kept" > 0);
      int_attr sp "columns_pruned"
    | sps -> Alcotest.failf "expected one tracing.shared span, got %d" (List.length sps)
  in
  Alcotest.(check bool) "the shared blocks prune columns" true (shared_pruned > 0);
  Alcotest.(check bool) "the counter holds every scan's pruned columns" true
    (pruned () - before >= exec_pruned + shared_pruned)

(* [whynot.tracing.relaxed_reuses] counts the SA chains that read their
   relaxed trace from a prepared handle instead of evaluating it: none on
   a handle's first explain, one per SA on the second, and each SA's
   [tracing] span says which it was.  Only an evaluated SA's span carries
   [match_us] and [match_verified], the time its root rows took to match
   ⟦Q⟧_D and the hash hits compared: a reused one reads its matches from
   the slot too.  ⟦Q⟧_D runs in the first explain, under an
   [msr.original] span that carries [index_us], the time ⟦Q⟧_D took to
   hash into the index; the second explain reads it from the handle and
   has no such span.  The counter is registered up front, so the
   telemetry verb lists it before any handle is reused. *)
let test_relaxed_reuses () =
  let reuses () =
    Obs.Metrics.Counter.value
      (Obs.Metrics.counter "whynot.tracing.relaxed_reuses")
  in
  let srv = Serve.Server.create ~config:quiet_config () in
  (match
     Serve.Server.handle_request srv (Serve.Protocol.Telemetry { format = `Json })
   with
  | Serve.Protocol.Telemetry_reply { metrics; _ } ->
    Alcotest.(check bool) "the telemetry verb lists the counter" true
      (member "whynot.tracing.relaxed_reuses" metrics <> None)
  | _ -> Alcotest.fail "expected a telemetry reply");
  let inst =
    (Option.get (Scenarios.Registry.find "D3")).Scenarios.Scenario.make
      ~scale:1 ()
  in
  let phi = inst.Scenarios.Scenario.question in
  let h =
    Whynot.Pipeline.prepare
      ~alternatives:inst.Scenarios.Scenario.alternatives
      ~db:phi.Whynot.Question.db phi.Whynot.Question.query
  in
  let n_sas = List.length (Whynot.Pipeline.handle_sas h) in
  let indexed = ref [] in
  let explain () =
    let before = reuses () in
    let r = Whynot.Pipeline.explain_with h phi.Whynot.Question.missing in
    indexed :=
      List.filter_map
        (fun sp -> Obs.Span.attr sp "index_us")
        (Obs.Span.find_all
           (fun sp -> Obs.Span.name sp = "msr.original")
           r.Whynot.Pipeline.span)
      :: !indexed;
    let spans =
      Obs.Span.find_all
        (fun sp -> Obs.Span.name sp = "tracing")
        r.Whynot.Pipeline.span
    in
    let flags = List.map (fun sp -> Obs.Span.attr sp "relaxed_reused") spans in
    let matched =
      List.map
        (fun sp ->
          match (Obs.Span.attr sp "match_us", Obs.Span.attr sp "match_verified") with
          | Some (Obs.Span.Int us), Some (Obs.Span.Int hits) -> us >= 0 && hits >= 0
          | None, None -> false
          | _ -> Alcotest.fail "match_us and match_verified are not two ints")
        spans
    in
    (reuses () - before, flags, matched)
  in
  let first, flags1, matched1 = explain () in
  let second, flags2, matched2 = explain () in
  (match !indexed with
  | [ []; [ Obs.Span.Int us ] ] ->
    Alcotest.(check bool) "the first explain's msr.original span times the index"
      true (us >= 0)
  | _ -> Alcotest.fail "expected index_us on the first explain only");
  Alcotest.(check bool) "D3 has several SAs" true (n_sas > 1);
  Alcotest.(check int) "first explain reuses nothing" 0 first;
  Alcotest.(check int) "second explain reuses every SA" n_sas second;
  let all b = List.init n_sas (fun _ -> Some (Obs.Span.Bool b)) in
  Alcotest.(check bool) "first explain's spans say evaluated" true
    (flags1 = all false);
  Alcotest.(check bool) "second explain's spans say reused" true
    (flags2 = all true);
  Alcotest.(check (list bool)) "evaluated SAs time their matching"
    (List.init n_sas (fun _ -> true)) matched1;
  Alcotest.(check (list bool)) "reused SAs carry no match_us"
    (List.init n_sas (fun _ -> false)) matched2

(* Each SA's [msr] span carries the terms of its side-effect bounds:
   |⟦Q⟧_D|, the surviving root rows, those of them that match ⟦Q⟧_D, and
   UB(Δ−); and the split of its time into families, bounds sweep and
   candidates, which together fit in the span, with the family counts.
   Q3 has two SAs and D3 five. *)
let test_msr_bound_terms () =
  let family_rows = ref 0 in
  List.iter
    (fun name ->
      let inst =
        (Option.get (Scenarios.Registry.find name)).Scenarios.Scenario.make
          ~scale:1 ()
      in
      let r =
        Whynot.Pipeline.explain ~alternatives:inst.Scenarios.Scenario.alternatives
          inst.Scenarios.Scenario.question
      in
      let sas =
        Obs.Span.find_all
          (fun sp -> String.starts_with ~prefix:"sa:S" (Obs.Span.name sp))
          r.Whynot.Pipeline.span
      in
      Alcotest.(check bool) (name ^ " has several SAs") true (List.length sas > 1);
      List.iter
        (fun sa ->
          let label = Fmt.str "%s %s" name (Obs.Span.name sa) in
          match
            List.filter (fun sp -> Obs.Span.name sp = "msr") (Obs.Span.children sa)
          with
          | [ msr ] ->
            let get a =
              match Obs.Span.attr msr a with
              | Some (Obs.Span.Int n) -> n
              | _ -> Alcotest.failf "%s: msr span lacks %s" label a
            in
            let original = get "original_rows" and surviving = get "surviving"
            and matched = get "matched" in
            Alcotest.(check bool)
              (label ^ ": matched <= min(surviving, original_rows)")
              true
              (matched <= min surviving original);
            Alcotest.(check int) (label ^ ": ub_minus") (original - matched)
              (get "ub_minus");
            let split_us =
              get "families_us" + get "sweep_us" + get "candidates_us"
            in
            Alcotest.(check bool)
              (label ^ ": the time split fits in the span")
              true
              (split_us * 1000 <= Obs.Span.duration_ns msr);
            Alcotest.(check bool)
              (label ^ ": family counts")
              true
              (get "family_rows" >= 0 && get "multi_families" >= 0);
            family_rows := !family_rows + get "family_rows"
          | sps -> Alcotest.failf "%s: %d msr spans" label (List.length sps))
        sas)
    [ "Q3"; "D3" ];
  Alcotest.(check bool) "some SA computed families" true (!family_rows > 0)

(* --- log-record JSON codec --------------------------------------------- *)

let record_gen =
  QCheck.Gen.(
    let value =
      oneof
        [
          map (fun i -> Obs.Span.Int i) int;
          map (fun f -> Obs.Span.Float f) (float_range (-1e6) 1e6);
          map (fun b -> Obs.Span.Bool b) bool;
          map (fun s -> Obs.Span.String s) (string_size ~gen:printable (int_range 0 12));
        ]
    in
    let* ts_ns = nat in
    let* lvl = oneofl Obs.Log.[ Debug; Info; Warn; Error ] in
    let* event = string_size ~gen:printable (int_range 1 20) in
    let* trace_id =
      opt (string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '.'; ':'; '-' ]) (int_range 1 16))
    in
    (* distinct keys: the JSON object codec keys fields by name *)
    let* n_fields = int_range 0 5 in
    let* values = list_size (return n_fields) value in
    return
      {
        Obs.Log.ts_ns;
        lvl;
        event;
        trace_id;
        fields = List.mapi (fun i v -> (Fmt.str "k%d" i, v)) values;
      })

let record_arb = QCheck.make ~print:(Fmt.to_to_string Obs.Log.pp_text) record_gen

let prop_record_roundtrip =
  QCheck.Test.make ~count:300 ~name:"log record JSON roundtrip" record_arb
    (fun r -> Obs.Log.of_json (Obs.Log.to_json r) = r)

let prop_record_roundtrip_via_text =
  QCheck.Test.make ~count:200 ~name:"roundtrip survives printing" record_arb
    (fun r ->
      Obs.Log.of_json (Json.of_string (Json.to_line (Obs.Log.to_json r))) = r)

let test_codec_rejects_garbage () =
  List.iter
    (fun text ->
      match Obs.Log.of_json (Json.of_string text) with
      | exception Obs.Log.Decode_error _ -> ()
      | _ -> Alcotest.fail ("decoded garbage: " ^ text))
    [
      "42";
      "{}";
      {|{"ts_ns": 1, "level": "loud", "event": "e", "fields": {}}|};
      {|{"ts_ns": 1, "level": "info", "fields": {}}|};
      {|{"ts_ns": 1, "level": "info", "event": "e", "fields": 3}|};
    ]

(* --- stats, slow queries, SLO ------------------------------------------ *)

let test_stats_latency_section () =
  let srv = Serve.Server.create ~config:quiet_config () in
  register_re srv;
  (match Serve.Server.handle_request srv (explain_request ()) with
  | Serve.Protocol.Explained _ -> ()
  | _ -> Alcotest.fail "expected explained");
  match Serve.Server.handle_request srv Serve.Protocol.Stats with
  | Serve.Protocol.Stats_reply sections -> (
    match List.assoc_opt "latency" sections with
    | Some latency ->
      List.iter
        (fun key ->
          match member key latency with
          | Some summary ->
            let num name =
              match member name summary with
              | Some (Json.J_float f) -> f
              | Some (Json.J_int i) -> float_of_int i
              | _ -> Alcotest.fail (key ^ " summary missing " ^ name)
            in
            Alcotest.(check bool) (key ^ " has observations") true
              (num "count" >= 1.0);
            Alcotest.(check bool) (key ^ " p95 >= p50") true
              (num "p95" >= num "p50");
            Alcotest.(check bool) (key ^ " max >= p95") true
              (num "max" >= num "p95" -. 1e-9)
          | None -> Alcotest.fail ("latency section missing " ^ key))
        [ "sched_wait_ms"; "explain_ms" ]
    | None -> Alcotest.fail "stats missing latency section")
  | _ -> Alcotest.fail "expected stats"

let test_slow_query_and_slo () =
  with_debug_capture @@ fun seen ->
  Obs.Metrics.reset_all Obs.Metrics.default;
  let config = { quiet_config with slow_ms = Some 0.0; slo_ms = Some 1e9 } in
  let srv = Serve.Server.create ~config () in
  register_re srv;
  (match Serve.Server.handle_request srv (explain_request ()) with
  | Serve.Protocol.Explained _ -> ()
  | _ -> Alcotest.fail "expected explained");
  (* threshold 0: every request is slow; the explain one carries the
     full attribution *)
  (match
     List.find_opt
       (fun r ->
         r.Obs.Log.event = "serve.slow"
         && field "op" r = Some (Obs.Span.String "explain"))
       (seen ())
   with
  | Some r ->
    Alcotest.(check bool) "disposition" true
      (field "disposition" r = Some (Obs.Span.String "miss"));
    Alcotest.(check bool) "threshold recorded" true
      (field "threshold_ms" r = Some (Obs.Span.Float 0.0));
    Alcotest.(check bool) "retry count recorded" true
      (field "retries" r = Some (Obs.Span.Int 0));
    Alcotest.(check bool) "per-phase attribution" true
      (List.exists
         (fun (k, _) ->
           String.length k > 6 && String.sub k 0 6 = "phase.")
         r.Obs.Log.fields)
  | None -> Alcotest.fail "expected a serve.slow record for the explain");
  Alcotest.(check bool) "slow-query counter ticked" true
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "serve.slow_queries") >= 1);
  (* SLO burn: a fast success is ok ... *)
  Alcotest.(check int) "slo ok" 1
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "serve.slo.ok"));
  Alcotest.(check int) "no breach yet" 0
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "serve.slo.breach"));
  (* ... and an error burns budget like a slow success *)
  (match
     Serve.Server.handle_request srv
       (Serve.Protocol.Explain
          {
            dataset = "Q1";
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
  | _ -> Alcotest.fail "expected not_found");
  Alcotest.(check int) "error counts as breach" 1
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "serve.slo.breach"))

let () =
  Alcotest.run "telemetry"
    [
      ( "trace",
        [
          Alcotest.test_case "one grep reconstructs a request" `Quick test_trace_e2e;
          Alcotest.test_case "echo policy" `Quick test_trace_echo_policy;
          Alcotest.test_case "retries keep the request's id" `Quick test_retry_attribution;
          Alcotest.test_case "coalesced follower names its leader" `Quick
            test_coalesced_attribution;
        ] );
      ( "export",
        [
          Alcotest.test_case "Prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "telemetry verb" `Quick test_telemetry_verb;
          Alcotest.test_case "msr span bound terms" `Quick test_msr_bound_terms;
          Alcotest.test_case "shared rows counter" `Quick test_shared_rows;
          Alcotest.test_case "columns pruned" `Quick test_columns_pruned;
          Alcotest.test_case "relaxed reuses counter" `Quick test_relaxed_reuses;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
          QCheck_alcotest.to_alcotest prop_record_roundtrip_via_text;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "slo",
        [
          Alcotest.test_case "stats latency section" `Quick test_stats_latency_section;
          Alcotest.test_case "slow-query record and SLO burn" `Quick
            test_slow_query_and_slo;
        ] );
    ]
