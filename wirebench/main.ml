(* Wire-level benchmark of whynot_server.

     main.exe --workload W|all --seed N --seconds S --trace 0|1 [--out FILE]
     main.exe pin [WORKLOAD...]
     main.exe smoke
     main.exe compare [--claim WORKLOAD:METRIC]... PARENT... -- CHANGE...

   A run spawns the real server binary, drives it over a Unix socket in a
   closed loop (each client waits for its answer before asking again) and
   checks every answer against the pinned explanations.  With --trace 0 it
   reports the end-to-end metrics; with --trace 1 it replays the wire
   workload for the serve-side counters, then times each layer in-process
   from outside (traced.ml) and writes a Chrome trace.  Run it from the
   repository root; wirebench/README.md describes every metric. *)

let pipeline_ran = function Wire.Miss | Wire.Handle | Wire.Coalesced -> true | _ -> false

type boot = {
  setups : float list;  (** seconds from spawn to the last register ack, per start *)
  calib_ms : float list;  (** calibration times taken after the starts *)
}

(* Timings are scaled to the reference machine's speed (see [Calib]):
   set-up by the calibrations taken between the fresh starts, the window
   by those taken between its slices.  The rows of the results file keep
   the raw times.  The resident set is the median over the slice ends:
   the peak (VmHWM, in the provenance) depends on when the collector
   runs and spread 0.08-0.10 over tpch-cold runs, the median 0.02. *)
let e2e_metrics ~(run : Wire.run) ~(boot : boot) =
  let samples = List.concat_map (fun t -> t.Wire.samples) run.Wire.tallies in
  let lat pred =
    List.filter_map
      (fun s -> if pred s.Wire.disposition then Some s.Wire.lat_ms else None)
      samples
  in
  let speed = Calib.speed run.Wire.calib_ms in
  let metrics =
    [
      ("setup_s", Report.median boot.setups *. Calib.speed boot.calib_ms);
      ( "throughput_rps",
        float_of_int (List.length samples) /. run.Wire.elapsed_s /. speed );
      ("miss_p50_ms", Report.median (lat pipeline_ran) *. speed);
      ("server_rss_mb", Report.median run.Wire.rss_mb);
    ]
  in
  (* the raw latency distributions, with their p95s, go to the results file *)
  let rows =
    let r metric unit xs = Report.row ~layer:"end_to_end" ~metric ~unit xs in
    [
      r "setup_s" "s" boot.setups;
      r "latency_all_ms" "ms" (lat (fun _ -> true));
      r "latency_miss_ms" "ms" (lat pipeline_ran);
      r "latency_hit_ms" "ms" (lat (( = ) Wire.Hit));
      r "latency_parse_ms" "ms" (lat (( = ) Wire.Parsed));
      Report.row ~layer:"bench" ~metric:"calib_setup_ms" ~unit:"ms" boot.calib_ms;
      Report.row ~layer:"bench" ~metric:"calib_window_ms" ~unit:"ms" run.Wire.calib_ms;
      r "server_rss_mb" "MB" run.Wire.rss_mb;
    ]
  in
  (metrics, rows, samples)

(* Serve-side metrics of the measured window: dispositions counted by
   the clients, plus counter deltas and histogram means (exact sums, not
   bucketed percentiles) between two telemetry snapshots.
   [serve.wire_ms] is the clients' mean explain latency minus the
   server's own mean for the same explains: request decoding, response
   encoding and the socket. *)
let wire_layer_metrics samples ((before, after) : Nested.Json.json * Nested.Json.json) =
  (* a metric the server never registered reads 0, a missing snapshot nan *)
  let num j name field =
    match Pins.member "metrics" j with
    | None -> nan
    | Some ms -> (
      let m = Pins.member name ms in
      match if field = "" then m else Option.bind m (Pins.member field) with
      | Some (Nested.Json.J_int n) -> float_of_int n
      | Some (Nested.Json.J_float f) -> f
      | _ -> 0.)
  in
  let delta name field = num after name field -. num before name field in
  let mean name = delta name "sum" /. delta name "count" in
  let explains = List.filter (fun s -> s.Wire.disposition <> Wire.Parsed) samples in
  let count pred =
    float_of_int (List.length (List.filter (fun s -> pred s.Wire.disposition) explains))
  in
  let client_mean = Report.mean (List.map (fun s -> s.Wire.lat_ms) explains) in
  [
    ("serve.cache.hit_ratio", count (( = ) Wire.Hit) /. count (fun _ -> true));
    ("serve.cache.handle_ratio", count (( = ) Wire.Handle) /. count pipeline_ran);
    ("serve.coalesced", count (( = ) Wire.Coalesced));
    ("serve.cache.evictions", delta "serve.cache.explain.evictions" "");
    ("serve.scheduler.wait_ms", mean "serve.sched.wait_ms");
    ("serve.server.explain_ms", mean "serve.explain.latency_ms");
    ("serve.wire_ms", client_mean -. mean "serve.explain.latency_ms");
  ]

(* Per-layer metrics of the traced pass: for each key the median over
   its reps, then the mean over keys (one request's worth); shares and
   ratios are summed over keys before dividing. *)
let traced_metrics (pass : Traced.pass) =
  let per_key name =
    List.map
      (fun (_, reps) -> Report.median (List.map (List.assoc name) reps))
      pass.Traced.per_key
  in
  let avg name = Report.mean (per_key name) in
  let sum name = List.fold_left ( +. ) 0. (per_key name) in
  let mib = 1048576. in
  let metrics =
    List.map (fun (metric, span) -> (metric, avg span)) Traced.layer_metrics
    @ [
        ("serve.codec.encode_us", 1000. *. avg "serve.codec.encode");
        ("whynot.tracing_alloc_mb", avg "tracing_alloc" /. mib);
        ("whynot.msr_alloc_mb", avg "msr_alloc" /. mib);
        ("whynot.explanations_per_candidate", sum "explanations" /. sum "candidates");
        ("whynot.msr_share", sum "whynot.msr" /. sum "total");
        ("whynot.tracing_share", sum "whynot.tracing" /. sum "total");
        ("engine.exec_share", sum "engine.exec" /. sum "total");
        ( "bench.trace_overhead_pct",
          100. *. (sum "total" -. sum "untraced") /. sum "untraced" );
      ]
    @ List.map (fun (metric, attr) -> (metric, avg attr)) Traced.count_metrics
  in
  let rows =
    List.map
      (fun (metric, span) ->
        let layer = List.hd (String.split_on_char '.' metric) in
        Report.row ~layer ~metric ~unit:"ms" (per_key span))
      (Traced.layer_metrics
      @ [ ("bench.request_ms", "total"); ("bench.untraced_ms", "untraced") ])
  in
  (metrics, rows)

(* Fresh server starts per end-to-end run; setup_s is their median (one
   start varies by 10-20% on a shared 2-core machine). *)
let setup_starts = 5

(* After each start the machine's speed is calibrated as between the
   window's slices. *)
let boot (w : Workload.t) ~scale ~starts =
  let rec go i setups calib =
    let srv, c, s = Wire.start w ~scale in
    let setups = s :: setups and calib = Wire.calibrate srv @ calib in
    if i < starts then begin
      Wire.stop srv [ c ];
      go (i + 1) setups calib
    end
    else (srv, c, { setups = List.rev setups; calib_ms = calib })
  in
  go 1 [] []

let traced_layers (w : Workload.t) ~pins ~seed ~scale ~keys ~trace_keys =
  let roots = ref [] in
  let make_ms = Traced.make_ms ~roots w ~scale in
  let pass =
    Traced.run_pass ~pins
      (match trace_keys with Some n -> List.filteri (fun i _ -> i < n) keys | None -> keys)
  in
  List.iter (Printf.eprintf "wirebench: %s\n") pass.Traced.mismatches;
  let stream = Workload.stream_prefix w ~seed ~scale 20_000 in
  let replays, bad_decodes = Traced.serve_replays ~roots w ~keys stream in
  let compile_us, bad_compiles = Traced.compile_us ~roots w ~scale in
  let trace_path = Filename.concat Wire.out_dir (w.Workload.name ^ ".trace.json") in
  Obs.Trace_event.write_file trace_path (pass.Traced.roots @ List.rev !roots);
  Printf.eprintf "wirebench: Chrome trace written to %s\n" trace_path;
  let metrics, rows = traced_metrics pass in
  ( metrics @ replays
    @ [ ("frontend.compile_us", compile_us); ("scenarios.make_ms", make_ms) ],
    rows,
    pass.Traced.attempted,
    List.length pass.Traced.mismatches + bad_decodes + bad_compiles )

let run_workload ?(warmup_s = Wire.warmup_s) (w : Workload.t) ~seed ~seconds ~trace ~scale
    ~trace_keys ~out =
  let pins = Pins.load w.Workload.name in
  let keys = Workload.keys w ~scale in
  (* every pin this run checks against exists before a server starts *)
  List.iter (fun k -> ignore (Pins.find pins (Workload.key_id k) : string)) keys;
  if w.Workload.shape = Workload.Mixed then
    ignore (Pins.find pins (Workload.parse_pin_id ~scale) : string);
  let srv, c0, booted = boot w ~scale ~starts:(if trace then 1 else setup_starts) in
  let conns = c0 :: List.init (w.Workload.conns - 1) (fun _ -> Wire.connect srv) in
  let run, peak_rss_mb =
    Fun.protect
      ~finally:(fun () -> Wire.stop srv conns)
      (fun () ->
        let run = Wire.drive w ~pins ~seed ~warmup_s ~seconds ~scale srv conns in
        (run, Wire.vm_mb srv.Wire.pid "VmHWM"))
  in
  let e2e, e2e_rows, samples = e2e_metrics ~run ~boot:booted in
  let total f = List.fold_left (fun a t -> a + f t) 0 run.Wire.tallies in
  let attempted = total (fun t -> t.Wire.attempted) in
  let failed = total (fun t -> t.Wire.failed) in
  List.iter
    (fun t -> List.iter (Printf.eprintf "wirebench: %s\n") (List.rev t.Wire.errors))
    run.Wire.tallies;
  let section, measured, rows, attempted, failed =
    if not trace then ("end_to_end", e2e, e2e_rows, attempted, failed)
    else
      let metrics, rows, traced_attempted, traced_failed =
        traced_layers w ~pins ~seed ~scale ~keys ~trace_keys
      in
      ( "per_layer",
        metrics @ wire_layer_metrics samples run.Wire.telemetry,
        e2e_rows @ rows,
        attempted + traced_attempted,
        failed + traced_failed )
  in
  (* the metrics BENCHMARK.json lists, in its order; one the run did not
     measure reads nan *)
  let metrics =
    List.map
      (fun m ->
        (m.Report.name, Option.value (List.assoc_opt m.Report.name measured) ~default:nan))
      (Report.spec section)
  in
  let unmeasured = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  List.iter
    (fun (name, _) -> Printf.eprintf "wirebench: %s was not measured\n" name)
    unmeasured;
  let count d = List.length (List.filter (fun s -> s.Wire.disposition = d) samples) in
  let o =
    let open Nested.Json in
    {
      Report.workload = w.Workload.name;
      correct = failed = 0 && unmeasured = [];
      attempted;
      failed;
      metrics = List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.)) metrics;
      rows;
      provenance =
        [
          ("workload", J_string w.Workload.name);
          ("git_commit", J_string (Report.git_commit ()));
          ("nproc", J_int (Domain.recommended_domain_count ()));
          ("ocaml", J_string Sys.ocaml_version);
          ("seed", J_int seed);
          ("trace", J_bool trace);
          ("scale", J_int scale);
          ("connections", J_int w.Workload.conns);
          ("server_flags", J_array (List.map (fun a -> J_string a) w.Workload.server_args));
          ("warmup_seconds", J_float warmup_s);
          ("run_seconds", J_float seconds);
          ("window_seconds", J_float run.Wire.window_s);
          ("measured_seconds", J_float run.Wire.elapsed_s);
          ("calibration_slice_seconds", J_float Wire.slice_s);
          ("calibration_reference_ms", J_float Calib.reference_ms);
          ("speed_setup", J_float (Calib.speed booted.calib_ms));
          ("speed_window", J_float (Calib.speed run.Wire.calib_ms));
          ("setup_starts", J_int (List.length booted.setups));
          ("server_peak_rss_mb", J_float peak_rss_mb);
          ( "samples",
            J_object
              [
                ("requests", J_int (List.length samples));
                ("hit", J_int (count Wire.Hit));
                ("miss", J_int (count Wire.Miss));
                ("handle", J_int (count Wire.Handle));
                ("coalesced", J_int (count Wire.Coalesced));
                ("parse", J_int (count Wire.Parsed));
              ] );
        ];
    }
  in
  let default_out =
    Printf.sprintf "%s-seed%d-trace%d.json" w.Workload.name seed (Bool.to_int trace)
    |> Filename.concat (Filename.concat Wire.out_dir "results")
  in
  Report.write_results (Option.value out ~default:default_out) o;
  o

(* -- pin ----------------------------------------------------------------------- *)

(* The pins are what Pipeline.explain answers for every key, at each
   workload's full and smoke scales. *)
let pin names =
  let ws = if names = [] then Workload.all else List.filter_map Workload.find names in
  List.iter
    (fun (w : Workload.t) ->
      let at scale =
        List.map
          (fun k ->
            let inst = Traced.instance k.Workload.scenario ~scale in
            let r = Traced.pipeline_explain inst k.Workload.variant in
            Pins.Explanations (Workload.key_id k, r.Whynot.Pipeline.explanations))
          (Workload.keys w ~scale)
        @
        match w.Workload.shape with
        | Workload.Mixed ->
          let fp = Traced.parse_fingerprint ~scale in
          [ Pins.Fingerprint (Workload.parse_pin_id ~scale, fp) ]
        | Workload.Cold -> []
      in
      let entries = at w.Workload.scale @ at w.Workload.smoke_scale in
      Pins.save w.Workload.name entries;
      Printf.printf "pinned %d entries in %s\n%!" (List.length entries)
        (Pins.path w.Workload.name))
    ws

(* -- smoke ------------------------------------------------------------------------ *)

(* Each workload for about a second at its smoke scale, then a traced
   pass on one key.  Fails when an answer differs from its pin, or when a
   metric BENCHMARK.json lists was not measured. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (w : Workload.t) ->
      let out =
        List.fold_left Filename.concat Wire.out_dir [ "smoke"; w.Workload.name ^ ".json" ]
      in
      List.iter
        (fun trace ->
          let o =
            run_workload ~warmup_s:0.2 w ~seed:1 ~seconds:1. ~trace
              ~scale:w.Workload.smoke_scale ~trace_keys:(Some 1) ~out:(Some out)
          in
          if not o.Report.correct then begin
            ok := false;
            Printf.printf "smoke: %s: %d of %d checks failed or a metric was not measured\n"
              w.Workload.name o.Report.failed o.Report.attempted
          end)
        [ false; true ];
      Printf.printf "smoke: %s done\n%!" w.Workload.name)
    Workload.all;
  if not !ok then exit 1

(* -- command line ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W|all --seed N --seconds S --trace 0|1 [--out FILE]\n\
    \       main.exe pin [WORKLOAD...]\n\
    \       main.exe smoke\n\
    \       main.exe compare [--claim WORKLOAD:METRIC]... PARENT... -- CHANGE...";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "pin" :: names -> pin names
  | [ "smoke" ] -> smoke ()
  | "compare" :: args ->
    let rec parse claims parents = function
      | "--claim" :: c :: rest -> (
        match String.split_on_char ':' c with
        | [ w; m ] -> parse ((w, m) :: claims) parents rest
        | _ -> usage ())
      | "--" :: changes -> (claims, List.rev parents, changes)
      | p :: rest -> parse claims (p :: parents) rest
      | [] -> usage ()
    in
    let claims, parents, changes = parse [] [] args in
    if parents = [] || changes = [] then usage ();
    Compare.run ~claims parents changes
  | args ->
    let workloads = ref [] and seed = ref 1 and seconds = ref 30. in
    let trace = ref false and out = ref None in
    let rec parse = function
      | "--workload" :: "all" :: rest -> workloads := Workload.all; parse rest
      | "--workload" :: v :: rest ->
        workloads := Option.to_list (Workload.find v);
        parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := int_of_string v = 1; parse rest
      | "--out" :: v :: rest -> out := Some v; parse rest
      | [] -> ()
      | _ -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    if !workloads = [] || (!out <> None && List.length !workloads > 1) then usage ();
    List.iter
      (fun (w : Workload.t) ->
        Report.print
          (run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace
             ~scale:w.Workload.scale ~trace_keys:None ~out:!out))
      !workloads
