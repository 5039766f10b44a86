(* whynot_server: the why-not explanation service.

   Speaks the line-delimited JSON protocol of Serve.Protocol over stdio
   (--stdio; pipe-friendly, one response line per request line), a
   Unix-domain socket (--unix PATH), or TCP (--tcp PORT [--host H]).

     printf '%s\n%s\n' \
       '{"op": "register", "dataset": "Q1"}' \
       '{"op": "explain", "dataset": "Q1"}' \
     | whynot_server --stdio --no-timings                              *)

let () =
  let stdio = ref false in
  let unix_path = ref "" in
  let port = ref 0 in
  let host = ref "127.0.0.1" in
  let d = Serve.Server.default_config in
  let cache = ref d.Serve.Server.cache_capacity in
  let handles = ref d.Serve.Server.handle_capacity in
  let queue = ref d.Serve.Server.queue_capacity in
  let deadline = ref 0.0 in
  let task_retries = ref d.Serve.Server.task_retries in
  let timings = ref true in
  let max_conns = ref d.Serve.Server.max_connections in
  let max_request = ref d.Serve.Server.max_request_bytes in
  let log_level = ref "" in
  let log_json = ref "" in
  let log_stderr = ref false in
  let slow_ms = ref 0.0 in
  let slo_ms = ref 0.0 in
  let metrics_file = ref "" in
  let metrics_interval = ref 5.0 in
  let checkpoint_dir = ref "" in
  let checkpoint_shuffles = ref false in
  let max_memory_mb = ref 0 in
  let spec =
    [
      ("-stdio", Arg.Set stdio, "serve requests from stdin, responses to stdout");
      ("--stdio", Arg.Set stdio, " same as -stdio");
      ("-unix", Arg.Set_string unix_path, "PATH  listen on a Unix-domain socket");
      ("--unix", Arg.Set_string unix_path, "PATH  same as -unix");
      ("-tcp", Arg.Set_int port, "PORT  listen on TCP");
      ("--tcp", Arg.Set_int port, "PORT  same as -tcp");
      ("-host", Arg.Set_string host, "HOST  TCP bind address (default 127.0.0.1)");
      ("--host", Arg.Set_string host, "HOST  same as -host");
      ("-cache", Arg.Set_int cache, "N  explanation cache capacity (0 disables)");
      ("--cache", Arg.Set_int cache, "N  same as -cache");
      ("-handles", Arg.Set_int handles, "N  traced-run handle cache capacity");
      ("--handles", Arg.Set_int handles, "N  same as -handles");
      ("-queue", Arg.Set_int queue, "N  scheduler admission bound");
      ("--queue", Arg.Set_int queue, "N  same as -queue");
      ( "-deadline",
        Arg.Set_float deadline,
        "MS  default per-request deadline (0 = none)" );
      ("--deadline", Arg.Set_float deadline, "MS  same as -deadline");
      ( "-task-retries",
        Arg.Set_int task_retries,
        "N  retry budget for transient task faults (default 0: fail fast)" );
      ("--task-retries", Arg.Set_int task_retries, "N  same as -task-retries");
      ( "-no-timings",
        Arg.Clear timings,
        "omit wall-clock timings from responses (deterministic output)" );
      ("--no-timings", Arg.Clear timings, " same as -no-timings");
      ( "-max-conns",
        Arg.Set_int max_conns,
        "N  socket connection cap; extra connections get a one-line \
         overloaded error (default 64)" );
      ("--max-conns", Arg.Set_int max_conns, "N  same as -max-conns");
      ( "-max-request-bytes",
        Arg.Set_int max_request,
        "N  longest accepted request line; longer lines answer \
         bad_request (default 1 MiB)" );
      ( "--max-request-bytes",
        Arg.Set_int max_request,
        "N  same as -max-request-bytes" );
      ( "-log-level",
        Arg.Set_string log_level,
        "LEVEL  structured-log threshold: debug|info|warn|error|off \
         (default info)" );
      ("--log-level", Arg.Set_string log_level, "LEVEL  same as -log-level");
      ( "-log-json",
        Arg.Set_string log_json,
        "FILE  append JSON-lines log records to FILE" );
      ("--log-json", Arg.Set_string log_json, "FILE  same as -log-json");
      ( "-log-stderr",
        Arg.Set log_stderr,
        "mirror log records to stderr as text" );
      ("--log-stderr", Arg.Set log_stderr, " same as -log-stderr");
      ( "-slow-ms",
        Arg.Set_float slow_ms,
        "MS  emit a serve.slow record for requests at or above MS (0 = off)" );
      ("--slow-ms", Arg.Set_float slow_ms, "MS  same as -slow-ms");
      ( "-slo-ms",
        Arg.Set_float slo_ms,
        "MS  explain-latency SLO threshold feeding serve.slo.{ok,breach} \
         (0 = off)" );
      ("--slo-ms", Arg.Set_float slo_ms, "MS  same as -slo-ms");
      ( "-metrics-file",
        Arg.Set_string metrics_file,
        "FILE  periodically dump Prometheus-format metrics to FILE \
         (atomic tmp+rename; final dump at exit)" );
      ( "--metrics-file",
        Arg.Set_string metrics_file,
        "FILE  same as -metrics-file" );
      ( "-metrics-interval",
        Arg.Set_float metrics_interval,
        "SEC  metrics dump period (default 5)" );
      ( "--metrics-interval",
        Arg.Set_float metrics_interval,
        "SEC  same as -metrics-interval" );
      ( "-checkpoint-dir",
        Arg.Set_string checkpoint_dir,
        "DIR  base directory for shuffle checkpoints / spill files \
         (default: system temp dir)" );
      ( "--checkpoint-dir",
        Arg.Set_string checkpoint_dir,
        "DIR  same as -checkpoint-dir" );
      ( "-checkpoint-shuffles",
        Arg.Set checkpoint_shuffles,
        "checkpoint post-shuffle partitions so task faults replay from \
         the barrier instead of recomputing the upstream chain" );
      ( "--checkpoint-shuffles",
        Arg.Set checkpoint_shuffles,
        " same as -checkpoint-shuffles" );
      ( "-max-memory-mb",
        Arg.Set_int max_memory_mb,
        "MB  spill engine intermediates to disk above this per-dataset \
         watermark (0 = never spill)" );
      ( "--max-memory-mb",
        Arg.Set_int max_memory_mb,
        "MB  same as -max-memory-mb" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "whynot_server (--stdio | --unix PATH | --tcp PORT) [options]";
  at_exit Engine.Pool.shutdown_default;
  (match String.lowercase_ascii !log_level with
  | "" -> ()
  | "off" | "none" -> Obs.Log.set_level None
  | s -> (
    match Obs.Log.level_of_string s with
    | Some l -> Obs.Log.set_level (Some l)
    | None ->
      Fmt.epr "whynot_server: unknown log level %S (debug|info|warn|error|off)@."
        s;
      exit 2));
  if !log_stderr then Obs.Log.add_sink "stderr" Obs.Log.stderr_text_sink;
  (match !log_json with
  | "" -> ()
  | path ->
    let oc = open_out path in
    at_exit (fun () -> try close_out oc with Sys_error _ -> ());
    Obs.Log.add_sink "json-file" (Obs.Log.json_line_sink oc));
  (match !metrics_file with
  | "" -> ()
  | path ->
    (* tmp+rename: a scraper reading FILE never sees a half-written
       exposition *)
    let dump () =
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc (Obs.Export.prometheus ());
      close_out oc;
      Sys.rename tmp path
    in
    let safe_dump () = try dump () with Sys_error _ -> () in
    at_exit safe_dump;
    let period = Float.max 0.1 !metrics_interval in
    ignore
      (Thread.create
         (fun () ->
           while true do
             Thread.delay period;
             safe_dump ()
           done)
         ()));
  if !checkpoint_dir <> "" || !checkpoint_shuffles || !max_memory_mb > 0 then
    Engine.Checkpoint.set_active
      (Some
         (Engine.Checkpoint.config
            ?dir:(if !checkpoint_dir = "" then None else Some !checkpoint_dir)
            ~checkpoint_shuffles:!checkpoint_shuffles
            ?max_memory_mb:
              (if !max_memory_mb > 0 then Some !max_memory_mb else None)
            ()));
  let config =
    {
      Serve.Server.cache_capacity = !cache;
      handle_capacity = !handles;
      queue_capacity = !queue;
      default_deadline_ms = (if !deadline > 0.0 then Some !deadline else None);
      task_retries = max 0 !task_retries;
      timings = !timings;
      max_connections = !max_conns;
      max_request_bytes = !max_request;
      slow_ms = (if !slow_ms > 0.0 then Some !slow_ms else None);
      slo_ms = (if !slo_ms > 0.0 then Some !slo_ms else None);
    }
  in
  let server = Serve.Server.create ~config () in
  if !stdio then Serve.Server.serve_channels server stdin stdout
  else if !unix_path <> "" then Serve.Server.serve_unix server ~path:!unix_path
  else if !port > 0 then Serve.Server.serve_tcp ~host:!host server ~port:!port
  else begin
    prerr_endline
      "whynot_server: pick a transport: --stdio, --unix PATH, or --tcp PORT";
    exit 2
  end
