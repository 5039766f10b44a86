(* whynot_server: the why-not explanation service.

   Speaks the line-delimited JSON protocol of Serve.Protocol over stdio
   (--stdio; pipe-friendly, one response line per request line), a
   Unix-domain socket (--unix PATH), or TCP (--tcp PORT [--host H]).

     printf '%s\n%s\n' \
       '{"op": "register", "dataset": "Q1"}' \
       '{"op": "explain", "dataset": "Q1"}' \
     | whynot_server --stdio --no-timings                              *)

(* Declares one option under both of its spellings: [-name] with [doc],
   and [--name], whose help line points back at [-name].  [arg] is the
   value placeholder the help shows ("" for a flag). *)
let both ?(arg = "") name action doc =
  let shown = if arg = "" then "" else arg ^ "  " in
  [
    ("-" ^ name, action, shown ^ doc);
    ("--" ^ name, action, (if arg = "" then " " else shown) ^ "same as -" ^ name);
  ]

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
  let spec =
    List.concat
      [
        both "stdio" (Arg.Set stdio)
          "serve requests from stdin, responses to stdout";
        both "unix" ~arg:"PATH" (Arg.Set_string unix_path)
          "listen on a Unix-domain socket";
        both "tcp" ~arg:"PORT" (Arg.Set_int port) "listen on TCP";
        both "host" ~arg:"HOST" (Arg.Set_string host)
          "TCP bind address (default 127.0.0.1)";
        both "cache" ~arg:"N" (Arg.Set_int cache)
          "explanation cache capacity (0 disables)";
        both "handles" ~arg:"N" (Arg.Set_int handles)
          "traced-run handle cache capacity";
        both "queue" ~arg:"N" (Arg.Set_int queue) "scheduler admission bound";
        both "deadline" ~arg:"MS" (Arg.Set_float deadline)
          "default per-request deadline (0 = none)";
        both "task-retries" ~arg:"N" (Arg.Set_int task_retries)
          "retry budget for transient task faults (default 0: fail fast)";
        both "no-timings" (Arg.Clear timings)
          "omit wall-clock timings from responses (deterministic output)";
        both "max-conns" ~arg:"N" (Arg.Set_int max_conns)
          "socket connection cap; extra connections get a one-line \
           overloaded error (default 64)";
        both "max-request-bytes" ~arg:"N" (Arg.Set_int max_request)
          "longest accepted request line; longer lines answer bad_request \
           (default 1 MiB)";
        both "log-level" ~arg:"LEVEL" (Arg.Set_string log_level)
          "structured-log threshold: debug|info|warn|error|off (default \
           info)";
        both "log-json" ~arg:"FILE" (Arg.Set_string log_json)
          "append JSON-lines log records to FILE";
        both "log-stderr" (Arg.Set log_stderr)
          "mirror log records to stderr as text";
        both "slow-ms" ~arg:"MS" (Arg.Set_float slow_ms)
          "emit a serve.slow record for requests at or above MS (0 = off)";
        both "slo-ms" ~arg:"MS" (Arg.Set_float slo_ms)
          "explain-latency SLO threshold feeding serve.slo.{ok,breach} (0 = \
           off)";
        both "metrics-file" ~arg:"FILE" (Arg.Set_string metrics_file)
          "periodically dump Prometheus-format metrics to FILE (atomic \
           tmp+rename; final dump at exit)";
        both "metrics-interval" ~arg:"SEC" (Arg.Set_float metrics_interval)
          "metrics dump period (default 5)";
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
