(* The server as a child process, and the closed-loop clients that drive
   it over its Unix socket with the line-delimited protocol.

   Every file a run touches lives under [out_dir] in the working
   directory: the socket, the server's log and temp dir, results and
   traces. *)

let out_dir = ".wirebench"

let server_exe =
  List.fold_left Filename.concat "_build" [ "default"; "bin"; "whynot_server.exe" ]

let now_ns = Obs.Clock.now_ns
let ms_since t0 = Obs.Clock.ns_to_ms (now_ns () - t0)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* -- the server process -------------------------------------------------- *)

type server = { pid : int; socket : string }

(* Live children, killed on every exit path so that no server outlives
   the benchmark. *)
let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let rec reap pid =
  forget pid;
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

(* A write to a server that died raises EPIPE, counted as a failure,
   instead of killing the benchmark before it can reap its children. *)
let () =
  at_exit kill_all;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let spawned = ref 0

let spawn args =
  if not (Sys.file_exists server_exe) then
    failwith (Fmt.str "server binary %s not found (build it first)" server_exe);
  let tmp = Filename.concat out_dir "tmp" in
  mkdir_p tmp;
  incr spawned;
  (* relative, so the path stays far below the sockaddr length limit *)
  let socket =
    Filename.concat out_dir (Fmt.str "s%d-%d.sock" (Unix.getpid ()) !spawned)
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat out_dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.of_list
      (("TMPDIR=" ^ tmp)
      :: List.filter
           (fun e -> not (String.starts_with ~prefix:"TMPDIR=" e))
           (Array.to_list (Unix.environment ())))
  in
  let argv = Array.of_list (server_exe :: "-unix" :: socket :: args) in
  let pid = Unix.create_process_env server_exe argv env stdin_r log log in
  live := pid :: !live;
  List.iter Unix.close [ stdin_r; stdin_w; log ];
  { pid; socket }

(* -- connections ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let reply_timeout_s = 120.

let connect srv =
  let deadline = now_ns () + 60_000_000_000 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.socket) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] srv.pid) <> 0 then begin
        forget srv.pid;
        failwith (Fmt.str "server exited before listening (see %s/server.log)" out_dir)
      end;
      if now_ns () > deadline then failwith "server did not listen within 60 s";
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* One request line out, one response line back.  A reply slower than
   [reply_timeout_s] raises [Sys_error]. *)
let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let ok_prefix = "{\"ok\": true"

(* A memory figure of the server from /proc/<pid>/status, in MiB:
   [field] is "VmHWM" (peak resident set) or "VmRSS" (current).  nan
   once the server has exited. *)
let vm_mb pid field =
  match
    In_channel.with_open_text (Fmt.str "/proc/%d/status" pid) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:(field ^ ":"))
  with
  | line -> Scanf.sscanf line "%_s %d kB" (fun kb -> float_of_int kb /. 1024.)
  | exception (Sys_error _ | Not_found) -> nan

(* Ask the server to shut down, then wait for it; one still running after
   10 s is killed. *)
let stop srv conns =
  (match conns with
  | c :: _ -> (
    try ignore (call c "{\"op\": \"shutdown\"}" : string)
    with Sys_error _ | End_of_file -> ())
  | [] -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  let deadline = now_ns () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now_ns () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap srv.pid
    | _ -> forget srv.pid
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> forget srv.pid
  in
  wait ();
  try Unix.unlink srv.socket with Unix.Unix_error _ -> ()

(* Spawn, connect, register every dataset; also returns the seconds from
   spawn to the last register acknowledgement. *)
let start (w : Workload.t) ~scale =
  let t0 = now_ns () in
  let srv = spawn w.Workload.server_args in
  let c = connect srv in
  List.iter
    (fun s ->
      let resp = call c (Workload.register_line s ~scale) in
      if not (String.starts_with ~prefix:ok_prefix resp) then
        failwith (Fmt.str "register %s failed: %s" s resp))
    w.Workload.scenarios;
  (srv, c, ms_since t0 /. 1000.)

(* -- response checks ---------------------------------------------------------- *)

(* Index just past the first occurrence of [sub] in [s]. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some (i + m) else go (i + 1)
  in
  go 0

(* End of the JSON array or object that starts at [i] in [s]; brackets
   inside strings do not count. *)
let value_end s i =
  let rec go i depth in_str =
    match s.[i] with
    | '\\' when in_str -> go (i + 2) depth true
    | '"' -> go (i + 1) depth (not in_str)
    | ('[' | '{') when not in_str -> go (i + 1) (depth + 1) false
    | (']' | '}') when not in_str ->
      if depth = 1 then i + 1 else go (i + 1) (depth - 1) false
    | _ -> go (i + 1) depth in_str
  in
  go i 0 false

let string_field s name =
  Option.map
    (fun i -> String.sub s i (String.index_from s i '"' - i))
    (find_sub s (Fmt.str "\"%s\": \"" name))

type disposition = Hit | Miss | Handle | Coalesced | Parsed

(* A connection's checker.  Responses for one key are byte-identical, so
   an explanation text verified once is remembered and later responses
   cost one string comparison. *)
type checker = { pins : Pins.t; verified : (string, string) Hashtbl.t }

let checker pins = { pins; verified = Hashtbl.create 256 }

let check_explanations ck id resp =
  match find_sub resp "\"explanations\": " with
  | None -> false
  | Some i ->
    let es = String.sub resp i (value_end resp i - i) in
    Hashtbl.find_opt ck.verified id = Some es
    || Pins.canonical_of_json (Nested.Json.of_string es) = Pins.find ck.pins id
       && (Hashtbl.replace ck.verified id es;
           true)

let check ck (req : Workload.request) resp : (disposition, string) result =
  match req.Workload.check with
  | _ when not (String.starts_with ~prefix:ok_prefix resp) -> Error resp
  | Workload.Fingerprint id ->
    if string_field resp "fingerprint" = Some (Pins.find ck.pins id) then Ok Parsed
    else Error ("the parse fingerprint differs from the pin: " ^ resp)
  | Workload.Explanations id -> (
    match check_explanations ck id resp with
    | true ->
      Ok
        (match string_field resp "cache" with
        | Some "hit" -> Hit
        | Some "handle" -> Handle
        | Some "coalesced" -> Coalesced
        | _ -> Miss)
    | false | (exception _) -> Error (id ^ ": the explanations differ from the pin"))

(* -- the closed loop ------------------------------------------------------------ *)

type sample = { lat_ms : float; disposition : disposition }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failure messages *)
  mutable samples : sample list;  (** measured requests only *)
}

let tally () = { attempted = 0; failed = 0; errors = []; samples = [] }

(* Send one request, time it from send to the whole response line, and
   check it; the latency is kept when [measured].  [false] when the
   connection timed out or broke, which counts as a failure and ends this
   client. *)
let issue ck tl c ?(measured = false) (req : Workload.request) =
  tl.attempted <- tl.attempted + 1;
  let fail msg =
    tl.failed <- tl.failed + 1;
    if List.length tl.errors < 5 then tl.errors <- msg :: tl.errors
  in
  let t0 = now_ns () in
  match call c req.Workload.line with
  | exception (Sys_error _ | End_of_file) ->
    fail ("no reply to " ^ req.Workload.line);
    false
  | resp ->
    let lat_ms = ms_since t0 in
    (match check ck req resp with
    | Ok disposition -> if measured then tl.samples <- { lat_ms; disposition } :: tl.samples
    | Error msg -> fail msg);
    true

(* [J_null] when the server cannot answer; metrics read from it are nan. *)
let telemetry c =
  match call c "{\"op\": \"telemetry\", \"format\": \"json\"}" with
  | resp -> (
    try Nested.Json.of_string resp with Nested.Json.Parse_error _ -> Nested.Json.J_null)
  | exception (Sys_error _ | End_of_file) -> Nested.Json.J_null

(* -- calibration ------------------------------------------------------------------ *)

(* The shared machine runs whole minutes up to a third slower than
   others, and that drift slows the server's own work, not just its
   scheduling.  So the measured window is cut into slices of [slice_s]:
   at the end of each, the clients stop with no request outstanding and
   the benchmark times [calib_reps] runs of [Calib.work] while the server
   is stopped.  Their mean says how fast the machine ran during the
   window; see [Calib]. *)
let slice_s = 0.5
let calib_reps = 2

(* The probes run with the server stopped by SIGSTOP, so that nothing the
   server does or leaves running while idle can slow them and pass for a
   slow machine.  waitpid with WUNTRACED returns once every thread of the
   server has stopped.  One untimed probe first brings the probe's data
   back into the caches the server's work evicted: timed cold, the first
   probe after a set-up ran a median 11% (quartiles 5-37%) slower than
   the next, by an amount that depends on the server's memory footprint,
   not on the machine.  The server is
   resumed even when a probe raises. *)
let calibrate srv =
  Unix.kill srv.pid Sys.sigstop;
  let rec stopped () =
    match Unix.waitpid [ Unix.WUNTRACED ] srv.pid with
    | _, Unix.WSTOPPED _ -> ()
    | _, (Unix.WEXITED _ | Unix.WSIGNALED _) ->
      forget srv.pid;
      failwith (Fmt.str "server exited (see %s/server.log)" out_dir)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> stopped ()
  in
  stopped ();
  Fun.protect
    ~finally:(fun () -> Unix.kill srv.pid Sys.sigcont)
    (fun () ->
      ignore (Calib.time_ms () : float);
      List.init calib_reps (fun _ -> Calib.time_ms ()))

(* Where the clients meet: once to open the window, then at every slice
   end.  The last client to arrive does the gate's work while the others
   wait with nothing in flight. *)
type gate = {
  m : Mutex.t;
  resumed : Condition.t;
  window_ns : int;  (** the window's wall-clock length, calibration included *)
  on_open : unit -> unit;
  srv : server;
  mutable active : int;  (** clients still running *)
  mutable parked : int;
  mutable round : int;  (** 0 until the window opens *)
  mutable opened : int;
  mutable slice_start : int;
  mutable slice_end : int;
  mutable work_ns : int;  (** time the clients ran, calibration excluded *)
  mutable finished : bool;
  mutable calib_ms : float list;
  mutable rss_mb : float list;  (** the server's resident set at each slice end *)
}

let release g =
  let t = now_ns () in
  if g.round = 0 then begin
    g.on_open ();
    g.opened <- now_ns ()
  end
  else begin
    g.work_ns <- g.work_ns + (t - g.slice_start);
    g.rss_mb <- vm_mb g.srv.pid "VmRSS" :: g.rss_mb;
    if t - g.opened >= g.window_ns then g.finished <- true
    else g.calib_ms <- calibrate g.srv @ g.calib_ms
  end;
  g.parked <- 0;
  g.round <- g.round + 1;
  g.slice_start <- now_ns ();
  g.slice_end <- g.slice_start + int_of_float (slice_s *. 1e9);
  Condition.broadcast g.resumed

let park g =
  Mutex.lock g.m;
  g.parked <- g.parked + 1;
  if g.parked = g.active then release g
  else begin
    let r = g.round in
    while g.round = r do Condition.wait g.resumed g.m done
  end;
  Mutex.unlock g.m

(* A client that stops, or whose connection broke, leaves the gate so
   that the others do not wait for it. *)
let leave g =
  Mutex.lock g.m;
  g.active <- g.active - 1;
  if g.active = 0 then g.work_ns <- g.work_ns + (now_ns () - g.slice_start)
  else if g.parked = g.active then release g;
  Mutex.unlock g.m

(* -- the closed loop ------------------------------------------------------------ *)

type run = {
  tallies : tally list;
  elapsed_s : float;  (** time the clients ran in the window, calibration excluded *)
  window_s : float;  (** the window's wall-clock length *)
  calib_ms : float list;  (** the window's calibration times *)
  rss_mb : float list;  (** the server's resident set at each slice end *)
  telemetry : Nested.Json.json * Nested.Json.json;
      (** the server's metrics export before and after the window *)
}

(* Untimed warm-up before a measured window: the server's heap takes a
   few seconds of requests to reach its steady size, and the first passes
   run up to twice as slow as later ones. *)
let warmup_s = 3.

(* At least this many requests, split between the connections, precede
   a mixed window: enough to fill the explanation cache. *)
let mixed_warmup = 2_000

(* One thread per connection, each replaying its own stream: untimed
   for [warmup_s], then the window opens for every client at once and
   runs for [seconds], calibration slices included.  A cold client
   stops only between whole passes, so every key is measured equally
   often. *)
let drive (w : Workload.t) ~pins ~seed ~warmup_s ~seconds ~scale srv conns =
  let n = List.length conns in
  let before = ref Nested.Json.J_null in
  let g =
    {
      m = Mutex.create ();
      resumed = Condition.create ();
      window_ns = int_of_float (seconds *. 1e9);
      (* every client is parked, so the first connection is free *)
      on_open = (fun () -> before := telemetry (List.hd conns));
      srv;
      active = n;
      parked = 0;
      round = 0;
      opened = 0;
      slice_start = 0;
      slice_end = 0;
      work_ns = 0;
      finished = false;
      calib_ms = [];
      rss_mb = [];
    }
  in
  let min_warm = match w.Workload.shape with Workload.Mixed -> mixed_warmup / n | Cold -> 0 in
  let warm_start = now_ns () in
  let client i c =
    let next, at_boundary = Workload.stream w ~seed ~conn:i ~scale in
    let ck = checker pins and tl = tally () in
    let rec warm k =
      (k <= 0 && at_boundary () && ms_since warm_start >= warmup_s *. 1000.)
      || (issue ck tl c (next ()) && warm (k - 1))
    in
    let alive = warm min_warm in
    park g;
    let rec loop () =
      if now_ns () >= g.slice_end then park g;
      if not (g.finished && at_boundary ()) then
        if issue ck tl c ~measured:true (next ()) then loop ()
    in
    if alive then loop ();
    leave g;
    tl
  in
  let results = Array.make n None in
  List.mapi (fun i c -> Thread.create (fun () -> results.(i) <- Some (client i c)) ()) conns
  |> List.iter Thread.join;
  let window_s = ms_since g.opened /. 1000. in
  {
    tallies = Array.to_list (Array.map Option.get results);
    elapsed_s = float_of_int g.work_ns /. 1e9;
    window_s;
    calib_ms = g.calib_ms;
    rss_mb = vm_mb srv.pid "VmRSS" :: g.rss_mb;
    telemetry = (!before, telemetry (List.hd conns));
  }
