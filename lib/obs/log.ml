(* Leveled structured logging.

   A record is an event name plus typed key→value fields (reusing
   {!Span.value}), stamped with a monotone timestamp ({!Clock}) and the
   ambient trace id ({!Trace_context}) — so one grep for a trace id over
   a JSON log file reconstructs a request's path.

   Fast path: the level test is one atomic load and an integer compare;
   a call at a disabled level never evaluates its field thunk, so the
   per-call-site cost of disabled logging is the thunk closure plus the
   load (benched in `bench obs`, recorded in BENCH_PR6.json).

   Enabled records go to a bounded ring buffer (the last N records are
   always inspectable — tests and the telemetry verb read it) and to
   every registered sink.  Built-in sinks: human text on stderr,
   JSON-lines to a channel (each record flushed, so a live server's log
   file is greppable mid-run), and an in-memory collector for tests.
   Sink emission is serialized by one mutex — sinks never interleave
   half-records — which is "lock-free enough": the lock is only taken
   for records that passed the level gate. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* The enabled threshold, as an int for the one-atomic-load fast path;
   a sentinel above Error means "off". *)
let off_sentinel = 100

let threshold = Atomic.make (severity Info)

let set_level = function
  | None -> Atomic.set threshold off_sentinel
  | Some l -> Atomic.set threshold (severity l)

let level () =
  match Atomic.get threshold with
  | 0 -> Some Debug
  | 1 -> Some Info
  | 2 -> Some Warn
  | 3 -> Some Error
  | _ -> None

let enabled l = severity l >= Atomic.get threshold

(* -- records -------------------------------------------------------------- *)

type field = string * Span.value

let str k v : field = (k, Span.String v)
let int k v : field = (k, Span.Int v)
let float k v : field = (k, Span.Float v)
let bool k v : field = (k, Span.Bool v)

type record = {
  ts_ns : int;
  lvl : level;
  event : string;
  trace_id : string option;
  fields : field list;
}

(* -- ring buffer + sinks -------------------------------------------------- *)

type sink = record -> unit

type state = {
  mutable ring : record option array;
  mutable head : int;  (* next write slot *)
  mutable stored : int;  (* total records ever stored *)
  mutable sinks : (string * sink) list;
  lock : Mutex.t;
}

let state =
  {
    ring = Array.make 512 None;
    head = 0;
    stored = 0;
    sinks = [];
    lock = Mutex.create ();
  }

let protect f =
  Mutex.lock state.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.lock) f

let records_c = Metrics.counter "obs.log.records"

let set_ring_capacity n =
  protect (fun () ->
      state.ring <- Array.make (max 1 n) None;
      state.head <- 0)

let recent () =
  protect (fun () ->
      let n = Array.length state.ring in
      let out = ref [] in
      for i = 0 to n - 1 do
        (* oldest-first: walk forward from the write head *)
        match state.ring.((state.head + i) mod n) with
        | Some r -> out := r :: !out
        | None -> ()
      done;
      List.rev !out)

let clear_ring () =
  protect (fun () ->
      Array.fill state.ring 0 (Array.length state.ring) None;
      state.head <- 0)

let add_sink name sink =
  protect (fun () ->
      state.sinks <- (name, sink) :: List.remove_assoc name state.sinks)

let remove_sink name =
  protect (fun () -> state.sinks <- List.remove_assoc name state.sinks)

let clear_sinks () = protect (fun () -> state.sinks <- [])

let push r =
  Metrics.Counter.incr records_c;
  protect (fun () ->
      let n = Array.length state.ring in
      state.ring.(state.head) <- Some r;
      state.head <- (state.head + 1) mod n;
      state.stored <- state.stored + 1;
      (* Sinks run under the lock: records in a file sink never
         interleave.  Sinks must not log (they would deadlock). *)
      List.iter
        (fun (_, sink) -> try sink r with _ -> ())
        state.sinks)

(* -- emission ------------------------------------------------------------- *)

let log lvl event fields =
  if enabled lvl then
    push
      {
        ts_ns = Clock.now_ns ();
        lvl;
        event;
        trace_id = Trace_context.current ();
        fields = fields ();
      }

let debug event fields = log Debug event fields
let info event fields = log Info event fields
let warn event fields = log Warn event fields
let err event fields = log Error event fields

(* -- rendering ------------------------------------------------------------ *)

let pp_text ppf (r : record) =
  Fmt.pf ppf "%.6f %-5s %s" (Clock.ns_to_ms r.ts_ns /. 1000.0)
    (level_to_string r.lvl) r.event;
  (match r.trace_id with
  | Some t -> Fmt.pf ppf " trace_id=%s" t
  | None -> ());
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%a" k Span.pp_value v) r.fields

open Nested

let value_to_json : Span.value -> Json.json = function
  | Span.Int i -> Json.J_int i
  | Span.Float f -> Json.J_float f
  | Span.Bool b -> Json.J_bool b
  | Span.String s -> Json.J_string s

let to_json (r : record) : Json.json =
  Json.J_object
    ([
       ("ts_ns", Json.J_int r.ts_ns);
       ("level", Json.J_string (level_to_string r.lvl));
       ("event", Json.J_string r.event);
     ]
    @ (match r.trace_id with
      | Some t -> [ ("trace_id", Json.J_string t) ]
      | None -> [])
    @ [
        ( "fields",
          Json.J_object (List.map (fun (k, v) -> (k, value_to_json v)) r.fields)
        );
      ])

exception Decode_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Decode_error m)) fmt

let of_json (j : Json.json) : record =
  let member name fields = List.assoc_opt name fields in
  match j with
  | Json.J_object fields ->
    let ts_ns =
      match member "ts_ns" fields with
      | Some (Json.J_int n) -> n
      | _ -> fail "log record: missing or non-integer \"ts_ns\""
    in
    let lvl =
      match member "level" fields with
      | Some (Json.J_string s) -> (
        match level_of_string s with
        | Some l -> l
        | None -> fail "log record: unknown level %S" s)
      | _ -> fail "log record: missing \"level\""
    in
    let event =
      match member "event" fields with
      | Some (Json.J_string s) -> s
      | _ -> fail "log record: missing \"event\""
    in
    let trace_id =
      match member "trace_id" fields with
      | Some (Json.J_string s) -> Some s
      | None -> None
      | Some _ -> fail "log record: \"trace_id\" must be a string"
    in
    let fields =
      match member "fields" fields with
      | Some (Json.J_object kvs) ->
        List.map
          (fun (k, v) ->
            match v with
            | Json.J_int i -> (k, Span.Int i)
            | Json.J_float f -> (k, Span.Float f)
            | Json.J_bool b -> (k, Span.Bool b)
            | Json.J_string s -> (k, Span.String s)
            | _ -> fail "log record: field %S has a non-scalar value" k)
          kvs
      | None -> []
      | Some _ -> fail "log record: \"fields\" must be an object"
    in
    { ts_ns; lvl; event; trace_id; fields }
  | _ -> fail "log record: expected an object"

(* -- built-in sinks ------------------------------------------------------- *)

let stderr_text_sink (r : record) =
  Fmt.epr "%a@." pp_text r

(* One JSON object per line, flushed per record: a live server's log
   file is greppable while the server runs (the e2e acceptance test
   relies on this). *)
let json_line_sink oc (r : record) =
  output_string oc (Json.to_line (to_json r));
  output_char oc '\n';
  flush oc

let memory_sink () =
  let lock = Mutex.create () in
  let acc = ref [] in
  let sink r =
    Mutex.lock lock;
    acc := r :: !acc;
    Mutex.unlock lock
  in
  let contents () =
    Mutex.lock lock;
    let rs = List.rev !acc in
    Mutex.unlock lock;
    rs
  in
  (sink, contents)
