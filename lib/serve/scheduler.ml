(* Bounded admission + deadlines in front of the shared domain pool.

   The pool's own queue is unbounded; the scheduler adds the service
   discipline: a depth counter capped at [queue_capacity] (reject beyond
   it — backpressure), and cooperative deadlines.  A deadline is
   enforced twice:

   - on the queued→running edge: a request whose deadline lapsed while
     waiting is dropped without being run;
   - DURING execution: each admitted job receives a Whynot.Cancel token
     anchored at admission time; the pipeline polls it at phase and
     schema-alternative boundaries, and the resulting Cancel.Cancelled
     is converted here into Deadline_exceeded with the name of the
     boundary that observed the lapse (partial-phase attribution).

   Every counter event updates the scheduler's mirror inside a single
   critical section — stats never observes a half-applied event (the
   global Obs counters are atomic on their own and are bumped outside
   the lock). *)

type error =
  | Overloaded of { depth : int; capacity : int }
  | Deadline_exceeded of {
      waited_ms : float;
      deadline_ms : float;
      phase : string option;
    }
  | Faulted of { task : string; attempts : int; message : string }

let error_to_string = function
  | Overloaded { depth; capacity } ->
    Fmt.str "overloaded: %d requests queued or running (capacity %d)" depth
      capacity
  | Deadline_exceeded { waited_ms; deadline_ms; phase = None } ->
    Fmt.str "deadline exceeded: queued %.1f ms past the %.1f ms deadline"
      waited_ms deadline_ms
  | Deadline_exceeded { waited_ms; deadline_ms; phase = Some p } ->
    Fmt.str
      "deadline exceeded: cancelled at %s after %.1f ms (deadline %.1f ms)" p
      waited_ms deadline_ms
  | Faulted { task; attempts; message } ->
    Fmt.str "task failed: %s gave up after %d attempt(s): %s" task attempts
      message

type t = {
  pool : Engine.Pool.t;
  capacity : int;
  default_deadline_ms : float option;
  mutex : Mutex.t;
  mutable depth : int;
  (* per-instance mirrors of the global counters, for per-server stats *)
  mutable submitted_n : int;
  mutable rejected_n : int;
  mutable completed_n : int;
  mutable expired_n : int;
  mutable faulted_n : int;
}

type stats = {
  submitted : int;
  rejected : int;
  completed : int;
  expired : int;
  faulted : int;
  depth : int;
  capacity : int;
}

type 'a ticket = ('a, error) result Engine.Pool.future

let submitted = Obs.Metrics.counter "serve.sched.submitted"
let rejected = Obs.Metrics.counter "serve.sched.rejected"
let completed = Obs.Metrics.counter "serve.sched.completed"
let expired = Obs.Metrics.counter "serve.sched.expired"
let faulted = Obs.Metrics.counter "serve.sched.faulted"
let depth_gauge = Obs.Metrics.gauge "serve.sched.depth"
let wait_hist = Obs.Metrics.histogram "serve.sched.wait_ms"

let create ?pool ~queue_capacity ?default_deadline_ms () =
  {
    pool = (match pool with Some p -> p | None -> Engine.Pool.default ());
    capacity = max 1 queue_capacity;
    default_deadline_ms;
    mutex = Mutex.create ();
    depth = 0;
    submitted_n = 0;
    rejected_n = 0;
    completed_n = 0;
    expired_n = 0;
    faulted_n = 0;
  }

let depth (t : t) =
  Mutex.lock t.mutex;
  let d = t.depth in
  Mutex.unlock t.mutex;
  d

let queue_capacity (t : t) = t.capacity

let set_depth_gauge (t : t) =
  Obs.Metrics.Gauge.set depth_gauge (float_of_int t.depth)

let submit t ?deadline_ms ?budget (f : Whynot.Cancel.t -> 'a) :
    ('a ticket, error) result =
  let deadline_ms =
    match deadline_ms with Some _ as d -> d | None -> t.default_deadline_ms
  in
  Mutex.lock t.mutex;
  if t.depth >= t.capacity then begin
    (* one critical section: the depth read and the rejection count are
       never observable apart *)
    let d = t.depth in
    t.rejected_n <- t.rejected_n + 1;
    Mutex.unlock t.mutex;
    Obs.Metrics.Counter.incr rejected;
    Obs.Log.warn "sched.reject" (fun () ->
        [ Obs.Log.int "depth" d; Obs.Log.int "capacity" t.capacity ]);
    Error (Overloaded { depth = d; capacity = t.capacity })
  end
  else begin
    t.depth <- t.depth + 1;
    t.submitted_n <- t.submitted_n + 1;
    set_depth_gauge t;
    Mutex.unlock t.mutex;
    Obs.Metrics.Counter.incr submitted;
    Obs.Log.debug "sched.admit" (fun () ->
        [ Obs.Log.int "depth" (t.depth); Obs.Log.int "capacity" t.capacity ]);
    let admitted_ns = Obs.Clock.now_ns () in
    (* the execution budget is anchored at admission, so time spent
       queued behind other requests counts against it — and so is the
       approximation budget: a request that waited long degrades the
       same way one that ran slowly does *)
    Option.iter
      (fun b -> Whynot.Approx.rebase b ~from_ns:admitted_ns)
      budget;
    let cancel =
      match deadline_ms with
      | Some budget -> Whynot.Cancel.with_deadline_ms ~from_ns:admitted_ns budget
      | None -> Whynot.Cancel.create ()
    in
    let expire ~phase ~budget =
      let elapsed_ms =
        float_of_int (Obs.Clock.now_ns () - admitted_ns) /. 1e6
      in
      Obs.Metrics.Counter.incr expired;
      Mutex.lock t.mutex;
      t.expired_n <- t.expired_n + 1;
      Mutex.unlock t.mutex;
      Obs.Log.warn "sched.expired" (fun () ->
          [
            Obs.Log.float "waited_ms" elapsed_ms;
            Obs.Log.float "deadline_ms" budget;
            Obs.Log.str "phase"
              (match phase with Some p -> p | None -> "queued");
          ]);
      Error
        (Deadline_exceeded { waited_ms = elapsed_ms; deadline_ms = budget; phase })
    in
    let job () =
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.mutex;
          t.depth <- t.depth - 1;
          set_depth_gauge t;
          Mutex.unlock t.mutex)
        (fun () ->
          let waited_ms =
            float_of_int (Obs.Clock.now_ns () - admitted_ns) /. 1e6
          in
          Obs.Metrics.Histogram.observe wait_hist waited_ms;
          match deadline_ms with
          | Some budget when waited_ms > budget ->
            expire ~phase:None ~budget
          | _ -> (
            match f cancel with
            | v ->
              Obs.Metrics.Counter.incr completed;
              Mutex.lock t.mutex;
              t.completed_n <- t.completed_n + 1;
              Mutex.unlock t.mutex;
              Ok v
            | exception Engine.Fault.Exhausted { task; attempts; last } ->
              (* Retry budget exhausted inside the run: a typed error,
                 not a crashed connection.  The fault is attributed to
                 the failing task (operator/partition or SA/phase). *)
              Obs.Metrics.Counter.incr faulted;
              Mutex.lock t.mutex;
              t.faulted_n <- t.faulted_n + 1;
              Mutex.unlock t.mutex;
              Obs.Log.warn "sched.faulted" (fun () ->
                  [
                    Obs.Log.str "task" task;
                    Obs.Log.int "attempts" attempts;
                    Obs.Log.str "error" (Printexc.to_string last);
                  ]);
              Error
                (Faulted
                   { task; attempts; message = Printexc.to_string last })
            | exception Whynot.Cancel.Cancelled where ->
              let budget =
                match deadline_ms with
                | Some b -> b
                | None ->
                  (* cancelled by flag, not deadline; report elapsed *)
                  float_of_int (Obs.Clock.now_ns () - admitted_ns) /. 1e6
              in
              expire ~phase:(Some where) ~budget))
    in
    Ok (Engine.Pool.submit t.pool job)
  end

let await (ticket : 'a ticket) : ('a, error) result = Engine.Pool.await ticket

let run t ?deadline_ms ?budget f =
  match submit t ?deadline_ms ?budget f with
  | Error e -> Error e
  | Ok ticket -> await ticket

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      submitted = t.submitted_n;
      rejected = t.rejected_n;
      completed = t.completed_n;
      expired = t.expired_n;
      faulted = t.faulted_n;
      depth = t.depth;
      capacity = t.capacity;
    }
  in
  Mutex.unlock t.mutex;
  s
