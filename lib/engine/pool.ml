(* Fixed-size domain pool — the engine's task-parallel substrate.

   OCaml 5 domains are heavyweight (each owns a minor heap and a slice
   of the GC), so spawning one per partition per operator — what
   the dataset partition map did before this module existed — costs more
   than the partition work it parallelizes.  Instead we spawn
   [Domain.recommended_domain_count () - 1] workers once, feed them
   through a mutex/condvar work queue, and hand callers futures.

   [await] *helps*: while its future is pending it pops and runs queued
   jobs on the calling domain.  This keeps nested submissions safe (a
   pooled job may itself submit to the same pool and await without
   deadlocking even when every worker is blocked the same way) and means
   a pool of size 1 still makes progress on a single-core machine.

   Supervision and graceful degradation (the serve layer's at_exit
   teardown makes these live hazards, not hypotheticals):
   - [submit] on a shut-down or dead pool runs the job inline on the
     calling domain instead of raising — counted in
     [engine.pool.inline_fallback];
   - job closures resolve their future on *any* escape (including a
     raising abort hook), so a worker domain cannot die holding a job;
   - a worker domain that does die (the ["engine.pool.worker"] chaos
     site simulates this) is noticed eagerly (the pool degrades to
     inline once every worker is gone) and detected at join, counted in
     [engine.pool.worker_deaths]; any jobs its death stranded in the
     queue are drained inline by [shutdown]. *)

type 'a state = Pending | Done of 'a | Failed of exn

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable dead : int;  (* worker domains that died before shutdown *)
  mutable workers : unit Domain.t list;
  size : int;
}

and 'a future = {
  pool : t;
  fmutex : Mutex.t;
  fdone : Condition.t;
  mutable state : 'a state;
}

let size pool = pool.size

let inline_fallback_c = lazy (Obs.Metrics.counter "engine.pool.inline_fallback")
let worker_deaths_c = lazy (Obs.Metrics.counter "engine.pool.worker_deaths")
let site_worker = Obs.Faultinject.register_site "engine.pool.worker"

let worker_loop pool () =
  let rec loop () =
    (* Chaos hook: arming this site raises here, killing the worker
       domain with the queue intact (the fire precedes the dequeue, so
       no job is lost with it). *)
    Obs.Faultinject.fire site_worker;
    Mutex.lock pool.mutex;
    let rec next () =
      match Queue.take_opt pool.queue with
      | Some job -> Some job
      | None ->
        if pool.closed then None
        else begin
          Condition.wait pool.not_empty pool.mutex;
          next ()
        end
    in
    let job = next () in
    Mutex.unlock pool.mutex;
    match job with
    | None -> ()
    | Some job ->
      job ();
      loop ()
  in
  try loop ()
  with e ->
    (* Record the death eagerly so [submit] can degrade to inline once
       the last worker is gone; re-raise so [shutdown]'s join sees it. *)
    Mutex.lock pool.mutex;
    pool.dead <- pool.dead + 1;
    Mutex.unlock pool.mutex;
    raise e

let create ?size () =
  let size =
    match size with
    | Some s -> max 1 s
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      dead = 0;
      workers = [];
      size;
    }
  in
  pool.workers <- List.init size (fun _ -> Domain.spawn (worker_loop pool));
  pool

let submit ?abort (pool : t) (f : unit -> 'a) : 'a future =
  let fut =
    { pool; fmutex = Mutex.create (); fdone = Condition.create (); state = Pending }
  in
  (* The submitter's ambient trace context travels with the job: the
     worker domain (or a helping awaiter, or the inline-fallback path)
     reinstalls it around the run, so spans and log records emitted
     inside pooled work carry the request's trace_id. *)
  let trace = Obs.Trace_context.current () in
  let job () =
    (* The abort hook runs at the queued→running edge: a job whose
       submitter no longer wants it (deadline lapsed, run cancelled)
       fails its future without doing the work.  An abort hook that
       itself raises also fails the future — nothing may escape into the
       worker loop holding an unresolved future. *)
    let outcome =
      Obs.Trace_context.with_opt trace (fun () ->
          match (match abort with Some a -> a () | None -> None) with
          | Some e -> Failed e
          | None -> ( match f () with v -> Done v | exception e -> Failed e)
          | exception e -> Failed e)
    in
    Mutex.lock fut.fmutex;
    fut.state <- outcome;
    Condition.broadcast fut.fdone;
    Mutex.unlock fut.fmutex
  in
  Mutex.lock pool.mutex;
  let degraded = pool.closed || pool.dead >= pool.size in
  if degraded then begin
    Mutex.unlock pool.mutex;
    (* Graceful degradation: a late job (e.g. during at_exit-ordered
       teardown) runs inline on the calling domain instead of crashing
       the process with Invalid_argument. *)
    Obs.Metrics.Counter.incr (Lazy.force inline_fallback_c);
    job ()
  end
  else begin
    Queue.add job pool.queue;
    Condition.signal pool.not_empty;
    Mutex.unlock pool.mutex
  end;
  fut

let try_steal (pool : t) : (unit -> unit) option =
  Mutex.lock pool.mutex;
  let job = Queue.take_opt pool.queue in
  Mutex.unlock pool.mutex;
  job

let rec await (fut : 'a future) : 'a =
  Mutex.lock fut.fmutex;
  let state = fut.state in
  Mutex.unlock fut.fmutex;
  match state with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> (
    (* Run queued work on this domain while we wait — see module header. *)
    match try_steal fut.pool with
    | Some job ->
      job ();
      await fut
    | None ->
      Mutex.lock fut.fmutex;
      while fut.state = Pending do
        Condition.wait fut.fdone fut.fmutex
      done;
      Mutex.unlock fut.fmutex;
      await fut)

let task_label label i =
  match label with
  | Some l -> Fmt.str "%s/p%d" l i
  | None -> Fmt.str "p%d" i

let map_array ?policy ?label ?on_retry (pool : t) (f : 'a -> 'b)
    (xs : 'a array) : 'b array =
  let run i x =
    match policy with
    | None -> f x
    | Some policy ->
      Fault.protect ~policy ~task:(task_label label i) ~task_id:i
        ?on_retry:
          (Option.map (fun cb ~attempt e -> cb ~index:i ~attempt e) on_retry)
        (fun () -> f x)
  in
  (* Await in submission order: results are deterministic and the first
     exception to propagate is the leftmost one. *)
  match Array.length xs with
  | 0 -> [||]
  | 1 -> [| run 0 xs.(0) |]
  | _ ->
    let futures =
      Array.mapi (fun i x -> submit pool (fun () -> run i x)) xs
    in
    Array.map await futures

let map_list ?policy ?label ?on_retry (pool : t) (f : 'a -> 'b) (xs : 'a list)
    : 'b list =
  Array.to_list (map_array ?policy ?label ?on_retry pool f (Array.of_list xs))

let shutdown (pool : t) : unit =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.closed <- true;
  pool.workers <- [];
  Condition.broadcast pool.not_empty;
  Mutex.unlock pool.mutex;
  (* A worker that died re-raises at join: count it, never crash the
     teardown path. *)
  List.iter
    (fun w ->
      match Domain.join w with
      | () -> ()
      | exception _ ->
        Obs.Metrics.Counter.incr (Lazy.force worker_deaths_c))
    workers;
  (* Jobs stranded in the queue by dead workers are recomputed inline —
     their futures resolve and no awaiter hangs. *)
  let rec drain () =
    match try_steal pool with
    | Some job ->
      job ();
      drain ()
    | None -> ()
  in
  drain ()

(* The shared pool: created on first use, lives for the process (worker
   domains idle on a condvar when the queue is empty, so an unused pool
   costs nothing but memory). *)
let default_pool = lazy (create ())
let default () = Lazy.force default_pool

(* Joining the workers at process exit keeps teardown orderly under
   tools (e.g. valgrind, coverage) that dislike domains alive at exit;
   forcing the lazy here would spawn domains only to kill them, hence
   the is_val guard. *)
let shutdown_default () =
  if Lazy.is_val default_pool then shutdown (Lazy.force default_pool)
