(* Typed fault taxonomy + retry policy — the stand-in for a DISC
   scheduler's fault tolerance.

   Spark retries a failed partition task and recomputes it from lineage.
   The engine here runs its partitions one after the other and does not
   retry; the why-not pipeline wraps each phase in [protect], and a
   phase's lineage is its closure plus immutable inputs (the database,
   the query, the prepared artifacts), so recomputation is exact:
   re-running the closure yields the same output.  The retry decision
   path is fully
   deterministic — backoff durations derive from the task id and attempt
   number, never from [Random] or the wall clock — so a chaos run with a
   deterministic fault schedule is exactly reproducible. *)

exception Transient of exn

exception
  Exhausted of {
    task : string;  (** attribution: the phase, e.g. ["prepare/msr"] *)
    attempts : int;
    last : exn;  (** the final (unwrapped) fault *)
  }

let () =
  Printexc.register_printer (function
    | Transient e -> Some ("Fault.Transient: " ^ Printexc.to_string e)
    | Exhausted { task; attempts; last } ->
      Some
        (Fmt.str "Fault.Exhausted: task %s failed after %d attempt(s): %s" task
           attempts (Printexc.to_string last))
    | _ -> None)

type kind = Transient_fault | Permanent_fault

(* Only faults explicitly wrapped as [Transient] are retryable.  In
   particular a cancellation (Whynot.Cancel.Cancelled) classifies as
   permanent — a cancelled run must not retry. *)
let classify = function Transient _ -> Transient_fault | _ -> Permanent_fault

let unwrap = function Transient e -> e | e -> e

type policy = {
  max_attempts : int;  (** total attempts, ≥ 1; 1 = no retries *)
  base_backoff_ms : float;
  max_backoff_ms : float;
}

let no_retry = { max_attempts = 1; base_backoff_ms = 0.0; max_backoff_ms = 0.0 }

let retries ?(base_backoff_ms = 1.0) ?(max_backoff_ms = 50.0) n =
  { max_attempts = 1 + max 0 n; base_backoff_ms; max_backoff_ms }

(* Capped exponential backoff with deterministic jitter: the jitter
   factor in [0.5, 1.0) comes from a hash of (task id, attempt), so two
   retried tasks don't thunder in lockstep, yet the schedule is a
   pure function of the task — no randomness, no clock reads. *)
let backoff_ms (p : policy) ~task_id ~attempt =
  if p.base_backoff_ms <= 0.0 then 0.0
  else begin
    let raw = p.base_backoff_ms *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
    let capped = Float.min raw p.max_backoff_ms in
    let h = ((task_id * 2654435761) + (attempt * 40503)) land 0xFFFF in
    capped *. (0.5 +. (0.5 *. (float_of_int h /. 65536.0)))
  end

let attempts_c = Obs.Metrics.counter "engine.task.attempts"
let retries_c = Obs.Metrics.counter "engine.task.retries"
let exhausted_c = Obs.Metrics.counter "engine.task.exhausted"

let protect ?(policy = no_retry) ?(task = "task") ?(task_id = 0) ?abort
    ?on_retry (f : unit -> 'a) : 'a =
  let max_attempts = max 1 policy.max_attempts in
  let rec go attempt =
    Obs.Metrics.Counter.incr attempts_c;
    match f () with
    | v -> v
    | exception Transient inner ->
      if attempt >= max_attempts then begin
        Obs.Metrics.Counter.incr exhausted_c;
        Obs.Log.err "task.exhausted" (fun () ->
            [
              Obs.Log.str "task" task;
              Obs.Log.int "attempts" attempt;
              Obs.Log.str "error" (Printexc.to_string inner);
            ]);
        raise (Exhausted { task; attempts = attempt; last = inner })
      end
      else begin
        (* The abort hook is polled before every re-attempt: a cancelled
           run gives up immediately instead of burning retries (and
           backoff sleeps) on work nobody wants. *)
        match (match abort with Some a -> a () | None -> None) with
        | Some abort_exn -> raise abort_exn
        | None ->
          Obs.Metrics.Counter.incr retries_c;
          Obs.Log.warn "task.retry" (fun () ->
              [
                Obs.Log.str "task" task;
                Obs.Log.int "attempt" (attempt + 1);
                Obs.Log.str "error" (Printexc.to_string inner);
              ]);
          (match on_retry with
          | Some cb -> cb ~attempt:(attempt + 1) inner
          | None -> ());
          let d = backoff_ms policy ~task_id ~attempt in
          if d > 0.0 then Unix.sleepf (d /. 1000.0);
          go (attempt + 1)
      end
  in
  go 1
