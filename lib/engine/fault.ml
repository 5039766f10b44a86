(* Typed faults + the retry loop — the stand-in for a DISC scheduler's
   fault tolerance.

   Spark retries a failed partition task and recomputes it from lineage.
   The engine here runs its partitions one after the other and does not
   retry; the why-not pipeline wraps each phase in [protect], and a
   phase's lineage is its closure plus immutable inputs (the database,
   the query, the prepared artifacts), so recomputation is exact:
   re-running the closure yields the same output. *)

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

let attempts_c = Obs.Metrics.counter "engine.task.attempts"
let retries_c = Obs.Metrics.counter "engine.task.retries"
let exhausted_c = Obs.Metrics.counter "engine.task.exhausted"

(* Only faults explicitly wrapped as [Transient] are retried.  In
   particular a cancellation (Whynot.Cancel.Cancelled) is permanent — a
   cancelled run must not retry. *)
let protect ?(retries = 0) ?(task = "task") ?abort ?on_retry (f : unit -> 'a)
    : 'a =
  let max_attempts = 1 + max 0 retries in
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
           run gives up immediately instead of burning retries on work
           nobody wants. *)
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
          go (attempt + 1)
      end
  in
  go 1
