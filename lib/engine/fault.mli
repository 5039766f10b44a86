(** Typed faults and the retry loop — the fault tolerance of the
    why-not pipeline.

    Spark (the paper's substrate) silently retries failed partition
    tasks and recomputes them from lineage.  Here the engine does not
    retry: the pipeline runs each phase under {!protect}, and a phase's
    lineage is its closure plus immutable inputs, so recomputation is
    exact — {!protect} re-runs the closure, which replays a whole engine
    run when the fault was raised inside one.

    Only exceptions wrapped in {!Transient} are retried; everything
    else — including [Whynot.Cancel.Cancelled] — is a permanent fault
    and propagates on the first attempt.  When a transient fault
    survives every attempt, {!Exhausted} propagates the {e last} fault
    wrapped with task attribution.

    Counters: [engine.task.attempts] (every execution attempt),
    [engine.task.retries] (re-runs after a transient fault),
    [engine.task.exhausted] (tasks that ran out of attempts). *)

(** Wrap an exception to mark it retryable. *)
exception Transient of exn

(** Raised when a task's transient fault survives every attempt;
    [last] is the final fault, unwrapped. *)
exception Exhausted of { task : string; attempts : int; last : exn }

(** [protect ~retries ~task ~abort ~on_retry f] runs [f], re-running it
    on {!Transient} faults: [retries + 1] attempts in all ([retries]
    defaults to 0 and is clamped at 0).  [abort] is polled before every
    re-attempt: returning [Some e] raises [e] instead of retrying (how
    cancellation composes with retries).  [on_retry ~attempt last]
    fires before each re-run with the attempt number about to execute
    (2 for the first retry) — used to attribute [attempt=n] on spans.
    Permanent faults propagate unchanged; exhausted transients raise
    {!Exhausted}. *)
val protect :
  ?retries:int ->
  ?task:string ->
  ?abort:(unit -> exn option) ->
  ?on_retry:(attempt:int -> exn -> unit) ->
  (unit -> 'a) ->
  'a
