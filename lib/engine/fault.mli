(** Typed fault taxonomy and retry policy — the fault tolerance of the
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

    The retry {e decision} path is deterministic: backoff durations are
    a pure function of the task id and the attempt number (capped
    exponential with hash-derived jitter) — no [Random], no wall-clock
    reads — so chaos runs with a deterministic fault schedule are
    exactly reproducible.

    Counters: [engine.task.attempts] (every execution attempt),
    [engine.task.retries] (re-runs after a transient fault),
    [engine.task.exhausted] (tasks that ran out of attempts). *)

(** Wrap an exception to mark it retryable. *)
exception Transient of exn

(** Raised when a task's transient fault survives every attempt;
    [last] is the final fault, unwrapped. *)
exception Exhausted of { task : string; attempts : int; last : exn }

type kind = Transient_fault | Permanent_fault

val classify : exn -> kind

(** Strip one {!Transient} wrapper (identity otherwise). *)
val unwrap : exn -> exn

type policy = {
  max_attempts : int;  (** total attempts, ≥ 1; 1 = no retries *)
  base_backoff_ms : float;
  max_backoff_ms : float;
}

(** One attempt, no retries, no backoff — the default everywhere. *)
val no_retry : policy

(** [retries n] allows [n] retries (so [n + 1] attempts); default
    backoff 1 ms doubling, capped at 50 ms. *)
val retries : ?base_backoff_ms:float -> ?max_backoff_ms:float -> int -> policy

(** Deterministic backoff before re-attempt [attempt + 1]: capped
    exponential scaled by a jitter factor in [0.5, 1.0) derived from
    [(task_id, attempt)]. *)
val backoff_ms : policy -> task_id:int -> attempt:int -> float

(** [protect ~policy ~task ~task_id ~abort ~on_retry f] runs [f],
    re-running it on {!Transient} faults up to [policy.max_attempts]
    total attempts.  [abort] is polled before every re-attempt:
    returning [Some e] raises [e] instead of retrying (how cancellation
    composes with retries).  [on_retry ~attempt last] fires before each
    re-run with the attempt number about to execute (2 for the first
    retry) — used to attribute [attempt=n] on spans.  Permanent faults
    propagate unchanged; exhausted transients raise {!Exhausted}. *)
val protect :
  ?policy:policy ->
  ?task:string ->
  ?task_id:int ->
  ?abort:(unit -> exn option) ->
  ?on_retry:(attempt:int -> exn -> unit) ->
  (unit -> 'a) ->
  'a
