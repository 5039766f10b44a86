(** Fixed-size domain pool with a work queue and futures.

    Domains are expensive to spawn (each owns a minor heap), so the pool
    spawns its workers once and reuses them across submissions — the
    engine's stand-in for a DISC system's long-lived executors.

    {!await} {e helps}: a domain blocked on a pending future pops and
    runs queued jobs itself, so nested submissions (a pooled job
    submitting to its own pool) cannot deadlock, and a size-1 pool on a
    single-core machine still makes progress.

    Supervision: a shut-down or dead pool degrades gracefully — see
    {!submit} — and {!shutdown} detects worker-domain deaths at join
    ([engine.pool.worker_deaths]) and recomputes any jobs the death
    stranded in the queue inline, so no future is left forever
    pending. *)

type t

type 'a future

(** Spawn a pool of [size] worker domains (default
    [Domain.recommended_domain_count () - 1], at least 1). *)
val create : ?size:int -> unit -> t

val size : t -> int

(** Enqueue a job.  After {!shutdown} — or once every worker domain has
    died — the job instead runs {e inline} on the calling domain
    (counted in [engine.pool.inline_fallback]) and the returned future
    is already resolved: late submissions during at_exit-ordered
    teardown degrade to sequential execution, they never raise.

    [?abort] is polled once when the job is dequeued (the queued→running
    edge): returning [Some e] fails the future with [e] without running
    the job — how cancelled work queued behind slow jobs is reclaimed
    without preemption.  An abort hook that raises fails the future with
    that exception (it cannot kill a worker). *)
val submit : ?abort:(unit -> exn option) -> t -> (unit -> 'a) -> 'a future

(** Block until the future resolves, helping with queued work in the
    meantime.  Re-raises the job's exception if it failed.  [?helped]
    accumulates the nanoseconds this call spent running queued jobs
    rather than blocked: other jobs, or the awaited one itself when no
    worker had taken it yet. *)
val await : ?helped:int ref -> 'a future -> 'a

(** Drain-free graceful teardown: workers finish the jobs already
    queued, then exit; [shutdown] joins them all (counting workers that
    died, then recomputing any jobs they stranded).  Idempotent. *)
val shutdown : t -> unit

(** The process-wide shared pool, created on first use. *)
val default : unit -> t

(** {!shutdown} the default pool iff it was ever created (never spawns
    one just to kill it).  Safe to register with [at_exit]. *)
val shutdown_default : unit -> unit
