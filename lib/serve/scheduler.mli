(** Request scheduler — bounded admission in front of the shared
    {!Engine.Pool}.

    Admission is a counted slot: at most [queue_capacity] requests may be
    queued-or-running at once; a submission past that is rejected
    immediately with {!Overloaded} (backpressure — the caller gets a
    typed error to serialize, not a blocked connection).

    Deadlines are cooperative and enforced at two kinds of point:
    - the queued→running edge — a request still queued when its deadline
      passes is not started;
    - {e during} execution — each admitted job receives a
      {!Whynot.Cancel} token anchored at admission time; work that polls
      it (the pipeline does, at phase and schema-alternative boundaries)
      is cancelled mid-flight, and the resulting
      {!Whynot.Cancel.Cancelled} resolves to {!Deadline_exceeded} whose
      [phase] names the boundary that observed the lapse.

    A run whose task-retry budget runs out ({!Engine.Fault.Exhausted})
    resolves to {!Faulted} — a typed error carrying the failing task's
    attribution, not a crashed connection.

    Counters [serve.sched.{submitted,rejected,completed,expired,faulted}], the
    [serve.sched.depth] gauge, and the [serve.sched.wait_ms] histogram
    land in {!Obs.Metrics}.  Each counter event and its {!stats} mirror
    are applied in one critical section, so [stats] never under-reports
    a rejection or expiry that already produced its typed error. *)

type error =
  | Overloaded of { depth : int; capacity : int }
  | Deadline_exceeded of {
      waited_ms : float;  (** elapsed since admission when it expired *)
      deadline_ms : float;
      phase : string option;
          (** [None]: expired while still queued; [Some p]: cancelled
              during execution at boundary [p] *)
    }
  | Faulted of {
      task : string;  (** e.g. ["prepare/msr"] or ["sa:S2/tracing"] *)
      attempts : int;
      message : string;  (** the last underlying fault *)
    }

val error_to_string : error -> string

type t

(** [create ?pool ~queue_capacity ?default_deadline_ms ()] — capacity is
    clamped to ≥ 1; [default_deadline_ms] applies to submissions without
    an explicit deadline ([None] = no deadline).  [pool] defaults to the
    process-wide {!Engine.Pool.default}. *)
val create :
  ?pool:Engine.Pool.t ->
  queue_capacity:int ->
  ?default_deadline_ms:float ->
  unit ->
  t

type 'a ticket

(** Admit a job or reject it with {!Overloaded}.  The job receives the
    request's cancellation token (never-cancellable when the request has
    no deadline) — thread it into {!Whynot.Pipeline.prepare} /
    {!Whynot.Pipeline.explain_with} to make the run preemptible.
    [?budget] is an approximation budget ({!Whynot.Approx.t}) to
    re-anchor at admission: queue wait burns it exactly like it burns
    the deadline, so a long-queued budgeted request starts already
    degraded rather than blowing its latency target. *)
val submit :
  t ->
  ?deadline_ms:float ->
  ?budget:Whynot.Approx.t ->
  (Whynot.Cancel.t -> 'a) ->
  ('a ticket, error) result

(** Wait for the outcome (helping with pool work — see
    {!Engine.Pool.await}).  Re-raises the job's own exception if it
    raised (except {!Whynot.Cancel.Cancelled}, which resolves to
    [Error (Deadline_exceeded _)], and {!Engine.Fault.Exhausted}, which
    resolves to [Error (Faulted _)]). *)
val await : 'a ticket -> ('a, error) result

(** [submit] + [await]. *)
val run :
  t ->
  ?deadline_ms:float ->
  ?budget:Whynot.Approx.t ->
  (Whynot.Cancel.t -> 'a) ->
  ('a, error) result

(** Requests currently queued or running. *)
val depth : t -> int

val queue_capacity : t -> int

(** Per-scheduler counts (the global {!Obs.Metrics} counters aggregate
    across schedulers; these don't). *)
type stats = {
  submitted : int;
  rejected : int;
  completed : int;
  expired : int;
  faulted : int;
  depth : int;
  capacity : int;
}

val stats : t -> stats
