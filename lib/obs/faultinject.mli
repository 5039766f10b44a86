(** Fault injection — named hook points that engine tasks, the why-not
    pipeline, and the server's loops call into, armed by tests and the
    chaos bench to simulate the fault classes a long-running service
    must survive.

    A {e site} is a string naming a hook point.  Current sites:
    - engine: ["engine.run"] (fired once per {!Engine.Exec.rows} run,
      before any work: the engine does not retry, so a fault here is
      replayed by the pipeline phase that owns the run — the [prepare]
      [msr] phase for ⟦Q⟧_D), ["engine.pool.worker"] (the pool's worker
      loop, fired before each dequeue — arming it kills a worker
      domain);
    - pipeline: ["tracing.relaxed"] (at the entry of a schema
      alternative's relaxed data-tracing evaluation, which runs only to
      fill that SA's empty slot on a prepared handle: a chain that reads
      a filled slot does not fire it), ["tracing.shared"]
      (per attempt of the job that traces the SA-invariant subtrees
      once per prepared query);
    - server: ["server.accept"], ["server.read"], ["server.write"],
      ["server.explain"].

    Unarmed sites cost one atomic load per {!fire}; the process-global
    table is only consulted while at least one site is armed, so
    production traffic never pays for the harness.

    Actions:
    - [Fail { times; exn_ }] — raise [exn_] on the next [times] fires
      (a negative [times] means every fire).  [fail_once e] is
      [Fail { times = 1; exn_ = e }].
    - [Flaky { period; exn_ }] — raise [exn_] on every [period]-th fire
      of the site (deterministic: the decision depends only on the
      site's consultation count, never on [Random] or the clock).
      [period = 20] faults one fire in 20; a replayed phase fires the
      site again, lands off the period boundary, and succeeds — the
      transient-fault shape the pipeline's phase retry is built for.
    - [Delay_ms d] — sleep [d] milliseconds at each fire (slow-job
      injection, e.g. to push an explain past its deadline).
    - [Garble g] — rewrite the string passing through a {!transform}
      site (malformed-payload injection); ignored by {!fire} sites.

    Triggered injections are counted per site ({!fired}) and mirrored
    into {!Metrics} as [fault.<site>]. *)

type action =
  | Fail of { times : int; exn_ : exn }
  | Flaky of { period : int; exn_ : exn }
  | Delay_ms of float
  | Garble of (string -> string)

val fail_once : exn -> action

(** Arm [site] with [action], replacing any previous arming (and
    zeroing the Flaky consultation count). *)
val arm : string -> action -> unit

(** Disarm every site and zero the per-site trigger counts. *)
val reset : unit -> unit

(** Hook point: may sleep or raise according to the site's action. *)
val fire : string -> unit

(** Hook point for payloads: applies a [Garble] action, otherwise
    returns the string unchanged ([Fail]/[Delay_ms] also apply, before
    the return). *)
val transform : string -> string -> string

(** How many times [site]'s action has triggered since the last
    {!reset}. *)
val fired : string -> int

(** {1 Site registry}

    Modules that fire a hook point declare it once at module-init time
    with {!register_site} (which returns its argument, so the usual
    idiom is [let site_foo = Faultinject.register_site "x.foo"]).  The
    chaos-coverage lint enumerates {!registered_sites} and fails when
    any is missing from {!ever_armed} — so a new site cannot ship
    without a test arming it.  Both sets survive {!reset}. *)

(** Declare a hook point; returns the name unchanged.  Idempotent. *)
val register_site : string -> string

(** Every declared site, sorted. *)
val registered_sites : unit -> string list

(** Every site {!arm} has ever been called on in this process, sorted.
    Not cleared by {!reset}. *)
val ever_armed : unit -> string list
