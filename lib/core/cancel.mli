(** Cooperative cancellation tokens for the why-not pipeline.

    A token carries an optional deadline (absolute, on the {!Obs.Clock}
    timeline) and a flag that can be raised explicitly.  The pipeline
    polls the token at its natural preemption points — phase boundaries
    and schema-alternative boundaries — and bails out by raising
    {!Cancelled} with the name of the point that observed the
    cancellation, so a caller (e.g. the serve scheduler) can attribute
    how far a cancelled run got.

    Checks are cheap (an atomic load, plus one clock read when a
    deadline is set), so polling at every boundary costs nothing
    measurable next to the phase work itself. *)

type t

(** Raised by {!check}; the payload names the boundary that observed the
    cancellation (a phase name like ["tracing"], an SA name like
    ["sa:S2"], or ["pool.dequeue"]). *)
exception Cancelled of string

(** A token that can never be cancelled — the default everywhere. *)
val none : t

(** A fresh flag-only token (cancelled only via {!cancel}). *)
val create : unit -> t

(** [with_deadline_ms ?from_ns budget] — a token that reads as cancelled
    once [budget] milliseconds have elapsed from [from_ns] (default:
    now).  It can additionally be cancelled early via {!cancel}. *)
val with_deadline_ms : ?from_ns:int -> float -> t

(** Raise the flag.  Idempotent; a no-op on {!none}. *)
val cancel : t -> unit

(** True once the flag is raised or the deadline has passed. *)
val cancelled : t -> bool

(** [check t ~where] raises [Cancelled where] iff [cancelled t]. *)
val check : t -> where:string -> unit
