(** Leveled structured logging — typed key→value records with monotone
    timestamps ({!Clock}), ambient trace-id stamping
    ({!Trace_context}), and pluggable sinks.

    The level gate is one atomic load: a call at a disabled level never
    evaluates its field thunk.  Records that pass the gate are handed
    to each registered sink under one lock, so sink output never
    interleaves.

    Call-site shape:
    {[
      Obs.Log.info "serve.request" (fun () ->
          [ Obs.Log.str "op" "explain"; Obs.Log.int "depth" d ])
    ]} *)

type level = Debug | Info | Warn | Error

val severity : level -> int
val level_to_string : level -> string
val level_of_string : string -> level option

(** [set_level None] disables all logging; [set_level (Some l)] enables
    records at [l] and above.  Default: [Some Info]. *)
val set_level : level option -> unit

val level : unit -> level option

(** One atomic load — the hot-path gate. *)
val enabled : level -> bool

(** {1 Records} *)

type field = string * Span.value

val str : string -> string -> field
val int : string -> int -> field
val float : string -> float -> field
val bool : string -> bool -> field

type record = {
  ts_ns : int;
  lvl : level;
  event : string;
  trace_id : string option;  (** the ambient {!Trace_context} at emit *)
  fields : field list;
}

(** [log lvl event fields] — [fields] is evaluated only when [lvl] is
    enabled. *)
val log : level -> string -> (unit -> field list) -> unit

val debug : string -> (unit -> field list) -> unit
val info : string -> (unit -> field list) -> unit
val warn : string -> (unit -> field list) -> unit
val err : string -> (unit -> field list) -> unit

(** {1 Sinks} *)

(** [add_sink name sink] registers (or replaces) a named sink.  Sinks
    run under the log lock — they must not themselves log.  A raising
    sink is ignored for that record. *)
val add_sink : string -> (record -> unit) -> unit

val remove_sink : string -> unit

(** Human-readable single-line rendering. *)
val pp_text : Format.formatter -> record -> unit

(** Text sink on stderr. *)
val stderr_text_sink : record -> unit

(** JSON-lines sink: one object per line, flushed per record (a live
    log file is greppable mid-run). *)
val json_line_sink : out_channel -> record -> unit

(** In-memory collector for tests: returns the sink and a function
    yielding everything it has seen, oldest first. *)
val memory_sink : unit -> (record -> unit) * (unit -> record list)

(** {1 JSON codec}

    [of_json (to_json r) = r] — property-tested round-trip. *)

val to_json : record -> Nested.Json.json

exception Decode_error of string

(** Raises {!Decode_error}. *)
val of_json : Nested.Json.json -> record
