(** Line-delimited JSON wire protocol of the why-not service.

    One request object per line in, one response object per line out.
    Queries travel as JSON strings in either surface syntax — the
    SQL-ish frontend ({!Frontend.Parse}) or s-expressions
    ({!Nrab.Parser}); the syntax is auto-detected (a first non-blank
    ['('] or [';'] means s-expression).  Why-not patterns use the NIP
    s-expression syntax ({!Whynot.Nip_syntax}).  Everything else is
    plain JSON via {!Nested.Json}.

    Requests ([op] field selects the operation):
    - [{"op":"register","dataset":"D1","scale":2,"seed":7,"refresh":false}]
    - [{"op":"explain","dataset":"D1","scale":2,"query":"SELECT ...",
       "whynot":"(...)","use_sas":true,"max_sas":16,"revalidate":true,
       "deadline_ms":500}] — [query]/[whynot] default to the scenario's
      own question; ["query_name":"..."] (exclusive with [query]) runs a
      query previously stored with [register_query].  Optional
      approximation knobs: ["budget_ms"] (degrade precision as the
      wall-clock budget burns), ["sample_stride"] (1-in-N sampled
      tracing), ["top_k"] (keep only the k best explanations) — any of
      them makes the response carry an ["approx"] report
    - [{"op":"parse","dataset":"D1","query":"SELECT ...","whynot":"(...)"}]
      — compile and typecheck against the dataset's schema without
      running anything; returns the canonical SQL, the s-expression
      form, the fingerprint, and the output type
    - [{"op":"register_query","name":"q1","dataset":"D1",
       "query":"SELECT ...","whynot":"(...)"}] — store a named query
      (and optional default pattern) for later [explain] requests
    - [{"op":"list_queries","dataset":"D1","scale":2}] — enumerate the
      stored queries (name, fingerprint, canonical SQL when printable,
      s-expression), sorted by name; without ["dataset"], every
      dataset's queries sorted by ⟨dataset, name⟩
    - [{"op":"stats"}]
    - [{"op":"telemetry","format":"prometheus"}] (or ["json"]) — metrics
      export
    - [{"op":"evict","dataset":"D1","scale":2}] /
      [{"op":"evict","cache":true}]
    - [{"op":"shutdown"}]

    Any request may carry an optional ["trace_id"] (1–64 chars of
    [A-Za-z0-9._:-]): the server adopts it as the request's trace
    context (all spans and log records it produces carry it) and echoes
    it as a trailing ["trace_id"] field on the response.  Requests
    without one get a server-generated id — used in logs, {e not}
    echoed, so id-less transcripts stay deterministic.

    Every response carries ["ok"] and ["type"]; failures are
    [{"ok":false,"type":"error","code":...,"message":...}] with code one
    of [bad_request], [invalid_query], [not_found], [overloaded],
    [deadline_exceeded], [internal].  An [invalid_query] error carries
    the frontend diagnostic (stage, position, snippet, hint) under
    ["details"]. *)

open Nested
open Nrab

type explain_options = {
  use_sas : bool;
  max_sas : int;
  revalidate : bool;
  sample_stride : int option;
      (** force 1-in-N sampled tracing (≥ 1); result-affecting, so part
          of the explanation-cache key *)
  top_k : int option;
      (** keep only the k best-ranked explanations (≥ 1);
          result-affecting, so part of the explanation-cache key *)
}

val default_options : explain_options

(** An explain query as it left the protocol layer: s-expressions are
    parsed eagerly (no schema needed), SQL text is compiled by the
    handler against the dataset's schema environment. *)
type query_text = [ `Ast of Query.t | `Sql of string ]

type request =
  | Register of { dataset : string; scale : int; seed : int; refresh : bool }
  | Explain of {
      dataset : string;
      scale : int;
      seed : int;
      query : query_text option;
      query_name : string option;  (** a [register_query]-stored query *)
      pattern : Whynot.Nip.t option;
      options : explain_options;
      deadline_ms : float option;
      budget_ms : float option;
          (** wall-clock approximation budget: the run degrades
              exact → sampled → top-k-only as it burns (it never aborts —
              that is [deadline_ms]'s job); result-affecting, so part of
              the explanation-cache key *)
    }
  | Parse of {
      dataset : string;
      scale : int;
      seed : int;
      query : string option;
      pattern : string option;
    }
  | Register_query of {
      name : string;
      dataset : string;
      scale : int;
      seed : int;
      query : string;
      pattern : string option;
    }
  | List_queries of {
      dataset : string option;  (** [None] lists every dataset's queries *)
      scale : int;
      seed : int;
    }
  | Stats
  | Telemetry of { format : [ `Prometheus | `Json ] }
  | Evict of {
      dataset : string option;  (** [None] with [cache] clears caches only *)
      scale : int;
      seed : int;
      cache : bool;  (** also clear the explanation + handle caches *)
    }
  | Shutdown

(** A request plus its optional client-supplied trace id. *)
type envelope = { req : request; trace_id : string option }

(** Parse one request line.  [Error] is a bad-request message. *)
val request_of_string : string -> (request, string) result

val request_of_json : Json.json -> (request, string) result

(** Like {!request_of_string}, also extracting (and validating — see
    {!Obs.Trace_context.is_valid}) the optional ["trace_id"] field. *)
val envelope_of_string : string -> (envelope, string) result

val envelope_of_json : Json.json -> (envelope, string) result

type error_code =
  | Bad_request
  | Invalid_query
      (** the query or pattern text failed to lex, parse, or typecheck *)
  | Not_found
  | Overloaded
  | Deadline_exceeded
  | Task_failed  (** a task's retry budget was exhausted mid-run *)
  | Internal

val error_code_to_string : error_code -> string

(** One stored query, as reported by [list_queries]. *)
type query_info = {
  q_name : string;  (** the name it was registered under *)
  q_dataset : string;
  q_fingerprint : string;  (** hex, id-insensitive *)
  q_sql : string option;  (** canonical SQL reprint, when printable *)
  q_sexp : string;  (** canonical s-expression form *)
}

type response =
  | Registered of {
      dataset : string;
      scale : int;
      seed : int;
      version : int;
      fresh : bool;  (** whether this call (re)generated the data *)
      rows : int;
      tables : (string * int) list;
    }
  | Explained of {
      dataset : string;
      version : int;
      cache : [ `Hit | `Miss | `Handle | `Coalesced ];
          (** [`Handle]: explanations were recomputed but the traced-run
              handle was reused, skipping re-tracing; [`Coalesced]: this
              request shared a concurrent identical request's execution
              (single-flight) *)
      result : Json.json;  (** {!Codec.result_to_json} payload *)
    }
  | Parsed of {
      dataset : string;
      sql : string option;
          (** canonical SQL reprint (absent for query-less requests) *)
      sexp : string option;  (** canonical s-expression form *)
      fingerprint : string option;  (** hex, id-insensitive *)
      output_type : string option;
      pattern : string option;  (** canonical pattern reprint *)
    }
  | Query_registered of {
      name : string;
      dataset : string;
      fingerprint : string;
      sql : string option;
      sexp : string;
      replaced : bool;  (** an earlier query of the same name was replaced *)
    }
  | Queries of {
      dataset : string option;  (** echoed filter, when one was given *)
      queries : query_info list;  (** sorted by ⟨dataset, name⟩ *)
    }
  | Stats_reply of (string * Json.json) list  (** named stat sections *)
  | Telemetry_reply of {
      format : [ `Prometheus | `Json ];
      metrics : Json.json;
          (** Prometheus: a [J_string] holding the text exposition;
              JSON: the {!Obs.Export.json} object *)
    }
  | Evicted of {
      datasets : int;
      cache_entries : int;
      queries : int;  (** registered queries dropped with the dataset *)
    }
  | Error of {
      code : error_code;
      message : string;
      details : Json.json option;
          (** for [Invalid_query]: the {!Frontend.Diagnostic.to_json}
              payload *)
    }
  | Goodbye

(** One line, no embedded newlines.  [?trace_id] (the id the client
    supplied, if any) is appended as a trailing ["trace_id"] field. *)
val response_to_string : ?trace_id:string -> response -> string

val response_to_json : ?trace_id:string -> response -> Json.json

(** Convenience constructors for error responses. *)
val bad_request : string -> response

val not_found : string -> response

(** An [Invalid_query] error from a frontend diagnostic: the one-line
    rendering as the message, the structured payload as details. *)
val invalid_query : source:string -> Frontend.Diagnostic.t -> response
