(** The why-not explanation service: a dataset {!Catalog}, an LRU
    explanation {!Cache} plus a traced-run handle cache — each behind a
    single-flight {!Inflight} table — and a {!Scheduler} fanning
    execution over the shared {!Engine.Pool}, speaking the
    line-delimited JSON {!Protocol} over stdin/stdout or a Unix/TCP
    socket.

    Request flow for [explain]: resolve the dataset in the catalog (a
    typed [not_found] if it was never registered), look the full
    ⟨query, dataset version, pattern, options⟩ key up in the explanation
    cache, and on a miss enter single-flight on that key — concurrent
    identical requests share one pipeline execution (the followers
    answer with ["cache": "coalesced"]), and the leader schedules the
    run, reusing the pattern-independent {!Whynot.Pipeline.handle} for
    the same ⟨query, dataset version, options⟩ when one is cached (the
    handle is likewise single-flighted).  Deadlines cancel runs
    cooperatively mid-execution — see {!Scheduler}.

    Robustness model of the socket transports: per-connection faults
    (EPIPE on write, bad bytes) kill only that connection and are
    counted in [serve.conn.faults]; transient accept faults
    (EINTR/ECONNABORTED) are retried ([serve.accept.retries]);
    connections beyond [max_connections] get a one-line overloaded error
    ([serve.conn.rejected]); oversized request lines are answered with
    [bad_request] instead of being buffered; a [shutdown] request drains
    the server gracefully (stop accepting → cut idle readers → finish
    in-flight requests → close). *)

type config = {
  cache_capacity : int;  (** explanation cache entries (≤ 0 disables) *)
  handle_capacity : int;  (** traced-run handles kept (≤ 0 disables) *)
  queue_capacity : int;  (** scheduler admission bound *)
  default_deadline_ms : float option;
  task_retries : int;
      (** transient-fault retry budget per pipeline task (0 = fail
          fast); see {!Engine.Fault.retries} *)
  timings : bool;
      (** include wall-clock timings in responses; [false] makes
          responses fully deterministic (the smoke test diffs them) *)
  max_connections : int;
      (** socket transports: connections beyond this are answered with a
          one-line overloaded error and closed *)
  max_request_bytes : int;
      (** request lines longer than this answer [bad_request] instead of
          being buffered in full *)
  slow_ms : float option;
      (** requests at or above this latency emit a [serve.slow] Warn
          record with per-phase and cache/coalesce/retry attribution
          ([None] = off) *)
  slo_ms : float option;
      (** explain-latency SLO: each explain request increments
          [serve.slo.ok] or [serve.slo.breach] ([None] = off; error
          responses always count as breaches) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val config : t -> config

(** Handle one already-parsed request.  Never raises: pipeline and
    catalog failures come back as typed error responses. *)
val handle_request : t -> Protocol.request -> Protocol.response

(** Parse one request line, dispatch, serialize the response line (no
    trailing newline).  The second component is [true] when the request
    was [shutdown] and the session loop should end. *)
val handle_line : t -> string -> string * bool

(** Serve line-delimited requests until EOF, [shutdown], or
    {!request_stop}.  Responses are flushed after every line (the
    transcript is pipe-friendly:
    [printf '...' | whynot_server --stdio]). *)
val serve_channels : t -> in_channel -> out_channel -> unit

(** Listen on a Unix-domain socket (the path is unlinked first), one
    thread per connection.  Returns after a [shutdown] request (or
    {!request_stop}) has drained the open connections. *)
val serve_unix : t -> path:string -> unit

(** Listen on TCP [host:port] (default host 127.0.0.1; names are
    resolved via [getaddrinfo]).  One thread per connection; returns
    after a graceful shutdown like {!serve_unix}.  Raises [Failure] with
    a clear message when [host] does not resolve. *)
val serve_tcp : ?host:string -> t -> port:int -> unit

(** Resolve a numeric address or host name to an IPv4 address. *)
val resolve_host : string -> (Unix.inet_addr, string) result

(** Begin a graceful stop: the accept loop stops accepting, idle
    connection readers are cut (EOF), and the serve loops return once
    in-flight requests finish.  Idempotent; also triggered by a
    [shutdown] request on any connection. *)
val request_stop : t -> unit

(** True once {!request_stop} (or a [shutdown] request) happened. *)
val stopping : t -> bool

(** Open socket connections being served right now. *)
val active_connections : t -> int
