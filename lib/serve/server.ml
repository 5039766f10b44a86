(* The why-not explanation service.

   One server value owns a catalog, two LRU caches, two single-flight
   tables, and a scheduler:

   - explanation cache: key ⟨dataset key, version, options, alternatives,
     query, pattern⟩ → serialized result payload.  A hit costs a hash
     lookup; cached and freshly computed payloads are byte-identical
     (the payload is stored serialized).
   - handle cache: ⟨dataset key, version, query, alternatives⟩ →
     prepared Pipeline.handle (enumerated SAs, indexed ⟦Q⟧_D, shared
     blocks, and each SA's relaxed trace once an explain has computed
     it).  The prepare-handle key strips the knobs — every option
     variant of a query runs on a prefix of one handle's SAs, and only a
     max_sas above the default is prepared, and keyed, at that value.  A
     new pattern or option variant on a cached handle skips straight to
     the per-SA phases, and there to backtrace, consistency and MSR.
   - single-flight (Inflight) in front of both: N concurrent misses on
     one key share one computation — the leader runs the pipeline, the
     followers get the leader's payload and answer with
     "cache": "coalesced".

   Cache keys are prefixed with the dataset key + version, so evicting a
   dataset invalidates its entries by prefix, and a version bump
   (refresh) makes old entries unreachable without scanning.

   Robustness model of the socket transports:
   - per-connection faults (EPIPE on a write to a hung-up client, bad
     bytes, anything a connection thread raises) kill that connection
     only; they are counted in Obs.Metrics, never the server;
   - accept faults (EINTR, ECONNABORTED) are retried;
   - connections beyond [max_connections] are answered with a one-line
     overloaded error and closed;
   - a [shutdown] request stops the whole server gracefully: the accept
     loop stops accepting, open connections are nudged (their read side
     is shut down, so keep-alive clients get EOF after the in-flight
     request), and the listener closes once every connection drained. *)

open Nested

(* Chaos sites of the serve layer, registered up front so the
   chaos-coverage lint can enumerate them. *)
let site_explain = Obs.Faultinject.register_site "server.explain"
let site_write = Obs.Faultinject.register_site "server.write"
let site_read = Obs.Faultinject.register_site "server.read"
let site_accept = Obs.Faultinject.register_site "server.accept"

type config = {
  cache_capacity : int;
  handle_capacity : int;
  queue_capacity : int;
  default_deadline_ms : float option;
  task_retries : int;
  timings : bool;
  max_connections : int;
  max_request_bytes : int;
  slow_ms : float option;
  slo_ms : float option;
}

let default_config =
  {
    cache_capacity = 128;
    handle_capacity = 32;
    queue_capacity = 64;
    default_deadline_ms = None;
    task_retries = 0;
    timings = true;
    max_connections = 64;
    max_request_bytes = 1 lsl 20;
    slow_ms = None;
    slo_ms = None;
  }

(* Socket-transport lifecycle: the stop flag, the set of open connection
   fds (so a stop can nudge blocked readers), and the drain condition. *)
type lifecycle = {
  lmutex : Mutex.t;
  drained : Condition.t;
  mutable stopping : bool;
  mutable active_conns : int;
  mutable conn_fds : Unix.file_descr list;
}

(* A query stored by [register_query], keyed by dataset key + lowercase
   name.  The compiled AST is what a later explain runs — so a named
   explain is byte-identical to one over the same AST registered
   programmatically. *)
type registered_query = {
  rq_query : Nrab.Query.t;
  rq_pattern : Whynot.Nip.t option;  (* default pattern for explains *)
  rq_info : Protocol.query_info;  (* listing metadata, frozen at register *)
}

type t = {
  cfg : config;
  catalog : Catalog.t;
  queries : (string, registered_query) Hashtbl.t;
  qmutex : Mutex.t;  (* guards [queries] *)
  explain_cache : Json.json Cache.t;
  handle_cache : Whynot.Pipeline.handle Cache.t;
  explain_flight :
    ( Json.json
      * [ `Hit | `Miss | `Handle ]
      * ((string * float) list * int) option,
      (* the leader's own per-phase durations (ms) and retry count, for
         slow-query attribution — [None] on cache hits *)
      Scheduler.error )
    result
    Inflight.t;
  handle_flight : (Whynot.Pipeline.handle * bool) Inflight.t;
  scheduler : Scheduler.t;
  lifecycle : lifecycle;
  mutex : Mutex.t;  (* guards the per-server request counters *)
  mutable requests : int;
  mutable explains : int;
  mutable prepares : int;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    catalog = Catalog.create ();
    queries = Hashtbl.create 16;
    qmutex = Mutex.create ();
    explain_cache = Cache.create ~name:"explain" ~capacity:config.cache_capacity;
    handle_cache = Cache.create ~name:"handles" ~capacity:config.handle_capacity;
    explain_flight = Inflight.create ~name:"explain" ();
    handle_flight = Inflight.create ~name:"handles" ();
    scheduler =
      Scheduler.create ~queue_capacity:config.queue_capacity
        ?default_deadline_ms:config.default_deadline_ms ();
    lifecycle =
      {
        lmutex = Mutex.create ();
        drained = Condition.create ();
        stopping = false;
        active_conns = 0;
        conn_fds = [];
      };
    mutex = Mutex.create ();
    requests = 0;
    explains = 0;
    prepares = 0;
  }

let config t = t.cfg

let bump t f =
  Mutex.lock t.mutex;
  f t;
  Mutex.unlock t.mutex

(* -- lifecycle ----------------------------------------------------------- *)

let stopping t =
  let l = t.lifecycle in
  Mutex.lock l.lmutex;
  let s = l.stopping in
  Mutex.unlock l.lmutex;
  s

(* Stop accepting and nudge every open connection: shutting the read
   side down makes a reader blocked on an idle keep-alive connection see
   EOF, so the drain can finish without waiting on client goodwill.
   In-flight requests still complete — only further reads are cut. *)
let request_stop t =
  let l = t.lifecycle in
  Mutex.lock l.lmutex;
  let fds = if l.stopping then [] else l.conn_fds in
  l.stopping <- true;
  Mutex.unlock l.lmutex;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    fds

let register_conn t fd =
  let l = t.lifecycle in
  Mutex.lock l.lmutex;
  l.active_conns <- l.active_conns + 1;
  l.conn_fds <- fd :: l.conn_fds;
  Mutex.unlock l.lmutex

let forget_conn t fd =
  let l = t.lifecycle in
  Mutex.lock l.lmutex;
  l.active_conns <- l.active_conns - 1;
  l.conn_fds <- List.filter (fun fd' -> fd' <> fd) l.conn_fds;
  Condition.broadcast l.drained;
  Mutex.unlock l.lmutex

let active_connections t =
  let l = t.lifecycle in
  Mutex.lock l.lmutex;
  let n = l.active_conns in
  Mutex.unlock l.lmutex;
  n

(* -- keys ---------------------------------------------------------------- *)

let dataset_key (key : Catalog.key) =
  Fmt.str "%s@%d#%d" key.Catalog.name key.Catalog.scale key.Catalog.seed

let dataset_prefix key = dataset_key key ^ "/"

(* -- registered queries --------------------------------------------------- *)

let query_key (key : Catalog.key) name =
  dataset_prefix key ^ String.lowercase_ascii name

let find_query t key name =
  Mutex.lock t.qmutex;
  let rq = Hashtbl.find_opt t.queries (query_key key name) in
  Mutex.unlock t.qmutex;
  rq

let store_query t key name rq =
  let k = query_key key name in
  Mutex.lock t.qmutex;
  let replaced = Hashtbl.mem t.queries k in
  Hashtbl.replace t.queries k rq;
  Mutex.unlock t.qmutex;
  replaced

let registered_queries t =
  Mutex.lock t.qmutex;
  let n = Hashtbl.length t.queries in
  Mutex.unlock t.qmutex;
  n

(* Compile query text against a dataset's schema.  Diagnostics come
   back as the rendered [invalid_query] response. *)
let compile_query (entry : Catalog.entry) text :
    (Nrab.Query.t * Nested.Vtype.t, Protocol.response) result =
  let env = Catalog.schema_env entry in
  match Frontend.Compile.text ~env text with
  | Ok qt -> Ok qt
  | Error d -> Error (Protocol.invalid_query ~source:text d)

(* Parse a pattern and check it against the query's output type, so a
   structurally valid pattern that can never match is rejected at the
   door rather than yielding an empty explanation. *)
let compile_pattern text output_type :
    (Whynot.Nip.t, Protocol.response) result =
  match Whynot.Nip_syntax.parse text with
  | Error d -> Error (Protocol.invalid_query ~source:text d)
  | Ok nip -> (
    match output_type with
    | None -> Ok nip
    | Some ty -> (
      (* patterns describe one missing tuple, so check against the
         result's element type — exactly as Question.check_missing does *)
      match Whynot.Nip.check (Vtype.element ty) nip with
      | Ok () -> Ok nip
      | Error msg ->
        Error
          (Protocol.invalid_query ~source:text
             (Frontend.Diagnostic.make `Pattern
                (Fmt.str "pattern does not fit the query's output type: %s"
                   msg)))))

let fp_options (o : Protocol.explain_options) ~budget_ms : Fingerprint.options =
  {
    Fingerprint.use_sas = o.Protocol.use_sas;
    max_sas = o.Protocol.max_sas;
    revalidate = o.Protocol.revalidate;
    sample_stride = o.Protocol.sample_stride;
    top_k = o.Protocol.top_k;
    budget_ms;
  }

(* The SA cap a handle is prepared at: a request's SAs are a prefix of
   the default enumeration's unless it asks for more. *)
let prepared_max_sas (o : Protocol.explain_options) =
  if o.Protocol.use_sas then
    max o.Protocol.max_sas Protocol.default_options.Protocol.max_sas
  else Protocol.default_options.Protocol.max_sas

(* The prepare-handle key strips the knobs: no handle field depends on
   sampling, top-k, budget or [revalidate] (they act in the per-SA
   phases), and [explain_with] runs [use_sas = false] or a smaller
   [max_sas] on a prefix of the handle's SAs.  So every option variant
   of a query shares one handle, prepared with schema alternatives at
   [prepared_max_sas]; only a larger [max_sas] gets a handle of its
   own. *)
let handle_options (o : Protocol.explain_options) : Fingerprint.options =
  {
    Fingerprint.default_options with
    Fingerprint.max_sas = prepared_max_sas o;
  }

(* -- request handlers ---------------------------------------------------- *)

let handle_register t ~dataset ~scale ~seed ~refresh : Protocol.response =
  if refresh then begin
    (* version bump: entries for the old version are unreachable; drop
       them eagerly so they don't occupy LRU slots *)
    match Catalog.find t.catalog ~seed ~name:dataset ~scale () with
    | Some old ->
      let prefix = dataset_prefix old.Catalog.key in
      let matches k = String.starts_with ~prefix k in
      ignore (Cache.invalidate t.explain_cache matches);
      ignore (Cache.invalidate t.handle_cache matches)
    | None -> ()
  end;
  match Catalog.register t.catalog ~seed ~refresh ~name:dataset ~scale () with
  | Error msg -> Protocol.not_found msg
  | Ok (entry, fresh) ->
    Protocol.Registered
      {
        dataset = entry.Catalog.key.Catalog.name;
        scale = entry.Catalog.key.Catalog.scale;
        seed = entry.Catalog.key.Catalog.seed;
        version = entry.Catalog.version;
        fresh;
        rows = entry.Catalog.rows;
        tables = entry.Catalog.tables;
      }

(* The second component feeds the slow-query record: the leader's own
   per-phase durations and retry count when this request actually ran
   the pipeline, [None] for cache hits, coalesced followers, and
   errors. *)
let handle_explain t ~dataset ~scale ~seed ~query ~query_name ~pattern
    ~(options : Protocol.explain_options) ~deadline_ms ~budget_ms :
    Protocol.response * ((string * float) list * int) option =
  match Catalog.find t.catalog ~seed ~name:dataset ~scale () with
  | None ->
    ( Protocol.not_found
        (Fmt.str "dataset %S (scale %d, seed %d) is not registered — send a \
                  register request first" dataset scale seed),
      None )
  | Some entry -> (
    let inst = entry.Catalog.instance in
    let phi0 = inst.Scenarios.Scenario.question in
    (* Resolve the query: inline text (s-expression ASTs arrive parsed,
       SQL compiles here against the dataset's schema), a stored name,
       or the scenario's own question.  A stored query's default
       pattern applies when the request doesn't bring one. *)
    let resolved =
      match (query, query_name) with
      | Some _, Some _ ->
        Error
          (Protocol.bad_request
             "\"query\" and \"query_name\" are mutually exclusive")
      | Some (`Ast q), None -> Ok (q, None)
      | Some (`Sql text), None -> (
        match compile_query entry text with
        | Ok (q, _ty) -> Ok (q, None)
        | Error resp -> Error resp)
      | None, Some name -> (
        match find_query t entry.Catalog.key name with
        | Some rq -> Ok (rq.rq_query, rq.rq_pattern)
        | None ->
          Error
            (Protocol.not_found
               (Fmt.str "no query named %S is registered for dataset %s — \
                         send a register_query request first" name
                  (dataset_key entry.Catalog.key))))
      | None, None -> Ok (phi0.Whynot.Question.query, None)
    in
    match resolved with
    | Error resp -> (resp, None)
    | Ok (q, default_pattern) ->
    let missing =
      match (pattern, default_pattern) with
      | Some p, _ -> p
      | None, Some p -> p
      | None, None -> phi0.Whynot.Question.missing
    in
    let db = phi0.Whynot.Question.db in
    let alternatives = inst.Scenarios.Scenario.alternatives in
    let phi = Whynot.Question.make ~query:q ~db ~missing in
    (match Whynot.Question.check_missing phi with
    | Error msg ->
      (Protocol.bad_request ("invalid why-not question: " ^ msg), None)
    | Ok () ->
      let dskey = dataset_key entry.Catalog.key in
      let version = entry.Catalog.version in
      let fpo = fp_options options ~budget_ms in
      let prefix = dataset_prefix entry.Catalog.key in
      let ekey =
        prefix
        ^ Fingerprint.explain_key ~dataset:dskey ~version ~options:fpo
            ~alternatives q missing
      in
      bump t (fun t -> t.explains <- t.explains + 1);
      (match Cache.find t.explain_cache ekey with
      | Some payload ->
        ( Protocol.Explained
            { dataset = entry.Catalog.key.Catalog.name; version; cache = `Hit;
              result = payload },
          None )
      | None ->
        (* Single-flight: concurrent misses on this key share one
           computation.  The leader re-checks the cache (its miss may be
           stale by the time it wins leadership), then schedules the
           pipeline; followers just wait for the leader's outcome. *)
        (* The approximation budget starts burning now; Scheduler.submit
           re-anchors it at admission so queue wait counts against it. *)
        let approx_cfg =
          {
            Whynot.Approx.budget_ms;
            sample_stride = options.Protocol.sample_stride;
            top_k = options.Protocol.top_k;
          }
        in
        let budget =
          if Whynot.Approx.is_exact approx_cfg then None
          else Some (Whynot.Approx.start approx_cfg)
        in
        let job (cancel : Whynot.Cancel.t) =
          Obs.Faultinject.fire site_explain;
          let hkey =
            prefix
            ^ Fingerprint.prepare_key ~dataset:dskey ~version
                ~options:(handle_options options) ~alternatives q
          in
          let handle, reused_handle =
            match Cache.find t.handle_cache hkey with
            | Some h -> (h, true)
            | None -> (
              (* single-flight on the handle too: concurrent first
                 explains with distinct patterns over one query run
                 exactly one prepare *)
              let role, r =
                Inflight.run t.handle_flight hkey (fun () ->
                    match Cache.find t.handle_cache hkey with
                    | Some h -> (h, false)
                    | None ->
                      let h =
                        Whynot.Pipeline.prepare ~use_sas:true
                          ~max_sas:(prepared_max_sas options) ~alternatives
                          ~cancel ~retries:t.cfg.task_retries ~db q
                      in
                      bump t (fun t -> t.prepares <- t.prepares + 1);
                      Cache.add t.handle_cache hkey h;
                      (h, true))
              in
              match (role, r) with
              | _, Error e -> raise e
              | Inflight.Follower _, Ok (h, _) -> (h, true)
              | Inflight.Leader, Ok (h, fresh) -> (h, not fresh))
          in
          let result =
            Whynot.Pipeline.explain_with ?approx:budget
              ~use_sas:options.Protocol.use_sas
              ~max_sas:options.Protocol.max_sas
              ~revalidate:options.Protocol.revalidate ~cancel
              ~retries:t.cfg.task_retries
              handle missing
          in
          let payload = Codec.result_to_json ~timings:t.cfg.timings result in
          Cache.add t.explain_cache ekey payload;
          (* Retries leave an [attempt] attribute (= total attempts) on
             the retried phase spans — summed here into the run's retry
             count for the slow-query disposition. *)
          let retries =
            Obs.Span.fold
              (fun acc sp ->
                match Obs.Span.attr sp "attempt" with
                | Some (Obs.Span.Int n) -> acc + (n - 1)
                | _ -> acc)
              0 result.Whynot.Pipeline.span
          in
          let phases = Whynot.Pipeline.phase_durations_ms result in
          ( payload,
            (if reused_handle then `Handle else `Miss),
            Some (phases, retries) )
        in
        let role, outcome =
          Inflight.run t.explain_flight ekey (fun () ->
              match Cache.find t.explain_cache ekey with
              | Some payload -> Ok (payload, `Hit, None)
              | None -> Scheduler.run t.scheduler ?deadline_ms ?budget job)
        in
        (* A coalesced request names whose execution it rode — the one
           cross-trace edge a per-trace grep cannot see on its own. *)
        (match role with
        | Inflight.Follower { leader_trace = Some leader } ->
          Obs.Log.info "serve.coalesced" (fun () ->
              [ Obs.Log.str "leader_trace" leader ])
        | Inflight.Follower { leader_trace = None } ->
          Obs.Log.info "serve.coalesced" (fun () -> [])
        | Inflight.Leader -> ());
        (match outcome with
        | Error e -> raise e
        | Ok (Ok (payload, source, run_info)) ->
          let cache, run_info =
            match role with
            | Inflight.Follower _ -> (`Coalesced, None)
            | Inflight.Leader ->
              ((source :> [ `Hit | `Miss | `Handle | `Coalesced ]), run_info)
          in
          ( Protocol.Explained
              { dataset = entry.Catalog.key.Catalog.name; version; cache;
                result = payload },
            run_info )
        | Ok (Error (Scheduler.Overloaded _ as e)) ->
          ( Protocol.Error
              {
                code = Protocol.Overloaded;
                message = Scheduler.error_to_string e;
                details = None;
              },
            None )
        | Ok (Error (Scheduler.Deadline_exceeded _ as e)) ->
          ( Protocol.Error
              {
                code = Protocol.Deadline_exceeded;
                message = Scheduler.error_to_string e;
                details = None;
              },
            None )
        | Ok (Error (Scheduler.Faulted _ as e)) ->
          ( Protocol.Error
              { code = Protocol.Task_failed;
                message = Scheduler.error_to_string e;
                details = None },
            None )))))

(* Compile-and-typecheck without running anything: the dry-run behind
   query development against a registered dataset. *)
let handle_parse t ~dataset ~scale ~seed ~query ~pattern : Protocol.response =
  match Catalog.find t.catalog ~seed ~name:dataset ~scale () with
  | None ->
    Protocol.not_found
      (Fmt.str "dataset %S (scale %d, seed %d) is not registered — send a \
                register request first" dataset scale seed)
  | Some entry -> (
    let compiled =
      match query with
      | None -> Ok None
      | Some text -> (
        match compile_query entry text with
        | Ok (q, ty) -> Ok (Some (q, ty))
        | Error resp -> Error resp)
    in
    match compiled with
    | Error resp -> resp
    | Ok compiled -> (
      let output_type = Option.map (fun (_, ty) -> ty) compiled in
      let checked_pattern =
        match pattern with
        | None -> Ok None
        | Some text -> (
          match compile_pattern text output_type with
          | Ok nip -> Ok (Some nip)
          | Error resp -> Error resp)
      in
      match checked_pattern with
      | Error resp -> resp
      | Ok nip ->
        let env = Catalog.schema_env entry in
        let sql =
          Option.map
            (fun (q, _) ->
              try Some (Frontend.Print.to_sql ~env q)
              with Frontend.Print.Unprintable _ -> None)
            compiled
          |> Option.join
        in
        Protocol.Parsed
          {
            dataset = entry.Catalog.key.Catalog.name;
            sql;
            sexp =
              Option.map (fun (q, _) -> Nrab.Parser.query_to_string q) compiled;
            fingerprint =
              Option.map
                (fun (q, _) -> Fingerprint.to_hex (Fingerprint.query q))
                compiled;
            output_type = Option.map Vtype.to_string output_type;
            pattern = Option.map Whynot.Nip_syntax.to_string nip;
          }))

let handle_register_query t ~name ~dataset ~scale ~seed ~query ~pattern :
    Protocol.response =
  match Catalog.find t.catalog ~seed ~name:dataset ~scale () with
  | None ->
    Protocol.not_found
      (Fmt.str "dataset %S (scale %d, seed %d) is not registered — send a \
                register request first" dataset scale seed)
  | Some entry -> (
    match compile_query entry query with
    | Error resp -> resp
    | Ok (q, ty) -> (
      let checked_pattern =
        match pattern with
        | None -> Ok None
        | Some text -> (
          match compile_pattern text (Some ty) with
          | Ok nip -> Ok (Some nip)
          | Error resp -> Error resp)
      in
      match checked_pattern with
      | Error resp -> resp
      | Ok nip ->
        let env = Catalog.schema_env entry in
        let sql =
          try Some (Frontend.Print.to_sql ~env q)
          with Frontend.Print.Unprintable _ -> None
        in
        let fingerprint = Fingerprint.to_hex (Fingerprint.query q) in
        let sexp = Nrab.Parser.query_to_string q in
        let replaced =
          store_query t entry.Catalog.key name
            {
              rq_query = q;
              rq_pattern = nip;
              rq_info =
                {
                  Protocol.q_name = name;
                  q_dataset = entry.Catalog.key.Catalog.name;
                  q_fingerprint = fingerprint;
                  q_sql = sql;
                  q_sexp = sexp;
                };
            }
        in
        Protocol.Query_registered
          {
            name;
            dataset = entry.Catalog.key.Catalog.name;
            fingerprint;
            sql;
            sexp;
            replaced;
          }))

(* Enumerate the stored queries — per dataset when a name is given
   (prefix match on the dataset key, so other instances of the same
   scenario at different scales/seeds stay invisible), otherwise all of
   them.  Sorted by ⟨dataset, name⟩ for deterministic transcripts. *)
let handle_list_queries t ~dataset ~scale ~seed : Protocol.response =
  let collect pred =
    Mutex.lock t.qmutex;
    let qs =
      Hashtbl.fold
        (fun k rq acc -> if pred k then rq.rq_info :: acc else acc)
        t.queries []
    in
    Mutex.unlock t.qmutex;
    List.sort
      (fun (a : Protocol.query_info) (b : Protocol.query_info) ->
        match compare a.Protocol.q_dataset b.Protocol.q_dataset with
        | 0 -> compare a.Protocol.q_name b.Protocol.q_name
        | c -> c)
      qs
  in
  match dataset with
  | None -> Protocol.Queries { dataset = None; queries = collect (fun _ -> true) }
  | Some name -> (
    match Catalog.find t.catalog ~seed ~name ~scale () with
    | None ->
      Protocol.not_found
        (Fmt.str "dataset %S (scale %d, seed %d) is not registered — send a \
                  register request first" name scale seed)
    | Some entry ->
      let prefix = dataset_prefix entry.Catalog.key in
      Protocol.Queries
        {
          dataset = Some entry.Catalog.key.Catalog.name;
          queries = collect (String.starts_with ~prefix);
        })

let cache_stats_json (s : Cache.stats) =
  Json.J_object
    [
      ("hits", Json.J_int s.Cache.hits);
      ("misses", Json.J_int s.Cache.misses);
      ("evictions", Json.J_int s.Cache.evictions);
      ("size", Json.J_int s.Cache.size);
      ("capacity", Json.J_int s.Cache.capacity);
    ]

let inflight_stats_json (s : Inflight.stats) =
  Json.J_object
    [
      ("leaders", Json.J_int s.Inflight.leaders);
      ("coalesced", Json.J_int s.Inflight.coalesced);
      ("failures", Json.J_int s.Inflight.failures);
    ]

let latency_summary_json (h : Obs.Metrics.Histogram.t) =
  let s = Obs.Metrics.Histogram.summary h in
  Json.J_object
    [
      ("count", Json.J_int s.Obs.Metrics.Histogram.count);
      ("p50", Json.J_float s.Obs.Metrics.Histogram.p50);
      ("p95", Json.J_float s.Obs.Metrics.Histogram.p95);
      ("max", Json.J_float s.Obs.Metrics.Histogram.max);
    ]

let handle_stats t : Protocol.response =
  let sched = Scheduler.stats t.scheduler in
  let requests, explains, prepares =
    Mutex.lock t.mutex;
    let r = (t.requests, t.explains, t.prepares) in
    Mutex.unlock t.mutex;
    r
  in
  Protocol.Stats_reply
    [
      ( "server",
        Json.J_object
          [
            ("requests", Json.J_int requests);
            ("explains", Json.J_int explains);
            ("prepares", Json.J_int prepares);
            ("queries", Json.J_int (registered_queries t));
            ("connections", Json.J_int (active_connections t));
            ("max_connections", Json.J_int t.cfg.max_connections);
          ] );
      ( "catalog",
        Json.J_object
          [
            ("datasets", Json.J_int (Catalog.size t.catalog));
            ( "entries",
              Json.J_array
                (List.map
                   (fun (e : Catalog.entry) ->
                     Json.J_object
                       [
                         ("dataset", Json.J_string e.Catalog.key.Catalog.name);
                         ("scale", Json.J_int e.Catalog.key.Catalog.scale);
                         ("seed", Json.J_int e.Catalog.key.Catalog.seed);
                         ("version", Json.J_int e.Catalog.version);
                         ("rows", Json.J_int e.Catalog.rows);
                       ])
                   (Catalog.entries t.catalog)) );
          ] );
      ("cache", cache_stats_json (Cache.stats t.explain_cache));
      ("handles", cache_stats_json (Cache.stats t.handle_cache));
      ("inflight", inflight_stats_json (Inflight.stats t.explain_flight));
      ( "inflight_handles",
        inflight_stats_json (Inflight.stats t.handle_flight) );
      ( "scheduler",
        Json.J_object
          [
            ("submitted", Json.J_int sched.Scheduler.submitted);
            ("rejected", Json.J_int sched.Scheduler.rejected);
            ("completed", Json.J_int sched.Scheduler.completed);
            ("expired", Json.J_int sched.Scheduler.expired);
            ("faulted", Json.J_int sched.Scheduler.faulted);
            ("depth", Json.J_int sched.Scheduler.depth);
            ("capacity", Json.J_int sched.Scheduler.capacity);
          ] );
      ( "latency",
        (* histogram summaries of queue wait and end-to-end explain
           latency (find-or-create: all-zero before the first explain) *)
        Json.J_object
          [
            ( "sched_wait_ms",
              latency_summary_json (Obs.Metrics.histogram "serve.sched.wait_ms")
            );
            ( "explain_ms",
              latency_summary_json
                (Obs.Metrics.histogram "serve.explain.latency_ms") );
          ] );
    ]

let handle_evict t ~dataset ~scale ~seed ~cache : Protocol.response =
  let datasets, dropped_for_dataset, dropped_queries =
    match dataset with
    | None -> (0, 0, 0)
    | Some name -> (
      match Catalog.find t.catalog ~seed ~name ~scale () with
      | None -> (0, 0, 0)
      | Some entry ->
        let prefix = dataset_prefix entry.Catalog.key in
        let matches k = String.starts_with ~prefix k in
        let dropped =
          Cache.invalidate t.explain_cache matches
          + Cache.invalidate t.handle_cache matches
        in
        (* Registered queries live under the same dataset prefix; drop
           them with the dataset, or a later re-register of the same
           name would silently answer explains with queries compiled
           against the evicted instance. *)
        Mutex.lock t.qmutex;
        let stale =
          Hashtbl.fold
            (fun k _ acc -> if matches k then k :: acc else acc)
            t.queries []
        in
        List.iter (Hashtbl.remove t.queries) stale;
        Mutex.unlock t.qmutex;
        let removed = Catalog.evict t.catalog ~seed ~name ~scale () in
        ((if removed then 1 else 0), dropped, List.length stale))
  in
  let dropped_for_cache =
    if cache then Cache.clear t.explain_cache + Cache.clear t.handle_cache
    else 0
  in
  Protocol.Evicted
    {
      datasets;
      cache_entries = dropped_for_dataset + dropped_for_cache;
      queries = dropped_queries;
    }

let handle_telemetry (format : [ `Prometheus | `Json ]) : Protocol.response =
  let metrics =
    match format with
    | `Prometheus -> Json.J_string (Obs.Export.prometheus ())
    | `Json -> Obs.Export.json ()
  in
  Protocol.Telemetry_reply { format; metrics }

let op_name = function
  | Protocol.Register _ -> "register"
  | Protocol.Explain _ -> "explain"
  | Protocol.Parse _ -> "parse"
  | Protocol.Register_query _ -> "register_query"
  | Protocol.List_queries _ -> "list_queries"
  | Protocol.Stats -> "stats"
  | Protocol.Telemetry _ -> "telemetry"
  | Protocol.Evict _ -> "evict"
  | Protocol.Shutdown -> "shutdown"

(* How the request was answered, for the response/slow-query records:
   the cache disposition of an explain, or the error code. *)
let disposition = function
  | Protocol.Explained { cache; _ } ->
    Some
      (match cache with
      | `Hit -> "hit"
      | `Miss -> "miss"
      | `Handle -> "handle"
      | `Coalesced -> "coalesced")
  | Protocol.Error { code; _ } -> Some (Protocol.error_code_to_string code)
  | _ -> None

let dispatch t (req : Protocol.request) :
    Protocol.response * ((string * float) list * int) option =
  bump t (fun t -> t.requests <- t.requests + 1);
  try
    match req with
    | Protocol.Register { dataset; scale; seed; refresh } ->
      (handle_register t ~dataset ~scale ~seed ~refresh, None)
    | Protocol.Explain
        {
          dataset;
          scale;
          seed;
          query;
          query_name;
          pattern;
          options;
          deadline_ms;
          budget_ms;
        } ->
      handle_explain t ~dataset ~scale ~seed ~query ~query_name ~pattern
        ~options ~deadline_ms ~budget_ms
    | Protocol.Parse { dataset; scale; seed; query; pattern } ->
      (handle_parse t ~dataset ~scale ~seed ~query ~pattern, None)
    | Protocol.Register_query { name; dataset; scale; seed; query; pattern } ->
      (handle_register_query t ~name ~dataset ~scale ~seed ~query ~pattern, None)
    | Protocol.List_queries { dataset; scale; seed } ->
      (handle_list_queries t ~dataset ~scale ~seed, None)
    | Protocol.Stats -> (handle_stats t, None)
    | Protocol.Telemetry { format } -> (handle_telemetry format, None)
    | Protocol.Evict { dataset; scale; seed; cache } ->
      (handle_evict t ~dataset ~scale ~seed ~cache, None)
    | Protocol.Shutdown -> (Protocol.Goodbye, None)
  with e ->
    ( Protocol.Error
        {
          code = Protocol.Internal;
          message = Printexc.to_string e;
          details = None;
        },
      None )

let slo_ok_c = Obs.Metrics.counter "serve.slo.ok"
let slo_breach_c = Obs.Metrics.counter "serve.slo.breach"

(* Dispatch plus the request's telemetry: admission/response records,
   the per-op latency histogram, SLO burn counters, and the slow-query
   record with per-phase attribution. *)
let observe_request t (req : Protocol.request) :
    Protocol.response * ((string * float) list * int) option =
  let op = op_name req in
  Obs.Log.info "serve.request" (fun () -> [ Obs.Log.str "op" op ]);
  let t0 = Obs.Clock.now_ns () in
  let resp, run_info = dispatch t req in
  let ms = Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0) in
  Obs.Metrics.Histogram.observe
    (Obs.Metrics.histogram (Fmt.str "serve.%s.latency_ms" op))
    ms;
  let ok = match resp with Protocol.Error _ -> false | _ -> true in
  (* SLO burn accounting covers the ops that do pipeline work; an error
     (timeout, overload, fault) burns budget like a slow success *)
  (match t.cfg.slo_ms with
  | Some slo when op = "explain" ->
    Obs.Metrics.Counter.incr
      (if ms <= slo && ok then slo_ok_c else slo_breach_c)
  | _ -> ());
  let base_fields () =
    [ Obs.Log.str "op" op; Obs.Log.float "ms" ms; Obs.Log.bool "ok" ok ]
    @ (match disposition resp with
      | Some d -> [ Obs.Log.str "disposition" d ]
      | None -> [])
  in
  (match t.cfg.slow_ms with
  | Some threshold when ms >= threshold ->
    Obs.Metrics.Counter.incr (Obs.Metrics.counter "serve.slow_queries");
    Obs.Log.warn "serve.slow" (fun () ->
        base_fields ()
        @ [ Obs.Log.float "threshold_ms" threshold ]
        @
        match run_info with
        | None -> []
        | Some (phases, retries) ->
          Obs.Log.int "retries" retries
          :: List.map
               (fun (p, pms) -> Obs.Log.float ("phase." ^ p ^ "_ms") pms)
               phases)
  | _ -> ());
  Obs.Log.info "serve.response" (fun () -> base_fields ());
  (resp, run_info)

let handle_request t (req : Protocol.request) : Protocol.response =
  fst (observe_request t req)

let handle_line t line : string * bool =
  match Protocol.envelope_of_string line with
  | Error msg ->
    Obs.Log.warn "serve.badreq" (fun () -> [ Obs.Log.str "error" msg ]);
    (Protocol.response_to_string (Protocol.bad_request msg), false)
  | Ok { Protocol.req; trace_id } ->
    (* The request's trace context: the client's id when it sent one
       (validated in the protocol layer), a generated one otherwise.
       Every span and log record below here carries it.  Only
       client-supplied ids are echoed on the response — generated ids
       are a log-side affair, so id-less transcripts stay
       deterministic. *)
    let id =
      match trace_id with Some id -> id | None -> Obs.Trace_context.make ()
    in
    Obs.Trace_context.with_id id (fun () ->
        let resp, _ = observe_request t req in
        ( Protocol.response_to_string ?trace_id resp,
          req = Protocol.Shutdown ))

(* -- serving loops ------------------------------------------------------- *)

let conn_faults = Obs.Metrics.counter "serve.conn.faults"
let conn_rejected = Obs.Metrics.counter "serve.conn.rejected"
let accept_retries = Obs.Metrics.counter "serve.accept.retries"

(* input_line with a size bound: a line longer than [max_bytes] is
   consumed (so the stream stays line-synchronized) but reported as
   [`Too_long] instead of being buffered whole. *)
let read_line_bounded ic max_bytes =
  let buf = Buffer.create 256 in
  let rec go overflow =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 && not overflow then `Eof
      else if overflow then `Too_long
      else `Line (Buffer.contents buf)
    | '\n' -> if overflow then `Too_long else `Line (Buffer.contents buf)
    | _ when Buffer.length buf >= max_bytes -> go true
    | c ->
      Buffer.add_char buf c;
      go false
  in
  go false

let serve_channels t ic oc =
  let respond line =
    Obs.Faultinject.fire site_write;
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    if stopping t then ()
    else
      match read_line_bounded ic t.cfg.max_request_bytes with
      | `Eof -> ()
      | `Too_long ->
        respond
          (Protocol.response_to_string
             (Protocol.bad_request
                (Fmt.str "request exceeds the %d-byte limit"
                   t.cfg.max_request_bytes)));
        loop ()
      | `Line line ->
        let line = Obs.Faultinject.transform site_read line in
        if String.trim line = "" then loop ()
        else begin
          let resp, stop = handle_line t line in
          respond resp;
          if stop then request_stop t else loop ()
        end
  in
  loop ()

(* A connection thread must never kill the server: any escaping
   exception (EPIPE from a client hangup mid-write, bad bytes, a
   Sys_error from a vanished channel) is counted and swallowed; the
   connection is closed either way. *)
let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (try flush oc with Sys_error _ | Unix.Unix_error _ -> ());
      forget_conn t fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try serve_channels t ic oc
      with e ->
        Obs.Metrics.Counter.incr conn_faults;
        Obs.Log.debug "serve.connection_fault" (fun () ->
            [ Obs.Log.str "error" (Printexc.to_string e) ]))

let reject_connection fd =
  Obs.Metrics.Counter.incr conn_rejected;
  let line =
    Protocol.response_to_string
      (Protocol.Error
         {
           code = Protocol.Overloaded;
           message = "connection limit reached — retry later";
           details = None;
         })
  in
  (try
     ignore
       (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1) : int)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Accept until a shutdown request stops the server, then drain.  The
   listener is polled with a short timeout so the stop flag is observed
   without needing a final connection; transient accept faults (EINTR
   from a signal, ECONNABORTED from a client that gave up while queued)
   are retried, never fatal. *)
let accept_loop t sock =
  while not (stopping t) do
    match Unix.select [ sock ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      Obs.Metrics.Counter.incr accept_retries
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match
        Obs.Faultinject.fire site_accept;
        Unix.accept sock
      with
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        Obs.Metrics.Counter.incr accept_retries
      | fd, _addr ->
        if stopping t then
          try Unix.close fd with Unix.Unix_error _ -> ()
        else if active_connections t >= t.cfg.max_connections then
          reject_connection fd
        else begin
          register_conn t fd;
          ignore (Thread.create (fun () -> serve_connection t fd) ())
        end)
  done;
  (* drain: no new connections; wait for the open ones to finish their
     in-flight requests (request_stop already cut their read sides) *)
  let l = t.lifecycle in
  Mutex.lock l.lmutex;
  while l.active_conns > 0 do
    Condition.wait l.drained l.lmutex
  done;
  Mutex.unlock l.lmutex;
  try Unix.close sock with Unix.Unix_error _ -> ()

let serve_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  accept_loop t sock

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match
      Unix.getaddrinfo host ""
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
    with
    | exception _ -> Error (Fmt.str "cannot resolve host %S" host)
    | infos -> (
      let inet =
        List.find_map
          (fun (ai : Unix.addr_info) ->
            match ai.Unix.ai_addr with
            | Unix.ADDR_INET (a, _) -> Some a
            | _ -> None)
          infos
      in
      match inet with
      | Some a -> Ok a
      | None ->
        Error
          (Fmt.str "host %S did not resolve to an IPv4 address — use a \
                    numeric address" host)))

let serve_tcp ?(host = "127.0.0.1") t ~port =
  let addr =
    match resolve_host host with
    | Ok a -> a
    | Error msg -> failwith ("serve_tcp: " ^ msg)
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 64;
  accept_loop t sock
