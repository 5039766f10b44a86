(* The traced run: each layer timed from outside, by calling its public
   functions in [Whynot.Pipeline]'s order under bench-side [Obs.Span]s.
   Nothing inside the program is instrumented for this; the composed
   result must equal [Whynot.Pipeline.explain]'s and the pin. *)

open Nested

let instances : (string * int, Scenarios.Scenario.instance) Hashtbl.t = Hashtbl.create 16

let make_instance name ~scale =
  match Scenarios.Registry.find name with
  | Some s -> s.Scenarios.Scenario.make ~scale ()
  | None -> failwith ("unknown scenario " ^ name)

let instance name ~scale =
  match Hashtbl.find_opt instances (name, scale) with
  | Some i -> i
  | None ->
    let i = make_instance name ~scale in
    Hashtbl.replace instances (name, scale) i;
    i

let approx_config (v : Workload.variant) =
  {
    Whynot.Approx.budget_ms = None;
    sample_stride = v.Workload.sample_stride;
    top_k = v.Workload.top_k;
  }

(* What the server computes for a key — prepare, then explain_with over
   the same options — which [Pipeline.explain] is documented to equal. *)
let pipeline_explain (inst : Scenarios.Scenario.instance) (v : Workload.variant) =
  let cfg = approx_config v in
  let approx =
    if Whynot.Approx.is_exact cfg then None else Some (Whynot.Approx.start cfg)
  in
  Whynot.Pipeline.explain ?approx ~use_sas:v.Workload.use_sas ~max_sas:v.Workload.max_sas
    ~revalidate:v.Workload.revalidate ~alternatives:inst.Scenarios.Scenario.alternatives
    inst.Scenarios.Scenario.question

let parse_fingerprint ~scale =
  let phi = (instance "RE" ~scale).Scenarios.Scenario.question in
  let env = Frontend.Compile.env_of_db phi.Whynot.Question.db in
  match Frontend.Compile.text ~env Workload.smoke_sql with
  | Ok (q, _) -> Serve.Fingerprint.to_hex (Serve.Fingerprint.query q)
  | Error d -> failwith (Frontend.Diagnostic.one_line ~source:Workload.smoke_sql d)

(* -- the composed request ---------------------------------------------------- *)

let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

(* One layer call under its own span, with the bytes it allocated.
   Spans are tiled over a cursor, each starting where the previous one
   ended (as the pipeline tiles its phase spans): the bench's bookkeeping
   between calls is charged to the next layer, and the layers' self
   times add up to the request span. *)
let layer cursor parent name f =
  let sp = Obs.Span.start ~parent ~at:!cursor name in
  let a0 = Gc.allocated_bytes () in
  let x = f () in
  Obs.Span.set_float sp "alloc_bytes" (Gc.allocated_bytes () -. a0);
  cursor := Obs.Clock.now_ns ();
  Obs.Span.finish ~at:!cursor sp;
  x

(* metric → span of each timed layer (codec encode is reported in us) *)
let layer_metrics =
  [
    ("whynot.alternatives_ms", "whynot.alternatives");
    ("whynot.backtrace_ms", "whynot.backtrace");
    ("whynot.tracing_ms", "whynot.tracing");
    ("whynot.msr_ms", "whynot.msr");
    ("whynot.rank_ms", "whynot.rank");
    ("engine.exec_ms", "engine.exec");
  ]

(* metric → request-span attribute of each count *)
let count_metrics =
  [
    ("whynot.sas", "sas");
    ("whynot.candidates", "candidates");
    ("whynot.consistent_roots", "consistent_roots");
    ("whynot.trace_rows", "trace_rows");
    ("engine.rows_out", "rows_out");
    ("engine.rows_shuffled", "rows_shuffled");
    ("engine.stages", "stages");
    ("engine.columnar.rows_scanned", "rows_scanned");
    ("engine.columnar.bytes_moved", "bytes_moved");
  ]

let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> []

(* Alternatives → ⟦Q⟧_D → per SA backtrace, tracing, MSR → prune + rank
   → encode, as the pipeline and the server's codec do it.  Returns the
   ranked explanations and the finished request span, whose attributes
   carry the counts. *)
let compose ~label (inst : Scenarios.Scenario.instance) (v : Workload.variant) =
  let phi = inst.Scenarios.Scenario.question in
  let db = phi.Whynot.Question.db and q = phi.Whynot.Question.query in
  let missing = phi.Whynot.Question.missing in
  let stride = Option.value v.Workload.sample_stride ~default:1 in
  let scanned0 = counter "engine.columnar.rows_scanned" in
  let moved0 = counter "engine.columnar.bytes_moved" in
  let root = Obs.Span.start label in
  let cursor = ref (Obs.Span.start_ns root) in
  let layer parent name f = layer cursor parent name f in
  let env, sas =
    layer root "whynot.alternatives" (fun () ->
        let env = Whynot.Pipeline.schema_env db in
        ( env,
          if v.Workload.use_sas then
            Whynot.Alternatives.enumerate ~max_sas:v.Workload.max_sas ~env q
              inst.Scenarios.Scenario.alternatives
          else
            [
              {
                Whynot.Alternatives.index = 0;
                query = q;
                changed_ops = Whynot.Msr.Int_set.empty;
                description = "original";
              };
            ] ))
  in
  let bi, stats =
    layer root "engine.exec" (fun () ->
        let rel, stats = Engine.Exec.run db q in
        ({ Whynot.Msr.original_result = Relation.tuples rel }, stats))
  in
  let per_sa =
    List.map
      (fun (sa : Whynot.Alternatives.sa) ->
        let sasp =
          Obs.Span.start ~parent:root ~at:!cursor
            ("sa:S" ^ string_of_int (sa.Whynot.Alternatives.index + 1))
        in
        let bt =
          layer sasp "whynot.backtrace" (fun () ->
              Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query missing)
        in
        let trace =
          layer sasp "whynot.tracing" (fun () ->
              Whynot.Tracing.run ~revalidate:v.Workload.revalidate ~sample_stride:stride
                ~env db sa bt)
        in
        let es, skipped =
          layer sasp "whynot.msr" (fun () ->
              let es, skipped =
                match v.Workload.top_k with
                | Some k -> Whynot.Msr.from_trace_topk ~sample_stride:stride ~bi ~q ~k trace
                | None -> (Whynot.Msr.from_trace ~sample_stride:stride ~bi ~q trace, 0)
              in
              let conf = Whynot.Explanation.with_confidence (1.0 /. float_of_int stride) in
              ((if stride > 1 then List.map conf es else es), skipped))
        in
        Obs.Span.finish ~at:!cursor sasp;
        (trace, es, skipped))
      sas
  in
  let candidates = List.concat_map (fun (_, es, _) -> es) per_sa in
  let ranked =
    layer root "whynot.rank" (fun () ->
        let r = Whynot.Explanation.rank (Whynot.Explanation.prune_dominated candidates) in
        match v.Workload.top_k with Some k -> take k r | None -> r)
  in
  let approx =
    if Whynot.Approx.is_exact (approx_config v) then None
    else
      Some
        {
          Whynot.Approx.mode =
            (if v.Workload.top_k <> None then "top_k"
             else if stride > 1 then "sampled"
             else "exact");
          confidence = 1.0 /. float_of_int stride;
          max_stride = stride;
          top_k = v.Workload.top_k;
          skipped = List.fold_left (fun acc (_, _, s) -> acc + s) 0 per_sa;
          budget_ms = None;
        }
  in
  let result =
    { Whynot.Pipeline.question = phi; sas; explanations = ranked; approx; span = root }
  in
  layer root "serve.codec.encode" (fun () ->
      ignore (Json.to_line (Serve.Codec.result_to_json result) : string));
  Obs.Span.finish ~at:!cursor root;
  (* counts, set after the span closed so their cost stays outside it *)
  let sum_sas f = List.fold_left (fun acc (t, _, _) -> acc + f t) 0 per_sa in
  List.iter
    (fun (name, n) -> Obs.Span.set_int root name n)
    [
      ("sas", List.length sas);
      ("candidates", List.length candidates);
      ("explanations", List.length ranked);
      ( "trace_rows",
        sum_sas (fun t ->
            List.fold_left
              (fun acc op -> acc + Whynot.Tracing.n_rows op)
              0 t.Whynot.Tracing.ops) );
      ( "consistent_roots",
        sum_sas (fun t -> List.length (Whynot.Msr.consistent_root_rids t)) );
      ("rows_out", Engine.Stats.total_output stats);
      ("rows_shuffled", Engine.Stats.total_shuffled stats);
      ("stages", Engine.Stats.stages stats);
      ("rows_scanned", counter "engine.columnar.rows_scanned" - scanned0);
      ("bytes_moved", counter "engine.columnar.bytes_moved" - moved0);
    ];
  (ranked, root)

(* Named values of one traced request, read off its span tree. *)
let request_values root ~untraced_ms =
  let ms name = Obs.Span.sum_duration_ms_named name root in
  let alloc name =
    Obs.Span.fold
      (fun acc sp ->
        match (Obs.Span.name sp = name, Obs.Span.attr sp "alloc_bytes") with
        | true, Some (Obs.Span.Float b) -> acc +. b
        | _ -> acc)
      0. root
  in
  let int name =
    match Obs.Span.attr root name with Some (Obs.Span.Int n) -> float_of_int n | _ -> nan
  in
  List.map (fun (_, span) -> (span, ms span)) layer_metrics
  @ [
      ("serve.codec.encode", ms "serve.codec.encode");
      ("total", Obs.Span.duration_ms root);
      ("untraced", untraced_ms);
      ("tracing_alloc", alloc "whynot.tracing");
      ("msr_alloc", alloc "whynot.msr");
      ("explanations", int "explanations");
    ]
  @ List.map (fun (_, attr) -> (attr, int attr)) count_metrics

(* -- the traced pass --------------------------------------------------------- *)

type pass = {
  per_key : (string * (string * float) list list) list;  (** key id → per-rep values *)
  roots : Obs.Span.t list;
  mismatches : string list;
  attempted : int;
}

let reps = 5

(* [reps] interleaved repetitions over every key: each rep runs the
   traced composition and an untraced [Pipeline.explain] + encode, in
   alternating order, and checks both against the pin. *)
let run_pass ~pins (keys : Workload.key list) =
  let per_key = Hashtbl.create 64 and roots = ref [] and mismatches = ref [] in
  let attempted = ref 0 in
  let expect id what es =
    incr attempted;
    if Pins.canonical es <> Pins.find pins id then
      mismatches := Fmt.str "%s: %s differs from the pin" id what :: !mismatches
  in
  for rep = 1 to reps do
    List.iter
      (fun (k : Workload.key) ->
        let id = Workload.key_id k in
        let inst = instance k.Workload.scenario ~scale:k.Workload.scale in
        let v = k.Workload.variant in
        let untraced () =
          let t0 = Obs.Clock.now_ns () in
          let r = pipeline_explain inst v in
          ignore (Json.to_line (Serve.Codec.result_to_json r) : string);
          let ms = Wire.ms_since t0 in
          expect id "Pipeline.explain" r.Whynot.Pipeline.explanations;
          ms
        in
        let traced () =
          let es, root = compose ~label:(Fmt.str "request %s #%d" id rep) inst v in
          expect id "the traced composition" es;
          root
        in
        let untraced_ms, root =
          if rep mod 2 = 1 then
            let root = traced () in
            (untraced (), root)
          else
            let ms = untraced () in
            (ms, traced ())
        in
        roots := root :: !roots;
        let prev = Option.value (Hashtbl.find_opt per_key id) ~default:[] in
        Hashtbl.replace per_key id (request_values root ~untraced_ms :: prev))
      keys
  done;
  {
    per_key =
      List.map
        (fun k ->
          let id = Workload.key_id k in
          (id, Hashtbl.find per_key id))
        keys;
    roots = List.rev !roots;
    mismatches = List.rev !mismatches;
    attempted = !attempted;
  }

(* -- serve-side replays -------------------------------------------------------- *)

(* Microseconds per operation of [f] over [n] operations: the median of
   three timed replays, each under a span. *)
let replay ~roots name n f =
  let once () =
    let sp = Obs.Span.start name in
    f ();
    Obs.Span.finish sp;
    Obs.Span.set_int sp "ops" n;
    roots := sp :: !roots;
    Obs.Clock.ns_to_us (Obs.Span.duration_ns sp) /. float_of_int (max 1 n)
  in
  Report.median [ once (); once (); once () ]

let fp_options (v : Workload.variant) =
  {
    Serve.Fingerprint.use_sas = v.Workload.use_sas;
    max_sas = v.Workload.max_sas;
    revalidate = v.Workload.revalidate;
    sample_stride = v.Workload.sample_stride;
    top_k = v.Workload.top_k;
    budget_ms = None;
  }

(* A key's explain-cache key, as the server forms it: the dataset
   prefix, then the fingerprint. *)
let cache_key (k : Workload.key) =
  let inst = instance k.Workload.scenario ~scale:k.Workload.scale in
  let phi = inst.Scenarios.Scenario.question in
  let dataset = Fmt.str "%s@%d#0" k.Workload.scenario k.Workload.scale in
  dataset ^ "/"
  ^ Serve.Fingerprint.explain_key ~dataset ~version:1
      ~options:(fp_options k.Workload.variant)
      ~alternatives:inst.Scenarios.Scenario.alternatives phi.Whynot.Question.query
      phi.Whynot.Question.missing

(* Decode, fingerprint and cache replays over the workload's own request
   stream; the cache runs at the server's capacity.  Also returns how
   many lines failed to decode. *)
let serve_replays ~roots (w : Workload.t) ~keys (stream : Workload.request array) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace by_id (Workload.key_id k) k) keys;
  let lines = Array.map (fun r -> r.Workload.line) stream in
  let explain_keys =
    Array.of_seq
      (Seq.filter_map
         (fun (r : Workload.request) ->
           match r.Workload.check with
           | Workload.Explanations id -> Hashtbl.find_opt by_id id
           | Workload.Fingerprint _ -> None)
         (Array.to_seq stream))
  in
  let bad = ref 0 in
  let decode_us =
    replay ~roots "serve.protocol.decode" (Array.length lines) (fun () ->
        Array.iter
          (fun l -> if Result.is_error (Serve.Protocol.envelope_of_string l) then incr bad)
          lines)
  in
  let key_us =
    replay ~roots "serve.fingerprint.key" (Array.length explain_keys) (fun () ->
        Array.iter (fun k -> ignore (cache_key k : string)) explain_keys)
  in
  let cache_keys = Array.map cache_key explain_keys in
  let find_us =
    replay ~roots "serve.cache.find" (Array.length cache_keys) (fun () ->
        let c = Serve.Cache.create ~name:"wirebench" ~capacity:w.Workload.cache_capacity in
        Array.iter
          (fun k -> if Serve.Cache.find c k = None then Serve.Cache.add c k ())
          cache_keys)
  in
  ( [
      ("serve.protocol.decode_us", decode_us);
      ("serve.fingerprint.key_us", key_us);
      ("serve.cache.find_us", find_us);
    ],
    !bad )

(* The SQL each of the workload's queries reprints to (where printable),
   plus the smoke transcript's SQL on the mixed workload, compiled
   against its scenario's schema.  Also returns the failed compiles. *)
let compile_us ~roots (w : Workload.t) ~scale =
  let question s = (instance s ~scale).Scenarios.Scenario.question in
  let env_of s = Frontend.Compile.env_of_db (question s).Whynot.Question.db in
  let texts =
    List.filter_map
      (fun s ->
        let env = env_of s in
        match Frontend.Print.to_sql ~env (question s).Whynot.Question.query with
        | sql -> Some (env, sql)
        | exception Frontend.Print.Unprintable _ -> None)
      w.Workload.scenarios
    @
    match w.Workload.shape with
    | Workload.Mixed -> [ (env_of "RE", Workload.smoke_sql) ]
    | Workload.Cold -> []
  in
  let passes = 20 and bad = ref 0 in
  let us =
    replay ~roots "frontend.compile" (passes * List.length texts) (fun () ->
        for _ = 1 to passes do
          List.iter
            (fun (env, sql) ->
              if Result.is_error (Frontend.Compile.text ~env sql) then incr bad)
            texts
        done)
  in
  (us, !bad)

(* The workload's datasets generated in-process: the median over three
   rounds of the summed per-scenario time.  The last round's instances
   are the ones the traced pass uses. *)
let make_ms ~roots (w : Workload.t) ~scale =
  let round () =
    let sp = Obs.Span.start "scenarios.make" in
    List.iter
      (fun s ->
        Obs.Span.with_ ~parent:sp s (fun _ -> make_instance s ~scale)
        |> Hashtbl.replace instances (s, scale))
      w.Workload.scenarios;
    Obs.Span.finish sp;
    roots := sp :: !roots;
    Obs.Span.duration_ms sp
  in
  Report.median [ round (); round (); round () ]
