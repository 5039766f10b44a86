(* Algorithm 1: the four-step heuristic why-not pipeline.

     1. schema backtracing          (Backtrace)
     2. schema alternatives         (Alternatives)
     3. data tracing                (Tracing)
     4. approximate MSRs            (Msr)

   [explain ~use_sas:false] is the paper's RPnoSA configuration (only the
   original schema alternative); [explain] with alternatives is RP. *)

open Nested
open Nrab

type result = {
  question : Question.t;
  sas : Alternatives.sa list;
  explanations : Explanation.t list;
  approx : Approx.report option;
  span : Obs.Span.t;
}

let schema_env = Eval.schema_env

let phases = [ "backtrace"; "alternatives"; "tracing"; "msr" ]

let phase_durations_ms_of_span span =
  List.map (fun p -> (p, Obs.Span.sum_duration_ms_named p span)) phases

(* A tiled phase runner over an explicit cursor: each phase span starts
   at the previous one's end, so span bookkeeping (and GC pauses hitting
   it) is charged to a phase rather than falling into gaps.  The
   sequential pipeline threads one cursor through everything; the
   parallel pipeline gives each schema alternative its own. *)
let phase_at cursor parent name f =
  let sp = Obs.Span.start ~parent ~at:!cursor name in
  let bytes0 = Gc.allocated_bytes () in
  let minors0 = (Gc.quick_stat ()).Gc.minor_collections in
  Fun.protect
    ~finally:(fun () ->
      (* allocation pressure per phase, for the bench's alloc columns;
         [allocated_bytes] is per-domain but phases run on the domain
         that started them, so the delta is the phase's own *)
      Obs.Span.set_float sp "alloc_bytes" (Gc.allocated_bytes () -. bytes0);
      Obs.Span.set_int sp "minor_collections"
        ((Gc.quick_stat ()).Gc.minor_collections - minors0);
      cursor := Obs.Clock.now_ns ();
      Obs.Span.finish ~at:!cursor sp;
      (* One Debug record per phase completion — with the ambient
         trace_id stamped on it, a grep over the log stream replays a
         request's per-phase path without walking the span tree. *)
      Obs.Log.debug "pipeline.phase" (fun () ->
          [
            Obs.Log.str "phase" name;
            Obs.Log.float "ms" (Obs.Span.duration_ms sp);
          ]))
    (fun () -> f sp)

(* Phase bodies are retryable tasks, re-run up to [retries] times: a
   body that raises {!Engine.Fault.Transient} is recomputed from its
   (immutable) inputs — the database, the query, the backtrace — so a
   re-attempt is exact.  Cancellation composes: [Cancel.Cancelled] is a
   permanent fault (never retried), and the abort hook is polled before
   every re-attempt so a cancelled run stops instead of burning its
   retry budget.  Retried attempts mark the phase span with an
   [attempt] attribute. *)
let protect_phase ~retries ~cancel ~task sp f =
  Engine.Fault.protect ~retries ~task
    ~abort:(fun () ->
      if Cancel.cancelled cancel then Some (Cancel.Cancelled task) else None)
    ~on_retry:(fun ~attempt _ -> Obs.Span.set_int sp "attempt" attempt)
    f

(* One guarded phase: poll the cancellation token — the pipeline's
   preemption point — then run [f] as phase [name] under [parent], in
   its retry scope, attributed to the task [prefix ^ name]. *)
let guarded_phase ~retries ~cancel cursor ~prefix parent name f =
  Cancel.check cancel ~where:name;
  phase_at cursor parent name (fun sp ->
      protect_phase ~retries ~cancel ~task:(prefix ^ name) sp (fun () -> f sp))

(* Submit [f] to the shared pool under [sp], a span started on the
   calling domain (so its order under the root is deterministic) and
   finished by the job, which records how long it sat in the queue and
   passes [f] the time it started.  Dequeue-edge abort: a job queued
   behind slow work is reclaimed without running once the run is
   cancelled. *)
let submit_spanned ~cancel sp f =
  let abort () =
    if Cancel.cancelled cancel then begin
      Obs.Span.set_bool sp "aborted" true;
      Obs.Span.finish sp;
      Some (Cancel.Cancelled "pool.dequeue")
    end
    else None
  in
  Engine.Pool.submit ~abort (Engine.Pool.default ()) (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Span.finish sp)
        (fun () ->
          let started = Obs.Clock.now_ns () in
          Obs.Span.set_float sp "queued_ms"
            (Obs.Clock.ns_to_ms (started - Obs.Span.start_ns sp));
          f started))

(* A prepared traced run: the pattern-independent artifacts of a why-not
   run over ⟨Q, D⟩.  Schema-alternative enumeration, the original result
   ⟦Q⟧_D (the anchor of the side-effect bounds), the trace of the
   subtrees no SA changes and each SA's relaxed evaluation depend only on
   the query, the database, and the alternative groups — not on the
   missing-answer pattern — so a long-lived service can compute them
   once and re-answer every new pattern on the same ⟨Q, D⟩ from the
   handle.  Only the enumeration runs in [prepare]; the rest sits in
   set-once slots filled by the first explain that needs them, and a
   race computes a (pure) value twice and keeps one. *)
type handle = {
  h_query : Query.t;
  h_db : Relation.Db.t;
  h_env : Typecheck.env;
  h_max_sas : int;  (* the enumeration cap; 1 without schema alternatives *)
  h_sas : Alternatives.sa list;
  h_original : Engine.Columnar.row_index option Atomic.t;
      (* ⟦Q⟧_D, hashed once, set by the first pool job that completes it *)
  h_shared : Tracing.shared option Atomic.t;
      (* set by the first explain that evaluates more than one SA *)
  h_relaxed : (Tracing.relaxed * Msr.matches) option Atomic.t array;
      (* SA [i]'s relaxed evaluation and its root rows matched against
         ⟦Q⟧_D, set by the first chain that completes them *)
}

let handle_sas h = h.h_sas

(* The one SA of a run without schema alternatives: the query itself. *)
let original_sa q =
  {
    Alternatives.index = 0;
    query = q;
    changed_ops = Msr.Int_set.empty;
    description = "original";
  }

let rec take k = function
  | x :: tl when k > 0 -> x :: take (k - 1) tl
  | _ -> []

(* The SAs a run with [use_sas] and [max_sas] would enumerate, as a
   prefix of the handle's: enumeration is a fixed order truncated at
   [max_sas], and its SA 0 is the query itself.  A handle whose
   enumeration stopped at its cap holds no SA beyond it. *)
let handle_prefix h ~use_sas ~max_sas =
  if not use_sas then
    match h.h_sas with
    | sa :: _ when sa = original_sa h.h_query -> [ sa ]
    | _ -> invalid_arg "Pipeline.explain_with: the handle has no original SA"
  else if max_sas > h.h_max_sas && List.length h.h_sas >= h.h_max_sas then
    invalid_arg
      (Fmt.str "Pipeline.explain_with: max_sas %d exceeds the handle's %d"
         max_sas h.h_max_sas)
  else take max_sas h.h_sas

(* Step 2 (schema alternatives) under [root], into a handle whose slots
   are all empty; step 1 (backtracing) runs per SA since the NIPs depend
   on the substituted attributes. *)
let prepare_phases ~use_sas ~max_sas ~alternatives ~cancel ~retries root cursor
    ~db q : handle =
  let env, sas =
    guarded_phase ~retries ~cancel cursor ~prefix:"prepare/" root
      "alternatives" (fun sp ->
        let env = schema_env db in
        let sas =
          if use_sas then Alternatives.enumerate ~max_sas ~env q alternatives
          else [ original_sa q ]
        in
        Obs.Span.set_int sp "sas" (List.length sas);
        (env, sas))
  in
  {
    h_query = q;
    h_db = db;
    h_env = env;
    h_max_sas = (if use_sas then max_sas else 1);
    h_sas = sas;
    h_original = Atomic.make None;
    h_shared = Atomic.make None;
    h_relaxed = Array.init (List.length sas) (fun _ -> Atomic.make None);
  }

(* ⟦Q⟧_D, the basis of the side-effect bounds, as one job on the shared
   pool under an [msr.original] span: nothing needs it before an SA's
   matching, so it runs beside the share and the SA chains, and each
   chain awaits it right before {!Msr.matches}.  Evaluated on the engine
   rather than the reference interpreter: the results are identical and
   the engine is an order of magnitude faster on the bench scales.  The
   bounds only count the rows and test membership, so they keep the
   engine's batch as it comes, without the relation's canonical sort or
   a row tree, hashed once into the index each SA's root rows are
   matched against.  The engine does not retry: a transient fault in the
   run propagates unwrapped, and the job's retry scope, attributed as
   [prepare/msr], replays the whole of ⟦Q⟧_D.  The job publishes the
   index to the handle's slot only when its run completes uncancelled,
   so a failed or cancelled job leaves the slot for the next explain. *)
let submit_original ~cancel ~retries root h =
  let sp = Obs.Span.start ~parent:root "msr.original" in
  submit_spanned ~cancel sp (fun _ ->
      let index =
        protect_phase ~retries ~cancel ~task:"prepare/msr" sp (fun () ->
            let original = fst (Engine.Exec.rows ~parent:sp h.h_db h.h_query) in
            Obs.Span.set_int sp "original_result_rows"
              (Engine.Columnar.length original);
            let t0 = Obs.Clock.now_ns () in
            let index = Engine.Columnar.row_index original in
            Obs.Span.set_int sp "index_us" ((Obs.Clock.now_ns () - t0) / 1000);
            index)
      in
      Cancel.check cancel ~where:"msr.original";
      ignore (Atomic.compare_and_set h.h_original None (Some index) : bool);
      index)

(* The SA-invariant subtrees, traced once for all of the handle's SAs on
   the calling domain (while ⟦Q⟧_D's job runs on the pool) under a
   [tracing.shared] span, and published to the handle's slot.  The span
   is no phase: the cursor moves past it, so the phases still tile no
   more than the run.  Retries are attributed as [prepare/tracing]. *)
let share_into ~cancel ~retries root cursor h =
  Cancel.check cancel ~where:"tracing.shared";
  let sp = Obs.Span.start ~parent:root ~at:!cursor "tracing.shared" in
  Fun.protect
    ~finally:(fun () ->
      cursor := Obs.Clock.now_ns ();
      Obs.Span.finish ~at:!cursor sp)
    (fun () ->
      let shared =
        protect_phase ~retries ~cancel ~task:"prepare/tracing" sp (fun () ->
            Tracing.share ~env:h.h_env h.h_db h.h_sas)
      in
      Obs.Span.set_int sp "shared_blocks" (Tracing.shared_blocks shared);
      Obs.Span.set_int sp "shared_rows" (Tracing.shared_rows shared);
      let kept, pruned = Tracing.shared_columns shared in
      Obs.Span.set_int sp "columns_kept" kept;
      Obs.Span.set_int sp "columns_pruned" pruned;
      ignore (Atomic.compare_and_set h.h_shared None (Some shared) : bool))

let m_relaxed_reuses = Obs.Metrics.counter "whynot.tracing.relaxed_reuses"

(* SA [sa]'s relaxed evaluation, read from its slot or computed, passed
   to [annotate], and its matches against ⟦Q⟧_D.  An evaluation computed
   here is annotated first, and only then does [original] wait for
   ⟦Q⟧_D: the wait goes on [sp] as [original_wait_us], the part of it
   spent running other pool jobs as [helped_us].  The matching's time
   goes on [sp] as [match_us], its verified hash hits as
   [match_verified], and the pair is published to the slot.
   Runs inside the tracing phase's retry scope, so a faulted or cancelled
   evaluation raises before it publishes. *)
let relaxed_of h ~original (sa : Alternatives.sa) sp annotate =
  let slot = h.h_relaxed.(sa.Alternatives.index) in
  match Atomic.get slot with
  | Some (r, m) ->
    Obs.Metrics.Counter.incr m_relaxed_reuses;
    (annotate r, m, true)
  | None ->
    let r =
      Tracing.relax ?shared:(Atomic.get h.h_shared) ~env:h.h_env h.h_db sa
    in
    let trace = annotate r in
    let helped = ref 0 and t0 = Obs.Clock.now_ns () in
    let index = original ~helped in
    let t1 = Obs.Clock.now_ns () in
    Obs.Span.set_int sp "original_wait_us" ((t1 - t0) / 1000);
    Obs.Span.set_int sp "helped_us" (!helped / 1000);
    let t0 = t1 in
    let data, surviving = Tracing.relaxed_root r in
    let m = Msr.matches index data surviving in
    Obs.Span.set_int sp "match_us" ((Obs.Clock.now_ns () - t0) / 1000);
    Obs.Span.set_int sp "match_verified" m.Msr.verified;
    ignore (Atomic.compare_and_set slot None (Some (r, m)) : bool);
    (trace, m, false)

(* Steps 1, 3, and 4 — the pattern-dependent per-SA chains plus the final
   prune/rank — under [root], reading everything else from the handle. *)
let run_phases ?approx ~revalidate ~cancel ~retries root cursor
    (h : handle) (sas : Alternatives.sa list) (missing : Nip.t) :
    Explanation.t list * Approx.report option =
  let phase parent name f = phase_at cursor parent name f in
  let { h_query = q; h_env = env; _ } = h in
  (* Only the SAs whose relaxed slot is empty need ⟦Q⟧_D and the shared
     blocks.  ⟦Q⟧_D's job is queued first, so the pool's worker runs it
     while this domain traces the shared blocks, and the SA chains queue
     behind it. *)
  let pending =
    List.filter
      (fun (sa : Alternatives.sa) ->
        Option.is_none (Atomic.get h.h_relaxed.(sa.Alternatives.index)))
      sas
  in
  let job =
    if pending = [] || Option.is_some (Atomic.get h.h_original) then None
    else Some (submit_original ~cancel ~retries root h)
  in
  let original ~helped =
    match job with
    | Some job -> Engine.Pool.await ~helped job
    | None ->
      (* the slot was filled, or no chain of this run calls [original] *)
      Option.get (Atomic.get h.h_original)
  in
  (* Every exit, a raise included, waits for the job, whose span is a
     child of [root]. *)
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun job -> try ignore (Engine.Pool.await job) with _ -> ())
        job)
  @@ fun () ->
  if
    List.compare_length_with pending 1 > 0
    && Option.is_none (Atomic.get h.h_shared)
  then share_into ~cancel ~retries root cursor h;
  (* One SA's backtrace→tracing→MSR chain; independent across SAs.  The
     cancellation token is polled before every phase — the pipeline's
     preemption points, so a lapsed deadline is observed within one
     phase of where the run currently is.  Returns the SA's candidate
     explanations plus the approximation decision it ran under (stride 1 /
     no top-k on the exact path). *)
  let process_sa cursor (sa : Alternatives.sa) sasp =
    let prefix = Fmt.str "sa:S%d/" (sa.Alternatives.index + 1) in
    let checked name f =
      guarded_phase ~retries ~cancel cursor ~prefix sasp name f
    in
    let bt =
      checked "backtrace" (fun _ ->
          Backtrace.run ~env sa.Alternatives.query missing)
    in
    (* The degradation decision is taken right before tracing, so each
       SA sees how much budget its predecessors left it. *)
    let decision =
      match approx with
      | None -> { Approx.stride = 1; top_k = None }
      | Some a -> Approx.decide a
    in
    (* steps 3 and 4 *)
    let trace, matches =
      checked "tracing" (fun sp ->
          if decision.Approx.stride > 1 then
            Obs.Span.set_int sp "sample_stride" decision.Approx.stride;
          let trace, matches, reused =
            relaxed_of h ~original sa sp (fun relaxed ->
                Tracing.annotate ~revalidate
                  ~sample_stride:decision.Approx.stride relaxed bt)
          in
          Obs.Span.set_bool sp "relaxed_reused" reused;
          (trace, matches))
    in
    checked "msr" (fun msp ->
        let es, skipped, terms =
          Msr.explain ~span:msp ~sample_stride:decision.Approx.stride
            ?top_k:decision.Approx.top_k ~matches ~q trace
        in
        Obs.Span.set_int msp "original_rows" terms.Msr.original_rows;
        Obs.Span.set_int msp "surviving" terms.Msr.surviving;
        Obs.Span.set_int msp "matched" terms.Msr.matched;
        Obs.Span.set_int msp "ub_minus" terms.Msr.ub_minus;
        let es =
          if decision.Approx.stride > 1 then
            List.map
              (Explanation.with_confidence
                 (1.0 /. float_of_int decision.Approx.stride))
              es
          else es
        in
        Obs.Span.set_int msp "candidates" (List.length es);
        if skipped > 0 then Obs.Span.set_int msp "skipped_candidates" skipped;
        (es, decision, skipped))
  in
  let sa_name (sa : Alternatives.sa) =
    Fmt.str "sa:S%d" (sa.Alternatives.index + 1)
  in
  (* Exact multi-SA runs fan the SAs out over the shared domain pool.  A
     wall-clock budget keeps the sequential path: there each SA's
     degradation decision depends on how much budget its predecessors
     left it, so the SAs are not independent. *)
  let parallel =
    List.length sas > 1
    &&
    match approx with
    | None -> true
    | Some a -> (Approx.config a).Approx.budget_ms = None
  in
  let per_sa =
    if parallel then begin
      (* Each sa:S<i> job tiles its three child phases with a cursor
         of its own.  Results are awaited in SA order, so the
         concatenated candidate list — and hence the final ranking — is
         identical to the sequential composition's. *)
      Obs.Span.set_bool root "parallel_sas" true;
      let futures =
        List.map
          (fun (sa : Alternatives.sa) ->
            let sasp = Obs.Span.start ~parent:root (sa_name sa) in
            submit_spanned ~cancel sasp (fun started ->
                Cancel.check cancel ~where:(sa_name sa);
                process_sa (ref started) sa sasp))
          sas
      in
      (* Every chain is awaited before the first failure is raised, so
         no [sa:S<i>] span outlives the run. *)
      let per_sa =
        List.map
          (fun f -> try Ok (Engine.Pool.await f) with e -> Error e)
          futures
      in
      let per_sa = List.map (function Ok r -> r | Error e -> raise e) per_sa in
      (* the root-level prune+rank starts after the last SA finished *)
      cursor := Obs.Clock.now_ns ();
      per_sa
    end
    else
      List.map
        (fun (sa : Alternatives.sa) ->
          Cancel.check cancel ~where:(sa_name sa);
          phase root (sa_name sa) (fun sasp -> process_sa cursor sa sasp))
        sas
  in
  let explanations = List.concat_map (fun (es, _, _) -> es) per_sa in
  (* Fold the per-SA decisions into one honest report: the weakest
     confidence (largest stride) wins, skip counts add up, and the mode
     names the coarsest degradation any SA suffered. *)
  let report =
    match approx with
    | None -> None
    | Some a ->
      let max_stride =
        List.fold_left (fun m (_, d, _) -> max m d.Approx.stride) 1 per_sa
      in
      let top_k =
        List.fold_left
          (fun acc (_, (d : Approx.decision), _) ->
            match (d.Approx.top_k, acc) with
            | Some k, Some k' -> Some (min k k')
            | Some k, None -> Some k
            | None, acc -> acc)
          None per_sa
      in
      let skipped =
        List.fold_left (fun s (_, _, sk) -> s + sk) 0 per_sa
      in
      let mode =
        if top_k <> None then "top_k"
        else if max_stride > 1 then "sampled"
        else "exact"
      in
      Some
        {
          Approx.mode;
          confidence = 1.0 /. float_of_int max_stride;
          max_stride;
          top_k;
          skipped;
          budget_ms = (Approx.config a).Approx.budget_ms;
        }
  in
  let ranked =
    phase root "msr" (fun _ ->
        Explanation.rank (Explanation.prune_dominated explanations))
  in
  let ranked =
    match report with
    | Some { Approx.top_k = Some k; _ } -> take k ranked
    | _ -> ranked
  in
  (ranked, report)

let record_approx_metrics (report : Approx.report option) =
  match report with
  | None -> ()
  | Some r ->
    Obs.Metrics.Counter.incr
      (Obs.Metrics.counter ("pipeline.approx." ^ r.Approx.mode));
    if r.Approx.skipped > 0 then
      Obs.Metrics.Counter.incr ~by:r.Approx.skipped
        (Obs.Metrics.counter "pipeline.approx.skipped_candidates");
    Obs.Log.debug "pipeline.approx" (fun () ->
        [
          Obs.Log.str "mode" r.Approx.mode;
          Obs.Log.float "confidence" r.Approx.confidence;
          Obs.Log.int "max_stride" r.Approx.max_stride;
          Obs.Log.int "skipped" r.Approx.skipped;
        ])

let record_run_metrics root ~sas ~explanations =
  List.iter
    (fun (p, ms) ->
      Obs.Metrics.Histogram.observe
        (Obs.Metrics.histogram ("pipeline.phase." ^ p ^ "_ms"))
        ms)
    (phase_durations_ms_of_span root);
  Obs.Metrics.Counter.incr (Obs.Metrics.counter "pipeline.explains");
  Obs.Metrics.Counter.incr ~by:sas (Obs.Metrics.counter "pipeline.sas");
  Obs.Metrics.Counter.incr ~by:explanations
    (Obs.Metrics.counter "pipeline.explanations");
  Obs.Log.debug "pipeline.done" (fun () ->
      [
        Obs.Log.float "ms" (Obs.Span.duration_ms root);
        Obs.Log.int "sas" sas;
        Obs.Log.int "explanations" explanations;
      ])

(* A run that raises still leaves a well-formed (finished) span tree.
   A cancelled run's root is closed with a [cancelled_at] attribute
   naming the boundary that observed the cancellation — the
   partial-phase attribution the serve layer surfaces in
   Deadline_exceeded errors. *)
let finish_raised root f =
  try f ()
  with e ->
    (match e with
    | Cancel.Cancelled where -> Obs.Span.set_string root "cancelled_at" where
    | _ -> ());
    Obs.Span.finish root;
    raise e

(* The tail of both explains: the root's run attributes, its finish, the
   run and approximation metrics, and the result record. *)
let finish_run root question sas explanations report : result =
  Obs.Span.set_int root "sas" (List.length sas);
  Obs.Span.set_int root "explanations" (List.length explanations);
  Option.iter
    (fun r -> Obs.Span.set_string root "approx_mode" r.Approx.mode)
    report;
  Obs.Span.finish root;
  record_run_metrics root ~sas:(List.length sas)
    ~explanations:(List.length explanations);
  record_approx_metrics report;
  { question; sas; explanations; approx = report; span = root }

let prepare ?(use_sas = true) ?(max_sas = 16)
    ?(alternatives : Alternatives.alternatives = []) ?(cancel = Cancel.none)
    ?(retries = 0) ?parent ~db (q : Query.t) : handle =
  let root = Obs.Span.start ?parent "pipeline.prepare" in
  let cursor = ref (Obs.Span.start_ns root) in
  let h =
    finish_raised root (fun () ->
        prepare_phases ~use_sas ~max_sas ~alternatives ~cancel ~retries root
          cursor ~db q)
  in
  Obs.Span.set_int root "sas" (List.length h.h_sas);
  Obs.Span.finish root;
  Obs.Metrics.Counter.incr (Obs.Metrics.counter "pipeline.prepares");
  h

let explain_with ?approx ?(use_sas = true) ?max_sas ?(revalidate = true)
    ?(cancel = Cancel.none) ?(retries = 0) ?parent
    (h : handle) (missing : Nip.t) : result =
  let sas =
    handle_prefix h ~use_sas
      ~max_sas:(Option.value max_sas ~default:h.h_max_sas)
  in
  let root = Obs.Span.start ?parent "pipeline.explain" in
  let cursor = ref (Obs.Span.start_ns root) in
  let explanations, report =
    finish_raised root (fun () ->
        run_phases ?approx ~revalidate ~cancel ~retries root cursor h sas
          missing)
  in
  finish_run root (Question.make ~query:h.h_query ~db:h.h_db ~missing) sas
    explanations report

let explain ?approx ?(use_sas = true) ?(max_sas = 16) ?(revalidate = true)
    ?(alternatives : Alternatives.alternatives = []) ?(cancel = Cancel.none)
    ?(retries = 0) ?parent (phi : Question.t) :
    result =
  let root = Obs.Span.start ?parent "pipeline.explain" in
  (* Phase spans are tiled wall-to-wall — the four phase totals account
     for ≈ all of the root span but [tracing.shared] (in the sequential
     pipeline; concurrent SA phases overlap, so there the sums can
     exceed the total). *)
  let cursor = ref (Obs.Span.start_ns root) in
  let h, (explanations, report) =
    finish_raised root (fun () ->
        let h =
          prepare_phases ~use_sas ~max_sas ~alternatives ~cancel ~retries root
            cursor ~db:phi.Question.db phi.Question.query
        in
        ( h,
          run_phases ?approx ~revalidate ~cancel ~retries root cursor h
            h.h_sas phi.Question.missing ))
  in
  finish_run root phi h.h_sas explanations report

(* Total time per algorithm phase (summed across schema alternatives). *)
let phase_durations_ms (r : result) = phase_durations_ms_of_span r.span

(* Allocation pressure per phase: (bytes allocated, minor collections),
   summed across schema alternatives from the span attributes that
   [phase_at] records. *)
let phase_gc (r : result) : (string * (float * int)) list =
  List.map
    (fun p ->
      let sps = Obs.Span.find_all (fun s -> Obs.Span.name s = p) r.span in
      let bytes =
        List.fold_left
          (fun acc s ->
            match Obs.Span.attr s "alloc_bytes" with
            | Some (Obs.Span.Float f) -> acc +. f
            | _ -> acc)
          0. sps
      in
      let minors =
        List.fold_left
          (fun acc s ->
            match Obs.Span.attr s "minor_collections" with
            | Some (Obs.Span.Int i) -> acc + i
            | _ -> acc)
          0 sps
      in
      (p, (bytes, minors)))
    phases

(* Convenience: explanation op-id sets in rank order. *)
let explanation_sets (r : result) : int list list =
  List.map Explanation.op_list r.explanations

let pp_result ppf (r : result) =
  let q = r.question.Question.query in
  Fmt.pf ppf "@[<v>%d schema alternative(s):@,%a@,explanations:@,%a@]"
    (List.length r.sas)
    (Fmt.list ~sep:Fmt.cut (fun ppf (sa : Alternatives.sa) ->
         Fmt.pf ppf "  S%d: %s" (sa.Alternatives.index + 1)
           sa.Alternatives.description))
    r.sas
    (Fmt.list ~sep:Fmt.cut (fun ppf e ->
         Fmt.pf ppf "  %a" (Explanation.pp_with_query q) e))
    r.explanations
