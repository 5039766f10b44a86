(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (Section 6):

     fig8    runtime on DBLP scenarios D1–D5 vs dataset size   (Figure 8)
     fig9    runtime on Twitter scenarios vs dataset size      (Figure 9)
     fig10   TPC-H runtime: query vs RPnoSA vs RP              (Figure 10)
     fig11   runtime vs number of schema alternatives          (Figure 11)
     table6  crime comparison Why-Not / Conseil / RP           (Table 6, §6.4)
     table7  explanation summary per scenario                  (Table 7)
     table8  the explanation sets per approach                 (Table 8)
     table3  explainable operator types per fragment           (Table 3)
     ablation  schema alternatives and re-validation on/off

   plus three acceptance families run only when named — approx (budget
   ladder), chaos (fault sites) and obs (telemetry overhead) — and
   [smoke], every family at its smallest scale.  [-json FILE] writes every measurement row to FILE.

   Absolute numbers are not comparable to the paper's Spark cluster; the
   reproduced claims are the *shapes*: linear scaling in input size,
   bounded overhead factors over the original query, per-SA cost growth,
   and the explanation counts/contents. *)

(* Wall-clock timing goes through Obs spans (monotone-clamped clock);
   phase-level numbers come straight off the pipeline result's span
   tree. *)
let time_span name (f : Obs.Span.t -> 'a) : 'a * float =
  let sp = Obs.Span.start name in
  let x = Fun.protect ~finally:(fun () -> Obs.Span.finish sp) (fun () -> f sp) in
  (x, Obs.Span.duration_ms sp)

(* The fastest of [n] runs of [f] by [ms], each after a full major GC so
   one run does not pay for garbage another produced. *)
let fastest ?(n = 5) ms f =
  let run () =
    Gc.full_major ();
    f ()
  in
  let rec go best i =
    if i >= n then best
    else
      let r = run () in
      go (if ms r < ms best then r else best) (i + 1)
  in
  go (run ()) 1

(* One untimed warm-up run of [f], whose result is returned so callers
   can check it, then the median wall-clock ms of 5 timed runs. *)
let median_ms name f =
  let r0 = f () in
  let times = Array.init 5 (fun _ -> snd (time_span name (fun _ -> f ()))) in
  Array.sort compare times;
  (r0, times.(2))

(* --- One row shape, one sink ---------------------------------------------

   Every measurement is one [row]: its metrics are named the way
   BENCHMARK.json names them ([engine.exec_ms] for ⟦Q⟧_D,
   [whynot.<phase>_ms], [whynot.<phase>_alloc_mb]) and
   [<layer>.<quantity>_<unit>] otherwise.  [emit] prints the row under a
   header of its metric names and keeps it for the [-json] file.  A
   [Bool] metric is a correctness check, named [check.<name>]: a false
   one is reported on stderr and makes the run exit 1. *)

type value = Int of int | Float of float | Bool of bool

type row = {
  family : string;
  scenario : string;
  scale : int;
  metrics : (string * value) list;
}

let rows : row list ref = ref [] (* newest first *)
let failed_checks = ref 0

let value_str = function
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Fmt.str "%.6g" f
  | Float _ -> "null"
  | Bool b -> string_of_bool b

let emit family ~scenario ~scale metrics =
  let print_cols cols =
    Fmt.pr "%s@."
      (String.concat " "
         (List.map
            (fun (name, v) -> Fmt.str "%-*s" (max 9 (String.length name)) v)
            cols))
  in
  let names = List.map fst metrics in
  (match !rows with
  | r :: _ when r.family = family && List.map fst r.metrics = names -> ()
  | _ ->
    print_cols
      (List.map (fun n -> (n, n)) ("scenario" :: "scale" :: names)));
  print_cols
    (("scenario", scenario)
    :: ("scale", string_of_int scale)
    :: List.map (fun (n, v) -> (n, value_str v)) metrics);
  List.iter
    (function
      | name, Bool false ->
        Fmt.epr "bench: check failed: %s %s %s@." family scenario name;
        incr failed_checks
      | _ -> ())
    metrics;
  rows := { family; scenario; scale; metrics } :: !rows

(* The [-json FILE] summary: provenance, then every row in run order. *)
let write_json file =
  let oc = open_out file in
  let row r =
    Fmt.str
      "    {\"family\": %S, \"scenario\": %S, \"scale\": %d, \"metrics\": {%s}}"
      r.family r.scenario r.scale
      (String.concat ", "
         (List.map (fun (n, v) -> Fmt.str "%S: %s" n (value_str v)) r.metrics))
  in
  (* provenance: enough to tell two committed baselines apart *)
  let git_commit =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "unknown" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let hostname = try Unix.gethostname () with _ -> "unknown" in
  Fmt.kstr (output_string oc)
    "{\n\
    \  \"meta\": {\"git_commit\": %S, \"hostname\": %S, \"ocaml\": %S, \
     \"word_size\": %d},\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    git_commit hostname Sys.ocaml_version Sys.word_size
    (String.concat ",\n" (List.rev_map row !rows));
  close_out oc;
  Fmt.pr "@.json summary written to %s (%d rows)@." file (List.length !rows)

let scenario name = Option.get (Scenarios.Registry.find name)

let instance ?(scale = 1) s = s.Scenarios.Scenario.make ~scale ()

let run_rp inst =
  Whynot.Pipeline.explain
    ~alternatives:inst.Scenarios.Scenario.alternatives
    inst.Scenarios.Scenario.question

let run_rpnosa inst =
  Whynot.Pipeline.explain ~use_sas:false
    inst.Scenarios.Scenario.question

let run_query ?parent inst =
  let phi = inst.Scenarios.Scenario.question in
  Engine.Exec.run ?parent phi.Whynot.Question.db phi.Whynot.Question.query

let rp_ms (r : Whynot.Pipeline.result) =
  Obs.Span.duration_ms r.Whynot.Pipeline.span

(* The per-phase breakdown, summed across schema alternatives, and MSR's
   split into families, bounds sweep and candidates (the [_us]
   attributes of each SA's [msr] span). *)
let phase_metrics r =
  let msr_split part =
    let us =
      List.fold_left
        (fun acc sp ->
          match Obs.Span.attr sp (part ^ "_us") with
          | Some (Obs.Span.Int n) -> acc + n
          | _ -> acc)
        0
        (Obs.Span.find_all
           (fun sp -> Obs.Span.name sp = "msr")
           r.Whynot.Pipeline.span)
    in
    ("whynot.msr." ^ part ^ "_ms", Float (float_of_int us /. 1000.))
  in
  List.map
    (fun (p, ms) -> ("whynot." ^ p ^ "_ms", Float ms))
    (Whynot.Pipeline.phase_durations_ms r)
  @ List.map
      (fun (p, (bytes, _)) ->
        ("whynot." ^ p ^ "_alloc_mb", Float (bytes /. 1048576.)))
      (Whynot.Pipeline.phase_gc r)
  @ List.map msr_split [ "families"; "sweep"; "candidates" ]

let db_rows (inst : Scenarios.Scenario.instance) =
  let phi = inst.Scenarios.Scenario.question in
  List.fold_left
    (fun acc (_, rel) -> acc + Nested.Relation.cardinal rel)
    0
    (Nested.Relation.Db.tables phi.Whynot.Question.db)

(* --- Figures 8 and 9: runtime vs dataset size ---------------------------- *)

let fig_scaling ~family ~title ~scenarios ~scales () =
  Fmt.pr "@.== %s ==@." title;
  List.iter
    (fun name ->
      let s = scenario name in
      List.iter
        (fun scale ->
          let inst = instance ~scale s in
          (* Best of 5 for ⟦Q⟧_D (the first rep also charges any one-time
             arena conversion) and for the pipeline, whose
             sub-millisecond phases are otherwise dominated by timer/GC
             noise; the phase columns are the fastest pipeline rep's. *)
          let _, q_ms =
            fastest snd (fun () ->
                time_span "bench.query" (fun sp -> run_query ~parent:sp inst))
          in
          let rp = fastest rp_ms (fun () -> run_rp inst) in
          emit family ~scenario:name ~scale
            ([
               ("db.rows", Int (db_rows inst));
               ("engine.exec_ms", Float q_ms);
               ("whynot.rp_ms", Float (rp_ms rp));
               ("whynot.rp_factor", Float (rp_ms rp /. Float.max q_ms 0.001));
             ]
            @ phase_metrics rp))
        scales)
    scenarios

let fig8 ?(scales = [ 1; 2; 4; 8; 16; 32 ]) () =
  fig_scaling ~family:"fig8" ~title:"Figure 8: DBLP runtime vs dataset size"
    ~scenarios:[ "D1"; "D2"; "D3"; "D4"; "D5" ]
    ~scales ()

let fig9 ?(scales = [ 1; 2; 4; 8; 16; 32 ]) () =
  fig_scaling ~family:"fig9" ~title:"Figure 9: Twitter runtime vs dataset size"
    ~scenarios:[ "T1"; "T2"; "T3"; "T4"; "TASD" ]
    ~scales ()

(* --- Figure 10: TPC-H query vs RPnoSA vs RP ------------------------------ *)

let fig10 ?(scale = 2) () =
  Fmt.pr "@.== Figure 10: TPC-H runtime (scale %d) ==@." scale;
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      let _, q_ms = time_span "bench.query" (fun sp -> run_query ~parent:sp inst) in
      let nosa_ms = rp_ms (run_rpnosa inst) in
      let rp = run_rp inst in
      emit "fig10" ~scenario:name ~scale
        ([
           ("db.rows", Int (db_rows inst));
           ("engine.exec_ms", Float q_ms);
           ("whynot.rpnosa_ms", Float nosa_ms);
           ("whynot.rp_ms", Float (rp_ms rp));
           ("whynot.rpnosa_factor", Float (nosa_ms /. Float.max q_ms 0.001));
           ("whynot.rp_factor", Float (rp_ms rp /. Float.max q_ms 0.001));
         ]
        @ phase_metrics rp))
    [ "Q1"; "Q3"; "Q4"; "Q6"; "Q10"; "Q13" ]

(* --- Figure 11: runtime vs number of schema alternatives ----------------- *)

(* Widened alternative groups so that the SA count can actually grow (the
   paper's TPC-H scenarios reach 12 SAs via three attribute families). *)
let widened_alternatives name (inst : Scenarios.Scenario.instance) =
  match name with
  | "Q3" ->
    (* the paper's three TPC-H attribute families: discount/tax, the
       three lineitem dates, and the two order priorities — 2×3×2 = 12
       schema alternatives *)
    inst.Scenarios.Scenario.alternatives
    @ [
        ( "nested_orders",
          [
            [ "o_lineitems"; "l_commitdate" ];
            [ "o_lineitems"; "l_shipdate" ];
            [ "o_lineitems"; "l_receiptdate" ];
          ] );
        ("nested_orders", [ [ "o_shippriority" ]; [ "o_orderpriority" ] ]);
      ]
  | _ -> inst.Scenarios.Scenario.alternatives

let fig11 ?(scale = 2) () =
  Fmt.pr "@.== Figure 11: runtime vs number of schema alternatives (scale %d) ==@."
    scale;
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      let alternatives = widened_alternatives name inst in
      List.iter
        (fun max_sas ->
          let result =
            Whynot.Pipeline.explain ~max_sas ~alternatives
              inst.Scenarios.Scenario.question
          in
          emit "fig11" ~scenario:name ~scale
            ([
               ("db.rows", Int (db_rows inst));
               ("whynot.max_sas", Int max_sas);
               ("whynot.sas", Int (List.length result.Whynot.Pipeline.sas));
               ("whynot.rp_ms", Float (rp_ms result));
             ]
            @ phase_metrics result))
        (if name = "Q3" then [ 1; 2; 4; 8; 12 ] else [ 1; 2; 3; 4 ]))
    [ "TASD"; "D1"; "T3"; "D4"; "Q3" ]

(* The operator types of [q] that explanation id-sets [sets] blame. *)
let op_types (q : Nrab.Query.t) sets =
  List.sort_uniq compare
    (List.concat_map
       (fun set ->
         List.filter_map
           (fun id ->
             Option.map
               (fun (op : Nrab.Query.t) -> Nrab.Query.op_type op.Nrab.Query.node)
               (Nrab.Query.find_op q id))
           set)
       sets)

(* --- Table 3: operators that can become part of explanations -------------- *)

let table3 () =
  Fmt.pr "@.== Table 3: explainable operator types per algebra and formalism ==@.";
  Fmt.pr "%-8s %-22s %s@." "algebra" "lineage-based" "reparameterization-based";
  List.iter
    (fun fragment ->
      let render formalism =
        String.concat ","
          (List.map Nrab.Query.op_type_to_string
             (Nrab.Fragment.explainable_op_types formalism fragment))
      in
      Fmt.pr "%-8s %-22s %s@."
        (Nrab.Fragment.to_string fragment)
        (render Nrab.Fragment.Lineage_based)
        (render Nrab.Fragment.Reparameterization_based))
    [ Nrab.Fragment.Spc; Nrab.Fragment.Spc_plus; Nrab.Fragment.Nrab ];
  (* empirical cross-check over all scenarios, a gate: the operator
     types each approach actually blames stay within its Table 3 row *)
  let violations = ref 0 in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = instance s in
      let phi = inst.Scenarios.Scenario.question in
      let q = phi.Whynot.Question.query in
      let fragment = Nrab.Fragment.classify q in
      let wn_types =
        op_types q
          (List.map Baselines.Explanation_set.op_list
             (Baselines.Wnpp.explanations phi))
      in
      let rp_types = op_types q (Whynot.Pipeline.explanation_sets (run_rp inst)) in
      List.iter
        (fun ty ->
          if not (Nrab.Fragment.explainable Nrab.Fragment.Lineage_based fragment ty)
          then incr violations)
        wn_types;
      List.iter
        (fun ty ->
          if
            not
              (Nrab.Fragment.explainable Nrab.Fragment.Reparameterization_based
                 fragment ty)
          then incr violations)
        rp_types)
    Scenarios.Registry.all;
  emit "table3" ~scenario:"all" ~scale:1
    [
      ("nrab.fragment_violations", Int !violations);
      ("check.no_violations", Bool (!violations = 0));
    ]

(* --- Table 6: crime comparison ------------------------------------------- *)

let table6 () =
  Fmt.pr "@.== Table 6 / Section 6.4: crime scenarios ==@.";
  List.iter
    (fun name ->
      let s = scenario name in
      let inst = instance s in
      let phi = inst.Scenarios.Scenario.question in
      let q = phi.Whynot.Question.query in
      let fmt_base es =
        if es = [] then "(none)"
        else String.concat ", " (List.map Baselines.Explanation_set.to_string es)
      in
      let rp = run_rp inst in
      let fmt_rp =
        if rp.Whynot.Pipeline.explanations = [] then "(none)"
        else
          String.concat ", "
            (List.map (Whynot.Explanation.to_string_with_query q)
               rp.Whynot.Pipeline.explanations)
      in
      Fmt.pr "@.%s: %s@." name s.Scenarios.Scenario.description;
      Fmt.pr "  Why-Not: %s@." (fmt_base (Baselines.Wnpp.explanations phi));
      Fmt.pr "  Conseil: %s@." (fmt_base (Baselines.Conseil.explanations phi));
      Fmt.pr "  RP:      %s@." fmt_rp)
    [ "C1"; "C2"; "C3" ]

(* --- Tables 7 and 8: explanation summary and contents -------------------- *)

let gold_position (inst : Scenarios.Scenario.instance)
    (rp : Whynot.Pipeline.result) : string =
  match inst.Scenarios.Scenario.gold with
  | None -> "-"
  | Some gold ->
    let sets = List.map (List.sort compare) (Whynot.Pipeline.explanation_sets rp) in
    let pos g =
      let g = List.sort compare g in
      let rec go i = function
        | [] -> None
        | s :: rest -> if s = g then Some i else go (i + 1) rest
      in
      go 1 sets
    in
    let positions = List.filter_map pos gold in
    if positions = [] then "miss"
    else String.concat "," (List.map string_of_int positions)

(* Operator-type flags per the paper's legend: ○ found by all
   approaches, ◐ found only by RPnoSA and RP, ● found only by RP. *)
let op_type_flags (q : Nrab.Query.t) ~wnpp_sets ~rpnosa_sets ~rp_sets : string =
  let w = op_types q wnpp_sets
  and n = op_types q rpnosa_sets
  and r = op_types q rp_sets in
  let flag ty =
    let name = Nrab.Query.op_type_to_string ty in
    if List.mem ty w && List.mem ty r then Some (name ^ "○")
    else if List.mem ty w then Some (name ^ "✗") (* WN++-only: incorrect *)
    else if List.mem ty n then Some (name ^ "◐")
    else if List.mem ty r then Some (name ^ "●")
    else None
  in
  String.concat " "
    (List.filter_map flag
       Nrab.Query.
         [ Op_select; Op_project; Op_join; Op_flatten; Op_nest; Op_agg ])

let table7 () =
  Fmt.pr "@.== Table 7: number of explanations per scenario and approach ==@.";
  Fmt.pr "   (legend: ○ found by all, ◐ only RPnoSA+RP, ● only RP, ✗ only WN++ [incorrect])@.";
  Fmt.pr "%-6s %-16s %-6s %-8s %-6s %-7s %-18s@." "scen" "operators" "WN++"
    "RPnoSA" "RP" "gold@" "found-by";
  let totals = ref (0, 0, 0) in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = instance s in
      let phi = inst.Scenarios.Scenario.question in
      let q = phi.Whynot.Question.query in
      let rp = run_rp inst in
      let rpnosa = run_rpnosa inst in
      let wnpp = Baselines.Wnpp.explanations phi in
      let n1 = List.length wnpp in
      let n2 = List.length rpnosa.Whynot.Pipeline.explanations in
      let n3 = List.length rp.Whynot.Pipeline.explanations in
      let a, b, c = !totals in
      totals := (a + n1, b + n2, c + n3);
      let flags =
        op_type_flags q
          ~wnpp_sets:(List.map Baselines.Explanation_set.op_list wnpp)
          ~rpnosa_sets:(Whynot.Pipeline.explanation_sets rpnosa)
          ~rp_sets:(Whynot.Pipeline.explanation_sets rp)
      in
      Fmt.pr "%-6s %-16s %-6d %-8d %-6d %-7s %-18s@." s.Scenarios.Scenario.name
        s.Scenarios.Scenario.operators n1 n2 n3 (gold_position inst rp) flags)
    Scenarios.Registry.all;
  let a, b, c = !totals in
  Fmt.pr "%-6s %-16s %-6d %-8d %-6d@." "TOTAL" "" a b c

let table8 () =
  Fmt.pr "@.== Table 8: explanations per scenario ==@.";
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = instance s in
      let phi = inst.Scenarios.Scenario.question in
      let q = phi.Whynot.Question.query in
      let rp = run_rp inst in
      let rpnosa = run_rpnosa inst in
      let wnpp = Baselines.Wnpp.explanations phi in
      let fmt_sets sets =
        if sets = [] then "(none)" else String.concat ", " sets
      in
      Fmt.pr "@.%s:@." s.Scenarios.Scenario.name;
      Fmt.pr "  WN++:    %s@."
        (fmt_sets (List.map Baselines.Explanation_set.to_string wnpp));
      Fmt.pr "  RPnoSA:  %s@."
        (fmt_sets
           (List.map (Whynot.Explanation.to_string_with_query q)
              rpnosa.Whynot.Pipeline.explanations));
      Fmt.pr "  RP:      %s@."
        (fmt_sets
           (List.map (Whynot.Explanation.to_string_with_query q)
              rp.Whynot.Pipeline.explanations)))
    Scenarios.Registry.all

(* --- Ablation: the two novel techniques of the paper ----------------------

   RP vs RPnoSA isolates the schema-alternative technique; re-validation
   on/off isolates the per-operator consistency checks.  Without
   re-validation the pipeline behaves like prior lineage-based work and
   admits false positives (tuples incorrectly identified as compatible —
   Section 1's second technical contribution). *)

let ablation () =
  Fmt.pr "@.== Ablation: schema alternatives and re-validation ==@.";
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = instance s in
      let phi = inst.Scenarios.Scenario.question in
      let with_rv = run_rp inst in
      let without_rv =
        Whynot.Pipeline.explain ~revalidate:false
          ~alternatives:inst.Scenarios.Scenario.alternatives phi
      in
      let sets r =
        List.map (List.sort compare) (Whynot.Pipeline.explanation_sets r)
      in
      let spurious =
        List.filter
          (fun set -> not (List.mem set (sets with_rv)))
          (sets without_rv)
      in
      emit "ablation" ~scenario:s.Scenarios.Scenario.name ~scale:1
        [
          ( "whynot.explanations",
            Int (List.length with_rv.Whynot.Pipeline.explanations) );
          ( "whynot.explanations_norevalidate",
            Int (List.length without_rv.Whynot.Pipeline.explanations) );
          ("whynot.spurious_sets", Int (List.length spurious));
        ])
    Scenarios.Registry.all

(* --- Chaos: fault-injection overhead and retry recovery -------------------

   Two questions, two columns per scenario:
   - unarmed: what do the injection sites cost when nothing is armed?
     (one atomic load per site consultation — this column should match
     the plain engine/pipeline numbers of the other targets);
   - armed: with a deterministic transient fault on every second
     consultation of the engine-run and tracing sites (Flaky, period 2)
     and a retry budget, explains must still complete and produce
     identical explanations, and the overhead is the replayed phases.
     The pipeline's phase retry is the one recovery path: a faulted
     engine run of ⟦Q⟧_D is replayed whole. *)

let chaos_sites = [ "engine.run"; "tracing.relaxed"; "tracing.shared" ]

let bench_chaos ?(scale = 2) () =
  Fmt.pr "@.== Chaos: unarmed-site overhead and armed-retry recovery (scale %d) ==@."
    scale;
  let chaos_exn = Engine.Fault.Transient (Failure "chaos: injected") in
  let retries_c = Obs.Metrics.counter "engine.task.retries" in
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      let phi = inst.Scenarios.Scenario.question in
      let run_rp_with ?retries () =
        Whynot.Pipeline.explain ?retries
          ~alternatives:inst.Scenarios.Scenario.alternatives phi
      in
      Obs.Faultinject.reset ();
      let _, unarmed_q = median_ms "bench.chaos" (fun () -> run_query inst) in
      let plain_rp, unarmed_rp =
        median_ms "bench.chaos" (fun () -> run_rp_with ())
      in
      let retries0 = Obs.Metrics.Counter.value retries_c in
      List.iter
        (fun site ->
          Obs.Faultinject.arm site
            (Obs.Faultinject.Flaky { period = 2; exn_ = chaos_exn }))
        chaos_sites;
      let armed_runs = ref [] in
      let _, armed_rp_ms =
        median_ms "bench.chaos" (fun () ->
            let r = run_rp_with ~retries:3 () in
            armed_runs := r :: !armed_runs;
            r)
      in
      let faults =
        List.fold_left (fun n site -> n + Obs.Faultinject.fired site) 0
          chaos_sites
      in
      Obs.Faultinject.reset ();
      let retries = Obs.Metrics.Counter.value retries_c - retries0 in
      (* every armed run, timed or not, must match the unarmed warm-up *)
      let identical =
        List.for_all
          (fun r ->
            Whynot.Pipeline.explanation_sets r
            = Whynot.Pipeline.explanation_sets plain_rp)
          !armed_runs
      in
      emit "chaos" ~scenario:name ~scale
        [
          ("engine.exec_ms", Float unarmed_q);
          ("whynot.rp_ms", Float unarmed_rp);
          ("whynot.rp_armed_ms", Float armed_rp_ms);
          ("engine.task.retries", Int retries);
          ("obs.faults_fired", Int faults);
          ("check.identical", Bool identical);
        ])
    [ "D1"; "T2"; "Q3" ]

(* --- Obs: telemetry overhead ----------------------------------------------

   Three questions:
   - what does a [Log.debug] call cost when Debug is disabled?  (the
     hot-path gate is one atomic load; the field thunk is never
     evaluated) — measured as ns/call over a tight loop;
   - what does running the pipeline at Debug cost vs logging off?  (the
     fig8 RP column, timed both ways, plus the record volume per
     explain);
   - what does one Prometheus render of the live registry cost?

   The headline acceptance number is [obs.log.disabled_overhead_pct]: every
   record an explain would emit, charged at the disabled-call price, as
   a percentage of the logging-off RP time — the overhead the
   instrumentation adds to a server running at the default Info level.
   Gated like chaos (never runs implicitly): it flips the process-global
   log level and sink set mid-run. *)

let bench_obs ?(scale = 4) () =
  Fmt.pr "@.== Obs: logging and export overhead (scale %d) ==@." scale;
  let saved_level = Obs.Log.level () in
  let median_ms f = snd (median_ms "bench.obs" f) in
  (* disabled-call price: one atomic load, thunk never evaluated *)
  Obs.Log.set_level None;
  let n = 2_000_000 in
  let t0 = Obs.Clock.now_ns () in
  for i = 1 to n do
    Obs.Log.debug "bench.obs.noop" (fun () -> [ Obs.Log.int "i" i ])
  done;
  let disabled_ns =
    float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int n
  in
  let count = ref 0 in
  Obs.Log.add_sink "bench.obs.count" (fun _ -> incr count);
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      Obs.Log.set_level None;
      let off_ms = median_ms (fun () -> run_rp inst) in
      Obs.Log.set_level (Some Obs.Log.Debug);
      let debug_ms = median_ms (fun () -> run_rp inst) in
      count := 0;
      ignore (run_rp inst);
      let records = !count in
      Obs.Log.set_level None;
      let export_ms =
        median_ms (fun () -> ignore (Obs.Export.prometheus () : string))
      in
      emit "obs" ~scenario:name ~scale
        [
          ("obs.log.disabled_ns", Float disabled_ns);
          ("obs.log.records_per_explain", Int records);
          ("whynot.rp_ms", Float off_ms);
          ("whynot.rp_debug_ms", Float debug_ms);
          ( "obs.log.debug_overhead_pct",
            Float (100. *. (debug_ms -. off_ms) /. Float.max off_ms 1e-9) );
          ( "obs.log.disabled_overhead_pct",
            Float
              (100. *. (float_of_int records *. disabled_ns)
              /. Float.max (off_ms *. 1e6) 1e-9) );
          ("obs.export_ms", Float export_ms);
        ])
    [ "D1"; "T2"; "Q3" ];
  Obs.Log.remove_sink "bench.obs.count";
  Obs.Log.set_level saved_level

(* --- Approx: budget-ladder speedups (PR acceptance run) -------------------

   Exact RP vs each degradation rung — sampled tracing (stride), top-k
   MSR (early-terminated ranking), and the two combined — per scenario
   and scale.  The acceptance claims: the combined approximate run is
   >= 3x faster than exact at scale >= 128, the top-k ranking is the
   k-prefix of the exact ranking (bound maintenance prunes, never
   reorders), and the combined run reports an honest confidence and
   skipped-candidate count. *)

let bench_approx ?(scales = [ 32; 64; 128; 256 ]) ?(stride = 8)
    ?(combined_stride = 16) ?(k = 3) () =
  Fmt.pr
    "@.== Approx: budget ladder, stride %d / top-%d / budgeted stride %d (min \
     of 3) ==@."
    stride k combined_stride;
  let sampled_cfg =
    { Whynot.Approx.exact with Whynot.Approx.sample_stride = Some stride }
  in
  let topk_cfg = { Whynot.Approx.exact with Whynot.Approx.top_k = Some k } in
  (* The combined rung is the budgeted production shape: a wall-clock
     budget plus explicit stride/top-k floors, so the ladder starts
     coarse and can only coarsen further as the budget burns. *)
  let combined_cfg =
    {
      Whynot.Approx.budget_ms = Some 10.0;
      sample_stride = Some combined_stride;
      top_k = Some k;
    }
  in
  List.iter
    (fun name ->
      let s = scenario name in
      List.iter
        (fun scale ->
          let inst = instance ~scale s in
          let phi = inst.Scenarios.Scenario.question in
          let q = phi.Whynot.Question.query in
          (* best of 3 per rung *)
          let best ?cfg () =
            fastest ~n:3 rp_ms (fun () ->
                Whynot.Pipeline.explain
                  ?approx:(Option.map Whynot.Approx.start cfg)
                  ~alternatives:inst.Scenarios.Scenario.alternatives phi)
          in
          let exact = best () in
          let sampled = best ~cfg:sampled_cfg () in
          let topk = best ~cfg:topk_cfg () in
          let combined = best ~cfg:combined_cfg () in
          (* top-k never reorders: its ranking is a prefix of exact's *)
          let keys r =
            List.map
              (Whynot.Explanation.to_string_with_query q)
              r.Whynot.Pipeline.explanations
          in
          let rec is_prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs, y :: ys -> x = y && is_prefix xs ys
            | _ :: _, [] -> false
          in
          let confidence, skipped =
            match combined.Whynot.Pipeline.approx with
            | Some r -> (r.Whynot.Approx.confidence, r.Whynot.Approx.skipped)
            | None -> (1.0, 0)
          in
          emit "approx" ~scenario:name ~scale
            [
              ("db.rows", Int (db_rows inst));
              ("whynot.rp_ms", Float (rp_ms exact));
              ("whynot.sampled_ms", Float (rp_ms sampled));
              ("whynot.topk_ms", Float (rp_ms topk));
              ("whynot.combined_ms", Float (rp_ms combined));
              ( "whynot.approx_speedup",
                Float (rp_ms exact /. Float.max (rp_ms combined) 1e-6) );
              ("whynot.approx_confidence", Float confidence);
              ("whynot.approx_skipped", Int skipped);
              ("check.prefix_ok", Bool (is_prefix (keys topk) (keys exact)));
            ])
        scales)
    [ "D1"; "D3"; "T2" ]

(* Smallest-scale pass over every bench family — a CI guard that the
   bench harness itself keeps working and its checks hold, cheap enough
   for [make verify].  Chaos and obs run last: they flip process-global
   fault sites, log level and sink set. *)
let smoke () =
  table7 ();
  table8 ();
  table6 ();
  table3 ();
  fig8 ~scales:[ 1 ] ();
  fig9 ~scales:[ 1 ] ();
  fig10 ~scale:1 ();
  fig11 ~scale:1 ();
  ablation ();
  bench_approx ~scales:[ 1 ] ();
  bench_chaos ~scale:1 ();
  bench_obs ~scale:1 ()

(* --- Driver ---------------------------------------------------------------- *)

let () =
  let usage fmt =
    Fmt.kstr
      (fun m ->
        Fmt.epr "main.exe: %s@." m;
        exit 2)
      fmt
  in
  let json_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | (("-json" | "--json") as flag) :: rest -> (
      match rest with
      | file :: rest ->
        json_file := Some file;
        parse acc rest
      | [] -> usage "%s needs a file name" flag)
    | a :: _ when String.starts_with ~prefix:"-" a ->
      usage "unknown option %s (the only option is -json FILE)" a
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  (* Families in run order.  [true] marks a family that runs only when
     named (or under "all"), never as part of a bare invocation: smoke is
     a targeted run, approx scales past the default sweep, and chaos and
     obs flip process-global fault sites, log level and sink set. *)
  let families =
    [
      ("table7", false, table7);
      ("table8", false, table8);
      ("table6", false, table6);
      ("table3", false, table3);
      ("fig8", false, fun () -> fig8 ());
      ("fig9", false, fun () -> fig9 ());
      ("fig10", false, fun () -> fig10 ());
      ("fig11", false, fun () -> fig11 ());
      ("ablation", false, ablation);
      ("smoke", true, smoke);
      ("approx", true, fun () -> bench_approx ());
      ("chaos", true, fun () -> bench_chaos ());
      ("obs", true, fun () -> bench_obs ());
    ]
  in
  let names = List.map (fun (name, _, _) -> name) families @ [ "all" ] in
  (match List.filter (fun a -> not (List.mem a names)) args with
  | [] -> ()
  | unknown ->
    Fmt.epr "main.exe: unknown bench family: %s@.known families: %s@."
      (String.concat " " unknown)
      (String.concat " " names);
    exit 2);
  List.iter
    (fun (name, explicit_only, run) ->
      if
        List.mem name args || List.mem "all" args
        || (args = [] && not explicit_only)
      then run ())
    families;
  Option.iter write_json !json_file;
  if !failed_checks > 0 then begin
    Fmt.epr "main.exe: %d check(s) failed@." !failed_checks;
    exit 1
  end
