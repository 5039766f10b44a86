(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (Section 6):

     fig8    runtime on DBLP scenarios D1–D5 vs dataset size   (Figure 8)
     fig9    runtime on Twitter scenarios vs dataset size      (Figure 9)
     fig10   TPC-H runtime: query vs RPnoSA vs RP              (Figure 10)
     fig11   runtime vs number of schema alternatives          (Figure 11)
     table6  crime comparison Why-Not / Conseil / RP           (Table 6, §6.4)
     table7  explanation summary per scenario                  (Table 7)
     table8  the explanation sets per approach                 (Table 8)

   Absolute numbers are not comparable to the paper's Spark cluster; the
   reproduced claims are the *shapes*: linear scaling in input size,
   bounded overhead factors over the original query, per-SA cost growth,
   and the explanation counts/contents. *)

(* Wall-clock timing goes through Obs spans (monotone-clamped clock).
   [time_span] is the drop-in for the old [time_ms]; phase-level numbers
   come straight off the pipeline result's span tree. *)
let time_span name (f : Obs.Span.t -> 'a) : 'a * float =
  let sp = Obs.Span.start name in
  let x = Fun.protect ~finally:(fun () -> Obs.Span.finish sp) (fun () -> f sp) in
  (x, Obs.Span.duration_ms sp)

let phase_header =
  String.concat "," (List.map (fun p -> p ^ "_ms") Whynot.Pipeline.phases)

let phase_cols (r : Whynot.Pipeline.result) =
  String.concat ","
    (List.map
       (fun (_, ms) -> Fmt.str "%.3f" ms)
       (Whynot.Pipeline.phase_durations_ms r))

(* Engine configuration, settable from the command line: --partitions N
   sizes the datasets. *)
let partitions = ref Engine.Exec.default_config.Engine.Exec.partitions

let engine_config () =
  { Engine.Exec.partitions = !partitions; retry = Engine.Fault.no_retry }

(* Optional CSV sink: each measurement row is also appended to
   results/<target>.csv when -csv is passed, for external plotting. *)
let csv_enabled = ref false

let csv_channel : (string, out_channel) Hashtbl.t = Hashtbl.create 8

let ensure_results_dir =
  let made = ref false in
  fun () ->
    if not !made then begin
      (if not (Sys.file_exists "results") then Unix.mkdir "results" 0o755);
      made := true
    end

let csv target header row =
  if !csv_enabled then begin
    let oc =
      match Hashtbl.find_opt csv_channel target with
      | Some oc -> oc
      | None ->
        ensure_results_dir ();
        let oc = open_out (Filename.concat "results" (target ^ ".csv")) in
        output_string oc (header ^ "\n");
        Hashtbl.replace csv_channel target oc;
        oc
    in
    output_string oc (row ^ "\n")
  end

let close_csv () =
  Hashtbl.iter
    (fun _ oc ->
      flush oc;
      close_out oc)
    csv_channel;
  Hashtbl.reset csv_channel

(* Flush even when a benchmark raises or the process is cut short;
   [close_csv] is idempotent (the table is reset), so the explicit call
   at the end of [main] and this handler cannot double-close. *)
let () = at_exit close_csv

(* Optional JSON summary (--json FILE): one machine-readable record per
   measurement — scenario, scale, query/RP wall-clock, and the per-phase
   breakdown — so perf PRs can diff against a committed baseline. *)
let json_file = ref ""

type json_record = {
  jbench : string;
  jscenario : string;
  jscale : int;
  jrows : int;
  jquery_ms : float option;
  jrpnosa_ms : float option;
  jrp_ms : float;
  jphases : (string * float) list;
  jgc : (string * (float * int)) list;
      (* per-phase (bytes allocated, minor collections) *)
}

let json_records : json_record list ref = ref []

let add_json r = if !json_file <> "" then json_records := r :: !json_records

(* Records of the [chaos] target — fault-tolerance numbers: the cost of
   the (unarmed) injection sites and of surviving armed transient
   faults via task retries. *)
type chaos_record = {
  hscenario : string;
  hscale : int;
  hunarmed_query_ms : float;
  harmed_query_ms : float;
  hunarmed_rp_ms : float;
  harmed_rp_ms : float;
  hretries : int;
  hfaults : int;
  hidentical : bool;
}

let chaos_records : chaos_record list ref = ref []

let add_chaos r = if !json_file <> "" then chaos_records := r :: !chaos_records

(* Records of the [obs] target — telemetry overhead: the cost of a log
   call at a disabled level, the record volume and wall-clock cost of
   running a pipeline at Debug, and the metrics-export render time. *)
type obs_record = {
  oscenario : string;
  oscale : int;
  odisabled_ns : float;  (* per Log.debug call with the level off *)
  orecords_per_explain : int;  (* records one RP explain emits at Debug *)
  ooff_ms : float;  (* RP wall-clock, logging off *)
  odebug_ms : float;  (* RP wall-clock, Debug + counting sink *)
  odebug_overhead_pct : float;
  odisabled_overhead_pct : float;
      (* computed worst case: every record this explain would emit,
         charged at the disabled-call price, as %% of the off column *)
  oexport_ms : float;  (* one Prometheus render of the live registry *)
}

let obs_records : obs_record list ref = ref []

let add_obs r = if !json_file <> "" then obs_records := r :: !obs_records

(* Records of the [approx] target — budget-ladder numbers: exact RP vs
   sampled tracing vs top-k-only MSR vs the combined degradation, plus
   the honesty checks (confidence, skipped candidates, and whether the
   top-k ranking is a prefix of the exact one). *)
type approx_record = {
  xscenario : string;
  xscale : int;
  xrows : int;
  xexact_ms : float;
  xsampled_ms : float;
  xtopk_ms : float;
  xcombined_ms : float;
  xspeedup : float;  (* exact / combined *)
  xconfidence : float;  (* of the combined run *)
  xskipped : int;  (* MSR candidates pruned unevaluated (combined run) *)
  xprefix_ok : bool;  (* top-k ranking = k-prefix of the exact ranking *)
}

let approx_records : approx_record list ref = ref []

let add_approx r =
  if !json_file <> "" then approx_records := r :: !approx_records

(* Records of the [recover] target — stage-recovery numbers: restoring a
   lost shuffle partition from its barrier checkpoint (a file read) vs
   the fallback when the file is gone (replay the full upstream lineage
   through the recompute closure), plus the explanation-pipeline cost of
   running under a starvation-level spill watermark. *)
type recover_record = {
  rscenario : string;
  rscale : int;
  rrows : int;
  rckpt_ms : float;  (* restore one lost partition from its checkpoint *)
  rsrc_ms : float;  (* same restore with the file gone: full recompute *)
  rspeedup : float;  (* src / ckpt *)
  rplain_rp_ms : float;
  rspill_rp_ms : float;
  rspill_pct : float;
  rspill_batches : int;
  ridentical : bool;
}

let recover_records : recover_record list ref = ref []

let add_recover r =
  if !json_file <> "" then recover_records := r :: !recover_records

let write_json () =
  if !json_file <> "" then begin
    let oc = open_out !json_file in
    let field name v = Fmt.str "%S: %s" name v in
    let opt_ms name = function
      | None -> []
      | Some ms -> [ field name (Fmt.str "%.3f" ms) ]
    in
    let record r =
      let phases =
        Fmt.str "{%s}"
          (String.concat ", "
             (List.map (fun (p, ms) -> Fmt.str "%S: %.3f" p ms) r.jphases))
      in
      let alloc =
        Fmt.str "{%s}"
          (String.concat ", "
             (List.map (fun (p, (b, _)) -> Fmt.str "%S: %.0f" p b) r.jgc))
      in
      let minors =
        Fmt.str "{%s}"
          (String.concat ", "
             (List.map (fun (p, (_, m)) -> Fmt.str "%S: %d" p m) r.jgc))
      in
      Fmt.str "    {%s}"
        (String.concat ", "
           ([
              field "bench" (Fmt.str "%S" r.jbench);
              field "scenario" (Fmt.str "%S" r.jscenario);
              field "scale" (string_of_int r.jscale);
              field "rows" (string_of_int r.jrows);
            ]
           @ opt_ms "query_ms" r.jquery_ms
           @ opt_ms "rpnosa_ms" r.jrpnosa_ms
           @ [
               field "rp_ms" (Fmt.str "%.3f" r.jrp_ms);
               field "phases" phases;
               field "alloc_bytes" alloc;
               field "minor_collections" minors;
             ]))
    in
    (* provenance: enough to tell two committed baselines apart *)
    let git_commit =
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try input_line ic with End_of_file -> "unknown" in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> line
        | _ -> "unknown")
      with _ -> "unknown"
    in
    let hostname = try Unix.gethostname () with _ -> "unknown" in
    output_string oc
      (Fmt.str
         "{\n\
         \  \"meta\": {\"git_commit\": %S, \"hostname\": %S, \"ocaml\": %S, \
          \"word_size\": %d},\n"
         git_commit hostname Sys.ocaml_version Sys.word_size);
    output_string oc
      (Fmt.str "  \"config\": {\"partitions\": %d},\n" !partitions);
    output_string oc "  \"records\": [\n";
    output_string oc
      (String.concat ",\n" (List.rev_map record !json_records));
    output_string oc "\n  ]";
    if !obs_records <> [] then begin
      let obs_rec r =
        Fmt.str
          "    {\"scenario\": %S, \"scale\": %d, \"disabled_ns\": %.2f, \
           \"records_per_explain\": %d, \"off_ms\": %.3f, \"debug_ms\": %.3f, \
           \"debug_overhead_pct\": %.2f, \"disabled_overhead_pct\": %.4f, \
           \"export_ms\": %.4f}"
          r.oscenario r.oscale r.odisabled_ns r.orecords_per_explain r.ooff_ms
          r.odebug_ms r.odebug_overhead_pct r.odisabled_overhead_pct
          r.oexport_ms
      in
      output_string oc ",\n  \"obs\": [\n";
      output_string oc
        (String.concat ",\n" (List.rev_map obs_rec !obs_records));
      output_string oc "\n  ]"
    end;
    if !approx_records <> [] then begin
      let approx_rec r =
        Fmt.str
          "    {\"scenario\": %S, \"scale\": %d, \"rows\": %d, \
           \"exact_ms\": %.3f, \"sampled_ms\": %.3f, \"topk_ms\": %.3f, \
           \"combined_ms\": %.3f, \"speedup\": %.2f, \"confidence\": %.4f, \
           \"skipped\": %d, \"prefix_ok\": %b}"
          r.xscenario r.xscale r.xrows r.xexact_ms r.xsampled_ms r.xtopk_ms
          r.xcombined_ms r.xspeedup r.xconfidence r.xskipped r.xprefix_ok
      in
      output_string oc ",\n  \"approx\": [\n";
      output_string oc
        (String.concat ",\n" (List.rev_map approx_rec !approx_records));
      output_string oc "\n  ]"
    end;
    if !recover_records <> [] then begin
      let recover_rec r =
        Fmt.str
          "    {\"scenario\": %S, \"scale\": %d, \"rows\": %d, \
           \"checkpoint_restore_ms\": %.3f, \"source_recompute_ms\": %.3f, \
           \"speedup\": %.2f, \"plain_rp_ms\": %.3f, \"spill_rp_ms\": %.3f, \
           \"spill_overhead_pct\": %.2f, \"spill_batches\": %d, \
           \"identical\": %b}"
          r.rscenario r.rscale r.rrows r.rckpt_ms r.rsrc_ms r.rspeedup
          r.rplain_rp_ms r.rspill_rp_ms r.rspill_pct r.rspill_batches
          r.ridentical
      in
      output_string oc ",\n  \"recover\": [\n";
      output_string oc
        (String.concat ",\n" (List.rev_map recover_rec !recover_records));
      output_string oc "\n  ]"
    end;
    if !chaos_records <> [] then begin
      let chaos_rec r =
        Fmt.str
          "    {\"scenario\": %S, \"scale\": %d, \"unarmed_query_ms\": %.3f, \
           \"armed_query_ms\": %.3f, \"unarmed_rp_ms\": %.3f, \
           \"armed_rp_ms\": %.3f, \"retries\": %d, \"faults\": %d, \
           \"identical\": %b}"
          r.hscenario r.hscale r.hunarmed_query_ms r.harmed_query_ms
          r.hunarmed_rp_ms r.harmed_rp_ms r.hretries r.hfaults r.hidentical
      in
      output_string oc ",\n  \"chaos\": [\n";
      output_string oc
        (String.concat ",\n" (List.rev_map chaos_rec !chaos_records));
      output_string oc "\n  ]"
    end;
    output_string oc "\n}\n";
    close_out oc;
    Fmt.pr "@.json summary written to %s (%d records)@." !json_file
      (List.length !json_records + List.length !chaos_records
      + List.length !obs_records + List.length !approx_records
      + List.length !recover_records)
  end

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
  Engine.Exec.run ~config:(engine_config ()) ?parent phi.Whynot.Question.db
    phi.Whynot.Question.query

let db_rows (inst : Scenarios.Scenario.instance) =
  let phi = inst.Scenarios.Scenario.question in
  List.fold_left
    (fun acc (_, rel) -> acc + Nested.Relation.cardinal rel)
    0
    (Nested.Relation.Db.tables phi.Whynot.Question.db)

(* --- Figures 8 and 9: runtime vs dataset size ---------------------------- *)

let fig_scaling ~title ~csv_target ~scenarios ~scales () =
  Fmt.pr "@.== %s ==@." title;
  Fmt.pr "%-6s %-6s %-8s %-10s %-10s %-8s@." "scen" "scale" "rows" "query ms"
    "RP ms" "factor";
  List.iter
    (fun name ->
      let s = scenario name in
      List.iter
        (fun scale ->
          let inst = instance ~scale s in
          (* Settle the heap first so one measurement does not pay for
             garbage another produced; query latency is min-of-3 (the
             first rep also charges any one-time arena conversion). *)
          Gc.full_major ();
          let q_ms =
            List.fold_left
              (fun acc _ ->
                let _, ms =
                  time_span "bench.query" (fun sp -> run_query ~parent:sp inst)
                in
                Float.min acc ms)
              Float.infinity [ 1; 2; 3; 4; 5 ]
          in
          Gc.full_major ();
          (* Best-of-3 for the pipeline too: the sub-millisecond phases
             are otherwise dominated by timer/GC noise.  Totals and
             per-phase figures each take the minimum across reps. *)
          let reps =
            List.map
              (fun _ ->
                Gc.full_major ();
                run_rp inst)
              [ 1; 2; 3; 4; 5 ]
          in
          let rp =
            List.fold_left
              (fun b r ->
                if
                  Obs.Span.duration_ms r.Whynot.Pipeline.span
                  < Obs.Span.duration_ms b.Whynot.Pipeline.span
                then r
                else b)
              (List.hd reps) (List.tl reps)
          in
          let rp_ms = Obs.Span.duration_ms rp.Whynot.Pipeline.span in
          let phase_mins =
            List.map
              (fun (p, ms) ->
                ( p,
                  List.fold_left
                    (fun acc r ->
                      match
                        List.assoc_opt p
                          (Whynot.Pipeline.phase_durations_ms r)
                      with
                      | Some m -> Float.min acc m
                      | None -> acc)
                    ms (List.tl reps) ))
              (Whynot.Pipeline.phase_durations_ms (List.hd reps))
          in
          Fmt.pr "%-6s %-6d %-8d %-10.2f %-10.2f %-8.1f@." name scale
            (db_rows inst) q_ms rp_ms
            (rp_ms /. Float.max q_ms 0.001);
          csv csv_target
            ("scenario,scale,rows,query_ms,rp_ms," ^ phase_header)
            (Fmt.str "%s,%d,%d,%.3f,%.3f,%s" name scale (db_rows inst) q_ms
               rp_ms
               (String.concat ","
                  (List.map (fun (_, ms) -> Fmt.str "%.3f" ms) phase_mins)));
          add_json
            {
              jbench = csv_target;
              jscenario = name;
              jscale = scale;
              jrows = db_rows inst;
              jquery_ms = Some q_ms;
              jrpnosa_ms = None;
              jrp_ms = rp_ms;
              jphases = phase_mins;
              jgc = Whynot.Pipeline.phase_gc rp;
            })
        scales)
    scenarios

let fig8 ?(scales = [ 1; 2; 4; 8; 16; 32 ]) () =
  fig_scaling ~title:"Figure 8: DBLP runtime vs dataset size" ~csv_target:"fig8"
    ~scenarios:[ "D1"; "D2"; "D3"; "D4"; "D5" ]
    ~scales ()

let fig9 ?(scales = [ 1; 2; 4; 8; 16; 32 ]) () =
  fig_scaling ~title:"Figure 9: Twitter runtime vs dataset size" ~csv_target:"fig9"
    ~scenarios:[ "T1"; "T2"; "T3"; "T4"; "TASD" ]
    ~scales ()

(* --- Figure 10: TPC-H query vs RPnoSA vs RP ------------------------------ *)

let fig10 ?(scale = 2) () =
  Fmt.pr "@.== Figure 10: TPC-H runtime (scale %d) ==@." scale;
  Fmt.pr "%-6s %-10s %-11s %-9s %-10s %-8s@." "scen" "query ms" "RPnoSA ms"
    "RP ms" "f(noSA)" "f(RP)";
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      let _, q_ms = time_span "bench.query" (fun sp -> run_query ~parent:sp inst) in
      let rpnosa = run_rpnosa inst in
      let nosa_ms = Obs.Span.duration_ms rpnosa.Whynot.Pipeline.span in
      let rp = run_rp inst in
      let rp_ms = Obs.Span.duration_ms rp.Whynot.Pipeline.span in
      Fmt.pr "%-6s %-10.2f %-11.2f %-9.2f %-10.1f %-8.1f@." name q_ms nosa_ms
        rp_ms
        (nosa_ms /. Float.max q_ms 0.001)
        (rp_ms /. Float.max q_ms 0.001);
      csv "fig10"
        ("scenario,query_ms,rpnosa_ms,rp_ms," ^ phase_header)
        (Fmt.str "%s,%.3f,%.3f,%.3f,%s" name q_ms nosa_ms rp_ms (phase_cols rp));
      add_json
        {
          jbench = "fig10";
          jscenario = name;
          jscale = scale;
          jrows = db_rows inst;
          jquery_ms = Some q_ms;
          jrpnosa_ms = Some nosa_ms;
          jrp_ms = rp_ms;
          jphases = Whynot.Pipeline.phase_durations_ms rp;
          jgc = Whynot.Pipeline.phase_gc rp;
        })
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
  Fmt.pr "%-6s %-6s %-8s %-10s@." "scen" "maxSA" "used" "RP ms";
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
          let ms = Obs.Span.duration_ms result.Whynot.Pipeline.span in
          Fmt.pr "%-6s %-6d %-8d %-10.2f@." name max_sas
            (List.length result.Whynot.Pipeline.sas)
            ms;
          csv "fig11"
            ("scenario,max_sas,used_sas,rp_ms," ^ phase_header)
            (Fmt.str "%s,%d,%d,%.3f,%s" name max_sas
               (List.length result.Whynot.Pipeline.sas) ms (phase_cols result));
          add_json
            {
              jbench = "fig11";
              jscenario = Fmt.str "%s/%dsa" name max_sas;
              jscale = scale;
              jrows = db_rows inst;
              jquery_ms = None;
              jrpnosa_ms = None;
              jrp_ms = ms;
              jphases = Whynot.Pipeline.phase_durations_ms result;
              jgc = Whynot.Pipeline.phase_gc result;
            })
        (if name = "Q3" then [ 1; 2; 4; 8; 12 ] else [ 1; 2; 3; 4 ]))
    [ "TASD"; "D1"; "T3"; "D4"; "Q3" ]

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
  (* empirical cross-check over all scenarios: the operator types each
     approach actually blames stay within its Table 3 row *)
  let found approach_sets q =
    List.sort_uniq compare
      (List.concat_map
         (fun set ->
           List.filter_map
             (fun id ->
               Option.map
                 (fun (op : Nrab.Query.t) -> Nrab.Query.op_type op.Nrab.Query.node)
                 (Nrab.Query.find_op q id))
             set)
         approach_sets)
  in
  let violations = ref 0 in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = instance s in
      let phi = inst.Scenarios.Scenario.question in
      let q = phi.Whynot.Question.query in
      let fragment = Nrab.Fragment.classify q in
      let wn_types =
        found (List.map Baselines.Explanation_set.op_list (Baselines.Wnpp.explanations phi)) q
      in
      let rp_types = found (Whynot.Pipeline.explanation_sets (run_rp inst)) q in
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
  Fmt.pr "empirical check over all scenarios: %d violations@." !violations

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
  let types_of sets =
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
  in
  let w = types_of wnpp_sets
  and n = types_of rpnosa_sets
  and r = types_of rp_sets in
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
  Fmt.pr "%-6s %-14s %-14s %-10s@." "scen" "RP" "no-revalidate" "spurious";
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
      Fmt.pr "%-6s %-14d %-14d %-10d@." s.Scenarios.Scenario.name
        (List.length with_rv.Whynot.Pipeline.explanations)
        (List.length without_rv.Whynot.Pipeline.explanations)
        (List.length spurious))
    Scenarios.Registry.all

(* --- Chaos: fault-injection overhead and retry recovery -------------------

   Two questions, two columns per scenario:
   - unarmed: what do the injection sites cost when nothing is armed?
     (one atomic load per site consultation — this column should match
     the plain engine/pipeline numbers of the other targets);
   - armed: with a deterministic transient fault on ~5%% of task
     attempts (Flaky, period 20) and a retry budget, runs must still
     complete, produce identical results, and the overhead is the
     recomputed attempts.  Backoff is zeroed so the column measures
     recomputation, not sleeping. *)

let bench_chaos ?(scale = 2) () =
  Fmt.pr "@.== Chaos: unarmed-site overhead and armed-retry recovery (scale %d) ==@."
    scale;
  Fmt.pr "%-6s %-12s %-12s %-12s %-12s %-8s %-7s %-9s@." "scen" "query ms"
    "query+chaos" "RP ms" "RP+chaos" "retries" "faults" "identical";
  let chaos_exn = Engine.Fault.Transient (Failure "chaos: injected") in
  let retry = Engine.Fault.retries ~base_backoff_ms:0.0 ~max_backoff_ms:0.0 3 in
  let reps = 5 in
  let median f =
    (* first call outside the timed reps warms caches (and, armed,
       checks the run survives); then the median of [reps] timings *)
    let r0 = f () in
    let times = Array.init reps (fun _ -> snd (time_span "bench.chaos" (fun _ -> f ()))) in
    Array.sort compare times;
    (r0, times.(reps / 2))
  in
  let retries_c = Obs.Metrics.counter "engine.task.retries" in
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      let phi = inst.Scenarios.Scenario.question in
      let run_query_with cfg () =
        fst (Engine.Exec.run ~config:cfg phi.Whynot.Question.db phi.Whynot.Question.query)
      in
      let run_rp_with ~retry () =
        Whynot.Pipeline.explain ~retry
          ~alternatives:inst.Scenarios.Scenario.alternatives phi
      in
      Obs.Faultinject.reset ();
      let plain_rel, unarmed_q = median (run_query_with (engine_config ())) in
      let plain_rp, unarmed_rp =
        median (run_rp_with ~retry:Engine.Fault.no_retry)
      in
      let retries0 = Obs.Metrics.Counter.value retries_c in
      Obs.Faultinject.arm "engine.partition"
        (Obs.Faultinject.Flaky { period = 20; exn_ = chaos_exn });
      let armed_rel, armed_q =
        median (run_query_with { (engine_config ()) with Engine.Exec.retry })
      in
      Obs.Faultinject.disarm "engine.partition";
      Obs.Faultinject.arm "tracing.relaxed"
        (Obs.Faultinject.Flaky { period = 2; exn_ = chaos_exn });
      Obs.Faultinject.arm "tracing.shared"
        (Obs.Faultinject.Flaky { period = 2; exn_ = chaos_exn });
      let armed_rp, armed_rp_ms = median (run_rp_with ~retry) in
      let faults =
        Obs.Faultinject.fired "engine.partition"
        + Obs.Faultinject.fired "tracing.relaxed"
        + Obs.Faultinject.fired "tracing.shared"
      in
      Obs.Faultinject.reset ();
      let retries = Obs.Metrics.Counter.value retries_c - retries0 in
      let identical =
        Nested.Value.compare (Nested.Relation.data plain_rel)
          (Nested.Relation.data armed_rel)
        = 0
        && Whynot.Pipeline.explanation_sets plain_rp
           = Whynot.Pipeline.explanation_sets armed_rp
      in
      Fmt.pr "%-6s %-12.3f %-12.3f %-12.3f %-12.3f %-8d %-7d %-9b@." name
        unarmed_q armed_q unarmed_rp armed_rp_ms retries faults identical;
      csv "chaos"
        "scenario,scale,unarmed_query_ms,armed_query_ms,unarmed_rp_ms,armed_rp_ms,retries,faults,identical"
        (Fmt.str "%s,%d,%.3f,%.3f,%.3f,%.3f,%d,%d,%b" name scale unarmed_q
           armed_q unarmed_rp armed_rp_ms retries faults identical);
      add_chaos
        {
          hscenario = name;
          hscale = scale;
          hunarmed_query_ms = unarmed_q;
          harmed_query_ms = armed_q;
          hunarmed_rp_ms = unarmed_rp;
          harmed_rp_ms = armed_rp_ms;
          hretries = retries;
          hfaults = faults;
          hidentical = identical;
        })
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

   The headline acceptance number is [disabled_overhead_pct]: every
   record an explain would emit, charged at the disabled-call price, as
   a percentage of the logging-off RP time — the overhead the
   instrumentation adds to a server running at the default Info level.
   Gated like chaos (never runs implicitly): it flips the process-global
   log level and sink set mid-run. *)

let bench_obs ?(scale = 4) () =
  Fmt.pr "@.== Obs: logging and export overhead (scale %d) ==@." scale;
  Fmt.pr "%-6s %-12s %-9s %-10s %-10s %-10s %-12s %-10s@." "scen"
    "disabled ns" "records" "off ms" "debug ms" "debug %" "disabled %"
    "export ms";
  let saved_level = Obs.Log.level () in
  let reps = 5 in
  let median_ms f =
    ignore (f ());
    let times =
      Array.init reps (fun _ -> snd (time_span "bench.obs" (fun _ -> f ())))
    in
    Array.sort compare times;
    times.(reps / 2)
  in
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
      let debug_pct = 100. *. (debug_ms -. off_ms) /. Float.max off_ms 1e-9 in
      let disabled_pct =
        100. *. (float_of_int records *. disabled_ns)
        /. Float.max (off_ms *. 1e6) 1e-9
      in
      Fmt.pr "%-6s %-12.2f %-9d %-10.3f %-10.3f %-10.2f %-12.4f %-10.4f@."
        name disabled_ns records off_ms debug_ms debug_pct disabled_pct
        export_ms;
      csv "obs"
        "scenario,scale,disabled_ns,records_per_explain,off_ms,debug_ms,debug_overhead_pct,disabled_overhead_pct,export_ms"
        (Fmt.str "%s,%d,%.2f,%d,%.3f,%.3f,%.2f,%.4f,%.4f" name scale
           disabled_ns records off_ms debug_ms debug_pct disabled_pct export_ms);
      add_obs
        {
          oscenario = name;
          oscale = scale;
          odisabled_ns = disabled_ns;
          orecords_per_explain = records;
          ooff_ms = off_ms;
          odebug_ms = debug_ms;
          odebug_overhead_pct = debug_pct;
          odisabled_overhead_pct = disabled_pct;
          oexport_ms = export_ms;
        })
    [ "D1"; "T2"; "Q3" ];
  Obs.Log.remove_sink "bench.obs.count";
  Obs.Log.clear_ring ();
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
  Fmt.pr "%-6s %-6s %-8s %-10s %-11s %-9s %-11s %-8s %-6s %-8s %-7s@." "scen"
    "scale" "rows" "exact ms" "sampled ms" "topk ms" "combined" "speedup"
    "conf" "skipped" "prefix";
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
          let run ?cfg () =
            Gc.full_major ();
            Whynot.Pipeline.explain
              ?approx:(Option.map Whynot.Approx.start cfg)
              ~alternatives:inst.Scenarios.Scenario.alternatives phi
          in
          (* min-of-3 per rung, interleaved so a noisy window taxes all
             rungs rather than whichever was sweeping *)
          let best ?cfg () =
            let dur r = Obs.Span.duration_ms r.Whynot.Pipeline.span in
            let reps = List.map (fun _ -> run ?cfg ()) [ 1; 2; 3 ] in
            List.fold_left
              (fun b r -> if dur r < dur b then r else b)
              (List.hd reps) (List.tl reps)
          in
          let exact = best () in
          let sampled = best ~cfg:sampled_cfg () in
          let topk = best ~cfg:topk_cfg () in
          let combined = best ~cfg:combined_cfg () in
          let ms r = Obs.Span.duration_ms r.Whynot.Pipeline.span in
          let speedup = ms exact /. Float.max (ms combined) 1e-6 in
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
          let prefix_ok = is_prefix (keys topk) (keys exact) in
          let confidence, skipped =
            match combined.Whynot.Pipeline.approx with
            | Some r -> (r.Whynot.Approx.confidence, r.Whynot.Approx.skipped)
            | None -> (1.0, 0)
          in
          Fmt.pr
            "%-6s %-6d %-8d %-10.2f %-11.2f %-9.2f %-11.2f %-8.1f %-6.3f \
             %-8d %-7b@."
            name scale (db_rows inst) (ms exact) (ms sampled) (ms topk)
            (ms combined) speedup confidence skipped prefix_ok;
          csv "approx"
            "scenario,scale,rows,exact_ms,sampled_ms,topk_ms,combined_ms,speedup,confidence,skipped,prefix_ok"
            (Fmt.str "%s,%d,%d,%.3f,%.3f,%.3f,%.3f,%.2f,%.4f,%d,%b" name scale
               (db_rows inst) (ms exact) (ms sampled) (ms topk) (ms combined)
               speedup confidence skipped prefix_ok);
          add_approx
            {
              xscenario = name;
              xscale = scale;
              xrows = db_rows inst;
              xexact_ms = ms exact;
              xsampled_ms = ms sampled;
              xtopk_ms = ms topk;
              xcombined_ms = ms combined;
              xspeedup = speedup;
              xconfidence = confidence;
              xskipped = skipped;
              xprefix_ok = prefix_ok;
            })
        scales)
    [ "D1"; "D3"; "T2" ]

(* --- Recover: checkpoint restore vs lineage recompute, spill cost ---------

   Two claims, two column groups per scenario:
   - restore: lose one materialized shuffle output partition and restore
     it.  With the barrier checkpoint on disk the restore is one framed
     file read; with the file gone (executor disk lost) the same fetch
     fails its open, is counted corrupt, and falls back to the lineage
     closure — a full re-shuffle of the upstream input.  Lineage
     truncation is exactly the gap between those two columns.
   - spill: the full explanation pipeline under a 4 KiB memory watermark
     (every intermediate spilled to disk and restored on access) vs
     resident, with byte-identical explanation sets required. *)

let bench_recover ?(scale = 4) ?(replicate = 20_000) () =
  Fmt.pr "@.== Recover: checkpoint restore vs lineage recompute (scale %d) ==@."
    scale;
  Fmt.pr "%-6s %-8s %-10s %-10s %-8s %-10s %-10s %-8s %-9s@." "scen" "rows"
    "ckpt ms" "src ms" "speedup" "RP ms" "RP+spill" "spill%" "identical";
  let base = Filename.temp_file "whynot-bench-recover" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  Fun.protect
    ~finally:(fun () ->
      Engine.Checkpoint.sweep ();
      try Unix.rmdir base with Unix.Unix_error _ -> ())
  @@ fun () ->
  let reps = 5 in
  let median times =
    Array.sort compare times;
    times.(Array.length times / 2)
  in
  let clear_checkpoint_files () =
    match Engine.Checkpoint.run_dir () with
    | None -> ()
    | Some dir ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".ckpt" then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)
  in
  List.iter
    (fun name ->
      let inst = instance ~scale (scenario name) in
      let phi = inst.Scenarios.Scenario.question in
      (* the shuffle input: the scenario's largest base table (a
         homogeneous batch, as real shuffle outputs are — mixing tables
         would force the boxed-value codec fallback), replicated to a
         workload where restore cost is measurable *)
      let rows_of rel =
        match Nested.Relation.data rel with
        | Nested.Value.Bag items ->
          List.concat_map (fun (v, m) -> List.init m (fun _ -> v)) items
        | v -> [ v ]
      in
      let base_rows =
        List.fold_left
          (fun best (_, rel) ->
            let rs = rows_of rel in
            if List.length rs > List.length best then rs else best)
          []
          (Nested.Relation.Db.tables phi.Whynot.Question.db)
      in
      let copies = max 1 (replicate / max 1 (List.length base_rows)) in
      let rows =
        List.concat (List.init copies (fun _ -> base_rows))
      in
      let nrows = List.length rows in
      let parts = max 16 !partitions in
      let key_of v = Nested.Value.Int (Hashtbl.hash v land 0xff) in
      let hash_of b =
        Array.map
          (fun v -> Engine.Dataset.value_hash (key_of v))
          (Engine.Columnar.to_values b)
      in
      let ckpt_ms, src_ms =
        Engine.Checkpoint.with_config
          (Some
             {
               Engine.Checkpoint.dir = Some base;
               checkpoint_shuffles = true;
               max_memory_bytes = None;
             })
        @@ fun () ->
        let source = Engine.Dataset.distribute ~partitions:parts rows in
        let shuffled, _ =
          Engine.Dataset.shuffle_hashed ~barrier:(Fmt.str "bench-%s" name)
            ~partitions:parts hash_of source
        in
        ignore (Engine.Dataset.to_list shuffled : Nested.Value.t list);
        let lose_all () =
          for i = 0 to parts - 1 do
            Engine.Dataset.recover_partition shuffled i
          done
        in
        (* force every partition fetch without paying the (identical in
           both arms, and much larger) batch→rows conversion *)
        let force () =
          ignore
            (Engine.Dataset.map_cpartitions ~label:"bench-force" Fun.id
               shuffled
              : Engine.Dataset.t)
        in
        (* arm 1: the whole stage output is lost (executor gone) and the
           checkpoint files answer the restore — [parts] framed reads *)
        let ckpt_times =
          Array.init reps (fun _ ->
              lose_all ();
              snd (time_span "bench.recover.ckpt" (fun _ -> force ())))
        in
        (* arm 2: the files are gone too — every fetch goes corrupt and
           replays the full upstream lineage, one re-shuffle of the
           whole input per lost partition (plus the re-checkpoint, also
           timed: the rewrite is part of the real recovery path) *)
        let src_times =
          Array.init reps (fun _ ->
              clear_checkpoint_files ();
              lose_all ();
              snd (time_span "bench.recover.src" (fun _ -> force ())))
        in
        (median ckpt_times, median src_times)
      in
      (* spill: full pipeline under a starvation watermark vs resident *)
      let run_rp_plain () =
        Engine.Checkpoint.with_config None (fun () -> run_rp inst)
      in
      let run_rp_spill () =
        Engine.Checkpoint.with_config
          (Some
             {
               Engine.Checkpoint.dir = Some base;
               checkpoint_shuffles = false;
               max_memory_bytes = Some 4096;
             })
          (fun () -> run_rp inst)
      in
      let spill_batches_c = Obs.Metrics.counter "engine.spill.batches" in
      let plain0 = run_rp_plain () in
      let plain_times =
        Array.init reps (fun _ ->
            snd (time_span "bench.recover.plain" (fun _ -> run_rp_plain ())))
      in
      let batches0 = Obs.Metrics.Counter.value spill_batches_c in
      let spill0 = run_rp_spill () in
      let spill_times =
        Array.init reps (fun _ ->
            snd (time_span "bench.recover.spill" (fun _ -> run_rp_spill ())))
      in
      let spill_batches =
        Obs.Metrics.Counter.value spill_batches_c - batches0
      in
      let plain_rp_ms = median plain_times
      and spill_rp_ms = median spill_times in
      let spill_pct =
        100. *. (spill_rp_ms -. plain_rp_ms) /. Float.max plain_rp_ms 1e-9
      in
      let identical =
        Whynot.Pipeline.explanation_sets plain0
        = Whynot.Pipeline.explanation_sets spill0
      in
      let speedup = src_ms /. Float.max ckpt_ms 1e-9 in
      Fmt.pr "%-6s %-8d %-10.3f %-10.3f %-8.1f %-10.3f %-10.3f %-8.1f %-9b@."
        name nrows ckpt_ms src_ms speedup plain_rp_ms spill_rp_ms spill_pct
        identical;
      csv "recover"
        "scenario,scale,rows,checkpoint_restore_ms,source_recompute_ms,speedup,plain_rp_ms,spill_rp_ms,spill_overhead_pct,spill_batches,identical"
        (Fmt.str "%s,%d,%d,%.3f,%.3f,%.2f,%.3f,%.3f,%.2f,%d,%b" name scale
           nrows ckpt_ms src_ms speedup plain_rp_ms spill_rp_ms spill_pct
           spill_batches identical);
      add_recover
        {
          rscenario = name;
          rscale = scale;
          rrows = nrows;
          rckpt_ms = ckpt_ms;
          rsrc_ms = src_ms;
          rspeedup = speedup;
          rplain_rp_ms = plain_rp_ms;
          rspill_rp_ms = spill_rp_ms;
          rspill_pct = spill_pct;
          rspill_batches = spill_batches;
          ridentical = identical;
        })
    [ "D1"; "T2"; "Q3" ]

(* Smallest-scale pass over every bench family — a CI guard that the
   bench harness itself keeps working, cheap enough for [make verify].
   The recover rung doubles as the spill smoke: it runs the pipeline
   under a starvation watermark and checks the explanations match. *)
let smoke () =
  fig8 ~scales:[ 1 ] ();
  fig9 ~scales:[ 1 ] ();
  fig10 ~scale:1 ();
  fig11 ~scale:1 ();
  bench_approx ~scales:[ 1 ] ();
  bench_recover ~scale:1 ~replicate:2_000 ()

(* --- Driver ---------------------------------------------------------------- *)

let () =
  let usage fmt =
    Fmt.kstr
      (fun m ->
        Fmt.epr "main.exe: %s@." m;
        exit 2)
      fmt
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | "-csv" :: rest ->
      csv_enabled := true;
      parse acc rest
    | (("-json" | "--json") as flag) :: rest -> (
      match rest with
      | file :: rest ->
        json_file := file;
        parse acc rest
      | [] -> usage "%s needs a file name" flag)
    | (("-partitions" | "--partitions") as flag) :: rest -> (
      match rest with
      | n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
          partitions := max 1 n;
          parse acc rest
        | None -> usage "%s needs an integer, got %S" flag n)
      | [] -> usage "%s needs an integer" flag)
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  (* Families in run order.  [true] marks a family that runs only when
     named (or under "all"), never as part of a bare invocation: smoke is
     a targeted run, approx scales past the default sweep, recover
     redirects checkpoint scratch to a bench temp dir, and chaos and obs
     flip process-global fault sites, log level and sink set. *)
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
      ("recover", true, fun () -> bench_recover ());
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
  write_json ();
  close_csv ()
