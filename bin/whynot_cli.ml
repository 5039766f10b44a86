(* Command-line driver: run a scenario (or all of them) and print the
   why-not explanations of RP, RPnoSA, WN++, and Conseil.

   Observability: [--metrics] prints the four-phase breakdown
   (backtrace / alternatives / tracing / msr) after each scenario plus
   the metrics registry at the end; [--trace FILE] additionally records
   one span tree per scenario (engine operators included) and writes a
   Chrome trace_event JSON file for chrome://tracing / Perfetto. *)

(* A usage error found after the options parse: the message on stderr
   and exit 2, as for an unknown option. *)
let usage_error msg =
  prerr_endline ("whynot_cli: " ^ msg);
  exit 2

(* [-log-level L] turns the structured log on at threshold L, mirrored
   to stderr as text (the CLI has no log file of its own). *)
let apply_log_level = function
  | "" -> ()
  | level -> (
    match String.lowercase_ascii level with
    | "off" | "none" -> Obs.Log.set_level None
    | s -> (
      match Obs.Log.level_of_string s with
      | Some l ->
        Obs.Log.set_level (Some l);
        Obs.Log.add_sink "stderr" Obs.Log.stderr_text_sink
      | None ->
        usage_error
          (Fmt.str "unknown log level %S (debug|info|warn|error|off)" level)))

(* Declares one option under both of its spellings: [-name] with [doc],
   and [--name], whose help line points back at [-name].  [arg] is the
   value placeholder the help shows ("" for a flag). *)
let both ?(arg = "") name action doc =
  let shown = if arg = "" then "" else arg ^ "  " in
  [
    ("-" ^ name, action, shown ^ doc);
    ("--" ^ name, action, (if arg = "" then " " else shown) ^ "same as -" ^ name);
  ]

(* Parse a verb's arguments (after the verb) the way [Arg.parse] treats a
   whole command line: [-help] prints the usage to stdout and exits 0, an
   unknown option or argument prints the message and usage to stderr and
   exits 2. *)
let parse_args args spec anon usage =
  match
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list (Sys.argv.(0) :: args))
      spec anon usage
  with
  | () -> ()
  | exception Arg.Help msg ->
    print_string msg;
    exit 0
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 2

let unexpected a = raise (Arg.Bad ("unexpected argument " ^ a))

let write_prometheus = function
  | "" -> ()
  | path ->
    let oc = open_out path in
    output_string oc (Obs.Export.prometheus ());
    close_out oc;
    Fmt.pr "metrics written to %s@." path

let pp_phase_breakdown ppf (rp : Whynot.Pipeline.result) =
  let total = Obs.Span.duration_ms rp.Whynot.Pipeline.span in
  let phases = Whynot.Pipeline.phase_durations_ms rp in
  let sum = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 phases in
  let pct ms = 100. *. ms /. Float.max total 1e-9 in
  Fmt.pf ppf "@[<v>phase breakdown (RP): total %.3f ms@," total;
  List.iter
    (fun (p, ms) -> Fmt.pf ppf "  %-14s %10.3f ms  %5.1f%%@," p ms (pct ms))
    phases;
  Fmt.pf ppf "  %-14s %10.3f ms  %5.1f%% of total@]" "sum" sum (pct sum)

let pp_approx_report ppf (r : Whynot.Approx.report) =
  Fmt.pf ppf "approx: mode=%s confidence=%.3f max_stride=%d%s%s"
    r.Whynot.Approx.mode r.Whynot.Approx.confidence r.Whynot.Approx.max_stride
    (match r.Whynot.Approx.top_k with
    | Some k -> Fmt.str " top_k=%d (skipped %d)" k r.Whynot.Approx.skipped
    | None -> "")
    (match r.Whynot.Approx.budget_ms with
    | Some b -> Fmt.str " budget_ms=%.0f" b
    | None -> "")

let run_scenario ~scale ~verbose ~metrics ~retries ~root
    ~approx_cfg (s : Scenarios.Scenario.t) =
  let inst = s.Scenarios.Scenario.make ~scale () in
  let phi = inst.Scenarios.Scenario.question in
  let q = phi.Whynot.Question.query in
  Fmt.pr "@.=== %s (%s): %s ===@." s.Scenarios.Scenario.name
    (Scenarios.Scenario.family_to_string s.Scenarios.Scenario.family)
    s.Scenarios.Scenario.description;
  Fmt.pr "query: %a@." Nrab.Query.pp q;
  Fmt.pr "why-not: %a@." Whynot.Nip.pp phi.Whynot.Question.missing;
  if not (Whynot.Question.is_proper phi) then
    Fmt.pr "WARNING: question is not proper (the answer is present)@.";
  (* Under --trace/--metrics, also execute the original query on the
     mini-DISC engine: its per-operator spans carry the
     input/output/shuffled cardinalities one reads off a Spark UI. *)
  (if metrics || Option.is_some root then begin
     let _, stats =
       Engine.Exec.run ?parent:root phi.Whynot.Question.db q
     in
     if metrics then Fmt.pr "engine stats (original query):@.%a@." Engine.Stats.pp stats
   end);
  (* The budget (if any) starts burning per scenario, not per process. *)
  let approx = Option.map Whynot.Approx.start approx_cfg in
  let rp =
    Whynot.Pipeline.explain ?approx ~retries ?parent:root
      ~alternatives:inst.Scenarios.Scenario.alternatives phi
  in
  let rpnosa =
    Whynot.Pipeline.explain ~retries ?parent:root ~use_sas:false phi
  in
  let wnpp = Baselines.Wnpp.explanations ?parent:root phi in
  let conseil = Baselines.Conseil.explanations ?parent:root phi in
  if metrics then begin
    Fmt.pr "%a@." pp_phase_breakdown rp;
    if verbose then Fmt.pr "span tree (RP):@.%a@." Obs.Span.pp_tree rp.Whynot.Pipeline.span
  end;
  if verbose then begin
    Fmt.pr "schema alternatives:@.";
    List.iter
      (fun (sa : Whynot.Alternatives.sa) ->
        Fmt.pr "  S%d: %s@." (sa.Whynot.Alternatives.index + 1)
          sa.Whynot.Alternatives.description)
      rp.Whynot.Pipeline.sas
  end;
  let pp_expls label expls =
    Fmt.pr "%-8s %s@." label
      (if expls = [] then "(none)"
       else
         String.concat ", "
           (List.map (Whynot.Explanation.to_string_with_query q) expls))
  in
  pp_expls "WN++:"
    (List.map
       (fun e ->
         Whynot.Explanation.make ~lb:0 ~ub:0
           (Baselines.Explanation_set.ops e))
       wnpp);
  pp_expls "Conseil:"
    (List.map
       (fun e ->
         Whynot.Explanation.make ~lb:0 ~ub:0
           (Baselines.Explanation_set.ops e))
       conseil);
  pp_expls "RPnoSA:" rpnosa.Whynot.Pipeline.explanations;
  pp_expls "RP:" rp.Whynot.Pipeline.explanations;
  Option.iter
    (fun r -> Fmt.pr "%a@." pp_approx_report r)
    rp.Whynot.Pipeline.approx;
  match inst.Scenarios.Scenario.gold with
  | None -> ()
  | Some gold ->
    let sets = Whynot.Pipeline.explanation_sets rp in
    let position g =
      let g = List.sort compare g in
      let rec go i = function
        | [] -> None
        | s :: rest -> if List.sort compare s = g then Some i else go (i + 1) rest
      in
      go 1 sets
    in
    List.iter
      (fun gset ->
        Fmt.pr "gold {%s}: %s@."
          (String.concat "," (List.map string_of_int gset))
          (match position gset with
          | Some p -> Fmt.str "found at position %d" p
          | None -> "MISSING"))
      gold

(* Ad-hoc mode: explain a why-not question over user-supplied JSON data,
   a query in either surface syntax (SQL-ish or s-expression,
   auto-detected), and an s-expression why-not pattern.

     whynot_cli explain -db data.json -query-file q.sql -whynot pattern.sexp \\
       [-alt table:a.b=c.d]... [-no-sas] [-no-revalidate]                  *)

(* A file that cannot be read, or a database that does not decode, is a
   usage error: one line on stderr, exit 2. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> usage_error msg

let read_db path =
  try Nested.Json.db_of_string (read_file path)
  with Nested.Json.Parse_error msg | Invalid_argument msg ->
    usage_error (Fmt.str "%s: invalid database: %s" path msg)

(* Compile query text through the frontend; on failure, print the
   caret-underlined diagnostic and exit non-zero. *)
let compile_query_text ~db text =
  let env = Frontend.Compile.env_of_db db in
  match Frontend.Compile.text ~env text with
  | Ok (q, ty) -> (q, ty)
  | Error d ->
    Fmt.epr "%s@." (Frontend.Diagnostic.render ~source:text d);
    exit 1

let parse_pattern_text text =
  match Whynot.Nip_syntax.parse text with
  | Ok nip -> nip
  | Error d ->
    Fmt.epr "%s@." (Frontend.Diagnostic.render ~source:text d);
    exit 1

(* The query can arrive inline (-query TEXT) or from a file
   (-query-file FILE). *)
let query_text_of_args ~query ~query_file =
  match (query, query_file) with
  | "", "" -> None
  | text, "" -> Some text
  | "", file -> Some (String.trim (read_file file))
  | _ -> usage_error "-query and -query-file are mutually exclusive"

let parse_alt (spec : string) : string * Nested.Path.t list =
  match String.split_on_char ':' spec with
  | [ table; group ] ->
    (table, List.map Nested.Path.of_string (String.split_on_char '=' group))
  | _ -> raise (Arg.Bad ("invalid -alt spec (want table:a.b=c.d): " ^ spec))

let run_explain args =
  let db_file = ref "" and query_file = ref "" and whynot_file = ref "" in
  let query_inline = ref "" in
  let alts = ref [] in
  let use_sas = ref true and revalidate = ref true in
  let metrics = ref false and trace_file = ref "" in
  let task_retries = ref 0 in
  let budget_ms = ref 0.0 in
  let sample_stride = ref 0 in
  let top_k = ref 0 in
  let log_level = ref "" in
  let prometheus_file = ref "" in
  let spec =
    List.concat
      [
        [ ("-db", Arg.Set_string db_file, "JSON database file") ];
        both "query" ~arg:"TEXT" (Arg.Set_string query_inline)
          "inline query (SQL-ish or s-expression, auto-detected)";
        both "query-file" ~arg:"FILE" (Arg.Set_string query_file)
          "query file (SQL-ish or s-expression, auto-detected)";
        [
          ( "-whynot",
            Arg.Set_string whynot_file,
            "why-not pattern file (s-expression)" );
          ( "-alt",
            Arg.String (fun s -> alts := parse_alt s :: !alts),
            "attribute alternatives, table:a.b=c.d" );
          ("-no-sas", Arg.Clear use_sas, "disable schema alternatives");
          ( "-no-revalidate",
            Arg.Clear revalidate,
            "disable re-validation (ablation)" );
        ];
        both "task-retries" ~arg:"N" (Arg.Set_int task_retries)
          "retry budget for transient task faults (default 0: fail fast)";
        both "budget-ms" ~arg:"MS" (Arg.Set_float budget_ms)
          "approximation budget: degrade exact → sampled → top-k-only as the \
           wall-clock budget burns (never aborts)";
        both "sample-stride" ~arg:"N" (Arg.Set_int sample_stride)
          "re-validate only every Nth traced row (1-in-N sampling; \
           explanations carry confidence 1/N)";
        both "top-k" ~arg:"K" (Arg.Set_int top_k)
          "rank only the K best explanations (early-terminating MSR)";
        both "metrics" (Arg.Set metrics) "print the per-phase timing breakdown";
        both "trace" ~arg:"FILE" (Arg.Set_string trace_file)
          "write a Chrome trace_event JSON file";
        both "log-level" ~arg:"LEVEL" (Arg.Set_string log_level)
          "structured-log threshold (debug|info|warn|error|off), mirrored \
           to stderr";
        both "prometheus" ~arg:"FILE" (Arg.Set_string prometheus_file)
          "write Prometheus-format metrics to FILE at the end";
      ]
  in
  parse_args args spec unexpected
    "whynot_cli explain -db FILE (-query TEXT | -query-file FILE) -whynot \
     FILE [options]";
  apply_log_level !log_level;
  if !db_file = "" || !whynot_file = "" then
    usage_error "explain needs -db, a query, and -whynot";
  let db = read_db !db_file in
  let query =
    match query_text_of_args ~query:!query_inline ~query_file:!query_file with
    | None -> usage_error "explain needs -query TEXT or -query-file FILE"
    | Some text -> fst (compile_query_text ~db text)
  in
  let missing = parse_pattern_text (String.trim (read_file !whynot_file)) in
  let phi = Whynot.Question.make ~query ~db ~missing in
  Fmt.pr "query:   %a@." Nrab.Query.pp query;
  Fmt.pr "why-not: %a@." Whynot.Nip.pp missing;
  (match Whynot.Question.check_missing phi with
  | Ok () -> ()
  | Error msg ->
    Fmt.epr "invalid why-not pattern: %s@." msg;
    exit 1);
  if not (Whynot.Question.is_proper phi) then
    Fmt.pr "WARNING: the answer is not actually missing@.";
  let approx =
    let cfg =
      {
        Whynot.Approx.budget_ms =
          (if !budget_ms > 0.0 then Some !budget_ms else None);
        sample_stride = (if !sample_stride > 1 then Some !sample_stride else None);
        top_k = (if !top_k > 0 then Some !top_k else None);
      }
    in
    if Whynot.Approx.is_exact cfg then None
    else Some (Whynot.Approx.start cfg)
  in
  let result =
    Whynot.Pipeline.explain ?approx ~use_sas:!use_sas ~revalidate:!revalidate
      ~retries:!task_retries
      ~alternatives:(List.rev !alts) phi
  in
  Fmt.pr "%a@." Whynot.Pipeline.pp_result result;
  Option.iter
    (fun r -> Fmt.pr "%a@." pp_approx_report r)
    result.Whynot.Pipeline.approx;
  if !metrics then Fmt.pr "%a@." pp_phase_breakdown result;
  if !trace_file <> "" then begin
    Obs.Trace_event.write_file !trace_file [ result.Whynot.Pipeline.span ];
    Fmt.pr "trace written to %s@." !trace_file
  end;
  write_prometheus !prometheus_file

(* Dry-run the frontend: compile a query (inline or from a file) against
   a schema — a scenario's or a JSON database's — and print its
   canonical forms without executing anything.

     whynot_cli parse -scenario RE -query "SELECT ..." [-whynot "(tuple ...)"]
     whynot_cli parse -db data.json -query-file q.sql                       *)
let run_parse args =
  let db_file = ref "" and scenario = ref "" and scale = ref 1 in
  let query_inline = ref "" and query_file = ref "" in
  let whynot_text = ref "" in
  let spec =
    List.concat
      [
        [
          ( "-db",
            Arg.Set_string db_file,
            "FILE  JSON database file (schema source)" );
          ( "-scenario",
            Arg.Set_string scenario,
            "NAME  use a scenario's database as the schema source" );
          ("-scale", Arg.Set_int scale, "N  scenario data scale (default 1)");
        ];
        both "query" ~arg:"TEXT" (Arg.Set_string query_inline)
          "inline query (SQL-ish or s-expression, auto-detected)";
        both "query-file" ~arg:"FILE" (Arg.Set_string query_file) "query file";
        [
          ( "-whynot",
            Arg.Set_string whynot_text,
            "TEXT  why-not pattern to check against the query's output type" );
        ];
      ]
  in
  parse_args args spec unexpected
    "whynot_cli parse (-db FILE | -scenario NAME) (-query TEXT | -query-file \
     FILE) [-whynot TEXT]";
  let db =
    match (!db_file, !scenario) with
    | "", "" -> usage_error "parse needs -db FILE or -scenario NAME"
    | file, "" -> read_db file
    | "", name -> (
      match Scenarios.Registry.find name with
      | None ->
        usage_error (Fmt.str "unknown scenario %S (try `whynot_cli list`)" name)
      | Some s ->
        let inst = s.Scenarios.Scenario.make ~scale:!scale () in
        inst.Scenarios.Scenario.question.Whynot.Question.db)
    | _ -> usage_error "-db and -scenario are mutually exclusive"
  in
  let text =
    match query_text_of_args ~query:!query_inline ~query_file:!query_file with
    | None -> usage_error "parse needs -query TEXT or -query-file FILE"
    | Some text -> text
  in
  let q, ty = compile_query_text ~db text in
  let env = Frontend.Compile.env_of_db db in
  (match Frontend.Print.to_sql ~env q with
  | sql -> Fmt.pr "sql:         %s@." sql
  | exception Frontend.Print.Unprintable _ -> ());
  Fmt.pr "sexp:        %s@." (Nrab.Parser.query_to_string q);
  Fmt.pr "fingerprint: %s@."
    (Serve.Fingerprint.to_hex (Serve.Fingerprint.query q));
  Fmt.pr "output type: %a@." Nested.Vtype.pp ty;
  match !whynot_text with
  | "" -> ()
  | text -> (
    let nip = parse_pattern_text text in
    match Whynot.Nip.check (Nested.Vtype.element ty) nip with
    | Ok () -> Fmt.pr "why-not:     %a (fits the output type)@." Whynot.Nip.pp nip
    | Error msg ->
      Fmt.epr "why-not pattern does not fit the output type: %s@." msg;
      exit 1)

let run_scenarios args =
  let scale = ref 1 in
  let verbose = ref false in
  let metrics = ref false in
  let trace_file = ref "" in
  let names = ref [] in
  let task_retries = ref 0 in
  let budget_ms = ref 0.0 in
  let sample_stride = ref 0 in
  let top_k = ref 0 in
  let log_level = ref "" in
  let prometheus_file = ref "" in
  let spec =
    List.concat
      [
        [
          ("-scale", Arg.Set_int scale, "data scale factor (default 1)");
          ("-v", Arg.Set verbose, "verbose (print schema alternatives)");
        ];
        both "budget-ms" ~arg:"MS" (Arg.Set_float budget_ms)
          "approximation budget for the RP run: degrade exact → sampled → \
           top-k-only as the wall-clock budget burns (never aborts)";
        both "sample-stride" ~arg:"N" (Arg.Set_int sample_stride)
          "re-validate only every Nth traced row (1-in-N sampling; \
           explanations carry confidence 1/N)";
        both "top-k" ~arg:"K" (Arg.Set_int top_k)
          "rank only the K best explanations (early-terminating MSR)";
        both "task-retries" ~arg:"N" (Arg.Set_int task_retries)
          "retry budget for transient task faults (default 0: fail fast)";
        both "metrics" (Arg.Set metrics)
          "print the per-phase timing breakdown after each scenario and the \
           metrics registry at the end";
        both "trace" ~arg:"FILE" (Arg.Set_string trace_file)
          "write a Chrome trace_event JSON file (open in chrome://tracing or \
           https://ui.perfetto.dev)";
        both "log-level" ~arg:"LEVEL" (Arg.Set_string log_level)
          "structured-log threshold (debug|info|warn|error|off), mirrored \
           to stderr";
        both "prometheus" ~arg:"FILE" (Arg.Set_string prometheus_file)
          "write Prometheus-format metrics to FILE at the end";
      ]
  in
  parse_args args spec
    (fun n -> names := n :: !names)
    "whynot_cli [scenario...] [--metrics] [--trace out.json]";
  apply_log_level !log_level;
  let approx_cfg =
    let cfg =
      {
        Whynot.Approx.budget_ms =
          (if !budget_ms > 0.0 then Some !budget_ms else None);
        sample_stride = (if !sample_stride > 1 then Some !sample_stride else None);
        top_k = (if !top_k > 0 then Some !top_k else None);
      }
    in
    if Whynot.Approx.is_exact cfg then None else Some cfg
  in
  let scenarios =
    match !names with
    | [] -> Scenarios.Registry.all
    | names ->
      List.filter_map
        (fun n ->
          match Scenarios.Registry.find n with
          | Some s -> Some s
          | None ->
            Fmt.epr "unknown scenario %S (try `whynot_cli list`)@." n;
            None)
        (List.rev names)
  in
  let tracing = !trace_file <> "" in
  let roots = ref [] in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let root =
        if tracing || !metrics then begin
          let sp =
            Obs.Span.start (Fmt.str "scenario:%s" s.Scenarios.Scenario.name)
          in
          roots := sp :: !roots;
          Some sp
        end
        else None
      in
      run_scenario ~scale:!scale ~verbose:!verbose ~metrics:!metrics
        ~retries:!task_retries ~root ~approx_cfg s;
      Option.iter Obs.Span.finish root)
    scenarios;
  if !metrics then
    Fmt.pr "@.== metrics registry ==@.%a@." Obs.Metrics.pp Obs.Metrics.default;
  write_prometheus !prometheus_file;
  if tracing then
    match Obs.Trace_event.write_file !trace_file (List.rev !roots) with
    | () ->
      Fmt.pr "@.trace written to %s (load in chrome://tracing or \
              https://ui.perfetto.dev)@."
        !trace_file
    | exception Sys_error msg -> Fmt.epr "@.cannot write trace: %s@." msg

let list_scenarios () =
  Fmt.pr "%-6s %-12s %-18s %s@." "name" "family" "operators" "description";
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      Fmt.pr "%-6s %-12s %-18s %s@." s.Scenarios.Scenario.name
        (Scenarios.Scenario.family_to_string s.Scenarios.Scenario.family)
        s.Scenarios.Scenario.operators s.Scenarios.Scenario.description)
    Scenarios.Registry.all

let () =
  at_exit Engine.Pool.shutdown_default;
  match Array.to_list Sys.argv with
  | _ :: "explain" :: rest -> run_explain rest
  | _ :: "parse" :: rest -> run_parse rest
  | _ :: "list" :: _ -> list_scenarios ()
  | _ :: rest -> run_scenarios rest
  | [] -> ()
