(* The engine's executor: runs an NRAB plan over partitioned datasets.

   Narrow operators (selection, projection, renaming, flattening, tuple
   nesting, per-tuple aggregation) run partition-local; blocking operators
   (joins, relation nesting, group aggregation, deduplication, difference)
   shuffle by key first, like a DISC system would.  The operators' column
   logic is [Kernel]'s, shared with data tracing; this module drives the
   partitions and shuffles around it.  The results agree with the
   reference evaluator [Nrab.Eval] — the test suite checks this. *)

open Nested
open Nrab
module C = Columnar

exception Engine_error of string

let err fmt = Fmt.kstr (fun m -> raise (Engine_error m)) fmt

(* Fired once per run, before any work: a run is what the pipeline's
   phase retry replays, so it is the unit a chaos test faults. *)
let site_run = Obs.Faultinject.register_site "engine.run"

(* Column resolution: an unknown attribute raises, except where the
   reference evaluator reads it as Null (group keys, nested projections,
   flattened and aggregated bags). *)
let strict b a =
  match Kernel.column b a with
  | Some c -> c
  | None -> err "engine: unknown attribute %s" a

let lax b a =
  match Kernel.column b a with Some c -> c | None -> C.CNull (C.length b)

(* Shuffle destinations for a key of labelled attribute projections
   ([(label, source attr)] pairs): hashing the key column lands each row
   where hashing its key tuple would. *)
let key_hash resolve (pairs : (string * string) list) (b : C.t) : int array =
  let n = C.length b in
  if n = 0 then [||]
  else
    C.hash_col
      (C.CTuple
         (n, List.map (fun (label, a) -> (label, resolve b a)) pairs, None))

let whole_row_hash (b : C.t) : int array = C.hash_col b.C.row

(* The hash join's build side is the smaller one. *)
let join_cols ~keys ~residual ~kind ~lnull ~rnull (lb : C.t) (rb : C.t) : C.t =
  let cand =
    match keys with
    | [] -> Kernel.all_pairs (C.length lb) (C.length rb)
    | keys ->
      let lc, rc =
        Kernel.key_codes
          (List.map (fun (la, ra) -> (strict lb la, strict rb ra)) keys)
      in
      if C.length lb <= C.length rb then Kernel.hash_pairs ~build:lc ~probe:rc
      else
        let r, l = Kernel.hash_pairs ~build:rc ~probe:lc in
        (l, r)
  in
  (Kernel.join ~kind ~residual ~lnull ~rnull cand lb rb).Kernel.data

let nest_rel_cols ~group_attrs pairs c_name (b : C.t) : C.t =
  let keys = List.map (fun a -> (a, strict b a)) group_attrs in
  let groups = Kernel.groups (C.length b) (List.map snd keys) in
  Kernel.nest_rel ~keys
    ~proj:(List.map (fun (label, a) -> (label, lax b a)) pairs)
    c_name ~reps:(Kernel.reps groups) groups b

let group_agg_cols group aggs (b : C.t) : C.t =
  let keys = List.map (fun (label, a) -> (label, lax b a)) group in
  let groups = Kernel.groups (C.length b) (List.map snd keys) in
  Kernel.group_agg ~keys ~reps:(Kernel.reps groups)
    (List.map
       (fun (fn, a, out) -> Kernel.agg fn (Option.map (strict b) a) out)
       aggs)
    groups b

let rows ?(partitions = 4) ?parent ?registry (db : Relation.Db.t)
    (q : Query.t) : C.t * Stats.t =
  Obs.Faultinject.fire site_run;
  let env = Eval.schema_env db in
  let cols = Kernel.reads env q in
  let stats = Stats.create () in
  let n = max 1 partitions in
  (* Spans are only materialized when a parent is given: untraced runs
     pay nothing beyond the [Stats] counters they always paid. *)
  let sub sp name = Option.map (fun p -> Obs.Span.start ~parent:p name) sp in
  let finish_shuffle ssp moved =
    Option.iter
      (fun s ->
        Obs.Span.set_int s "rows_moved" moved;
        Obs.Span.finish s)
      ssp
  in
  let rec go osp (q : Query.t) : Dataset.t =
    let ostat =
      Stats.op stats ~op_id:q.id ~op_label:(Query.op_symbol q.node)
    in
    let op_name = Fmt.str "op:%s#%d" (Query.op_symbol q.node) q.id in
    let sp = sub osp op_name in
    let record_io input output =
      ostat.Stats.input_rows <- ostat.Stats.input_rows + input;
      ostat.Stats.output_rows <- ostat.Stats.output_rows + output
    in
    (* Kernels skip empty batches: an empty batch has no columns, so an
       attribute lookup would raise although no row lacks the
       attribute. *)
    let mapp f d = Array.map (fun b -> if C.length b = 0 then b else f b) d in
    let narrow child kernel =
      let d = go sp child in
      let input = Dataset.cardinal d in
      let out = mapp kernel d in
      record_io input (Dataset.cardinal out);
      out
    in
    let out = eval_node sp ostat record_io narrow mapp q in
    Option.iter
      (fun s ->
        Obs.Span.set_int s "op_id" q.id;
        Obs.Span.set_int s "input_rows" ostat.Stats.input_rows;
        Obs.Span.set_int s "output_rows" ostat.Stats.output_rows;
        Obs.Span.set_int s "shuffled_rows" ostat.Stats.shuffled_rows;
        Obs.Span.finish s)
      sp;
    out
  and eval_node sp ostat record_io narrow mapp (q : Query.t) : Dataset.t =
    match q.node, q.children with
    | Query.Table name, [] ->
      let rel = Relation.Db.find_exn name db in
      let b, kept, pruned = Kernel.scan cols q (C.of_relation rel) in
      let d = Dataset.distribute_batch ~partitions:n b in
      Option.iter
        (fun s ->
          Obs.Span.set_int s "columns_kept" kept;
          Obs.Span.set_int s "columns_pruned" pruned)
        sp;
      record_io (Relation.cardinal rel) (Dataset.cardinal d);
      d
    | Query.Select pred, [ c ] ->
      narrow c (fun b -> C.filter b (C.eval_pred_mask b pred))
    | Query.Project cols, [ c ] -> narrow c (Kernel.project cols)
    | Query.Rename pairs, [ c ] -> narrow c (Kernel.rename pairs)
    | Query.Flatten_tuple a, [ c ] ->
      let cty = Typecheck.infer env c in
      let inner_ty =
        match List.assoc_opt a (Vtype.relation_fields cty) with
        | Some ty -> ty
        | None -> err "engine: unknown attribute %s" a
      in
      narrow c (fun b -> Kernel.flatten_tuple inner_ty (strict b a) b)
    | Query.Flatten (kind, a), [ c ] ->
      (* The element type of the narrowed bag: the outer pad's shape. *)
      let cty = Kernel.keep_type cols c (Typecheck.infer env c) in
      let inner_ty =
        match List.assoc_opt a (Vtype.relation_fields cty) with
        | Some (Vtype.TBag ety) -> ety
        | Some _ | None -> err "engine: attribute %s is not a relation" a
      in
      let outer = kind = Query.Flat_outer in
      narrow c (fun b ->
          (Kernel.flatten ~outer inner_ty (lax b a)
             (Kernel.flatten_parents cols a b))
            .Kernel.data)
    | Query.Nest_tuple (pairs, c_name), [ c ] ->
      narrow c (fun b ->
          Kernel.nest_tuple pairs c_name
            (List.map (fun (_, a) -> strict b a) pairs)
            b)
    | Query.Agg_tuple (fn, a, out), [ c ] ->
      narrow c (fun b -> snd (Kernel.agg_tuple fn (lax b a) out b))
    | Query.Union, [ l; r ] ->
      let dl = go sp l and dr = go sp r in
      let input = Dataset.cardinal dl + Dataset.cardinal dr in
      let out =
        Array.init n (fun i ->
            let pl = if i < Array.length dl then dl.(i) else C.empty
            and pr = if i < Array.length dr then dr.(i) else C.empty in
            C.vstack [ pl; pr ])
      in
      record_io input (Dataset.cardinal out);
      out
    | Query.Diff, [ l; r ] ->
      let dl = go sp l and dr = go sp r in
      let input = Dataset.cardinal dl + Dataset.cardinal dr in
      let ssp = sub sp "shuffle" in
      let dl, m1 = Dataset.shuffle_hashed ~partitions:n whole_row_hash dl in
      let dr, m2 = Dataset.shuffle_hashed ~partitions:n whole_row_hash dr in
      let out =
        Array.init n (fun i ->
            let lb = dl.(i) in
            let cancelled = Kernel.diff_cancelled lb dr.(i) in
            C.filter lb (C.Bitv.init (C.length lb) (fun j -> not cancelled.(j))))
      in
      let moved = m1 + m2 in
      Stats.record_shuffle stats ostat moved;
      finish_shuffle ssp moved;
      record_io input (Dataset.cardinal out);
      out
    | Query.Dedup, [ c ] ->
      let d = go sp c in
      let input = Dataset.cardinal d in
      let ssp = sub sp "shuffle" in
      let d, moved = Dataset.shuffle_hashed ~partitions:n whole_row_hash d in
      Stats.record_shuffle stats ostat moved;
      finish_shuffle ssp moved;
      let out = mapp (fun b -> snd (Kernel.dedup b)) d in
      record_io input (Dataset.cardinal out);
      out
    | Query.Nest_rel (pairs, c_name), [ c ] ->
      let d = go sp c in
      let input = Dataset.cardinal d in
      let cty = Typecheck.infer env c in
      let attrs = List.map snd pairs in
      let all = List.map fst (Vtype.relation_fields cty) in
      let group_attrs = List.filter (fun a -> not (List.mem a attrs)) all in
      let ssp = sub sp "shuffle" in
      let d, moved =
        Dataset.shuffle_hashed ~partitions:n
          (key_hash strict (List.map (fun a -> (a, a)) group_attrs))
          d
      in
      Stats.record_shuffle stats ostat moved;
      finish_shuffle ssp moved;
      let out = mapp (nest_rel_cols ~group_attrs pairs c_name) d in
      record_io input (Dataset.cardinal out);
      out
    | Query.Group_agg (group, aggs), [ c ] ->
      let d = go sp c in
      let input = Dataset.cardinal d in
      let ssp = sub sp "shuffle" in
      let d, moved =
        Dataset.shuffle_hashed ~partitions:n (key_hash lax group) d
      in
      Stats.record_shuffle stats ostat moved;
      finish_shuffle ssp moved;
      let out = mapp (group_agg_cols group aggs) d in
      record_io input (Dataset.cardinal out);
      out
    | Query.Join (kind, pred), [ l; r ] -> run_join sp ostat kind pred l r
    | Query.Product, [ l; r ] -> run_join sp ostat Query.Inner Expr.True l r
    | _ -> err "engine: malformed query node (operator %d)" q.id
  and run_join sp ostat kind pred l r =
    let lty = Typecheck.infer env l and rty = Typecheck.infer env r in
    let lfields = Vtype.relation_fields lty in
    let rfields = Vtype.relation_fields rty in
    (* The pads take the shape of the narrowed batches they stack onto. *)
    let null c ty = Vtype.null_tuple (Vtype.element (Kernel.keep_type cols c ty)) in
    let lnull = null l lty and rnull = null r rty in
    let dl = go sp l and dr = go sp r in
    let input = Dataset.cardinal dl + Dataset.cardinal dr in
    let keys, residual = Kernel.equi_split lfields rfields pred in
    let ssp = sub sp "shuffle" in
    let dl, dr, moved =
      match keys with
      | [] ->
        (* No equi key: gather both sides (the engine's "broadcast"). *)
        let dl, m1 = Dataset.gather dl and dr, m2 = Dataset.gather dr in
        (dl, dr, m1 + m2)
      | keys ->
        let dl, m1 =
          Dataset.shuffle_hashed ~partitions:n
            (key_hash strict (List.map (fun (a, _) -> (a, a)) keys))
            dl
        in
        let dr, m2 =
          Dataset.shuffle_hashed ~partitions:n (key_hash strict keys) dr
        in
        (dl, dr, m1 + m2)
    in
    Stats.record_shuffle stats ostat moved;
    finish_shuffle ssp moved;
    let np = max (Array.length dl) (Array.length dr) in
    let part d i = if i < Array.length d then d.(i) else C.empty in
    let out =
      Array.init np (fun i ->
          join_cols ~keys ~residual ~kind ~lnull ~rnull (part dl i) (part dr i))
    in
    ostat.Stats.input_rows <- ostat.Stats.input_rows + input;
    ostat.Stats.output_rows <- ostat.Stats.output_rows + Dataset.cardinal out;
    out
  in
  let root_sp = sub parent "engine.run" in
  let out = C.vstack (Array.to_list (go root_sp q)) in
  Option.iter
    (fun s ->
      Obs.Span.set_int s "output_rows" (C.length out);
      Obs.Span.set_int s "shuffled_rows" (Stats.total_shuffled stats);
      Obs.Span.set_int s "stages" (Stats.stages stats);
      Obs.Span.finish s)
    root_sp;
  Stats.fold_into ?registry stats;
  (out, stats)

let run ?partitions ?parent ?registry (db : Relation.Db.t) (q : Query.t) :
    Relation.t * Stats.t =
  let schema = Typecheck.infer (Eval.schema_env db) q in
  let out, stats = rows ?partitions ?parent ?registry db q in
  (Relation.of_tuples ~schema (C.to_rows out), stats)
