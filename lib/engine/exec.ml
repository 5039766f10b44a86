(* The engine's executor: runs an NRAB plan over partitioned datasets.

   Narrow operators (selection, projection, renaming, flattening, tuple
   nesting, per-tuple aggregation) run partition-local; blocking operators
   (joins, relation nesting, group aggregation, deduplication, difference)
   shuffle by key first, like a DISC system would.  The results agree with
   the reference evaluator [Nrab.Eval] — the test suite checks this. *)

open Nested
open Nrab

exception Engine_error of string

let err fmt = Fmt.kstr (fun m -> raise (Engine_error m)) fmt

type config = { partitions : int; parallel : bool; retry : Fault.policy }

let default_config =
  { partitions = 4; parallel = false; retry = Fault.no_retry }

let schema_env (db : Relation.Db.t) : Typecheck.env =
  List.map (fun (n, r) -> (n, Relation.schema r)) (Relation.Db.tables db)

(* Split a join predicate's conjunctive closure into equi-join key
   attribute pairs (left attr, right attr) and the residual predicate
   (the conjuncts that are not equi-key comparisons, [True] if none).
   The hash-join kernel probes by key and evaluates only the residual. *)
let equi_split (lfields : string list) (rfields : string list) (p : Expr.pred)
    : (string * string) list * Expr.pred =
  let rec conjuncts = function
    | Expr.And (a, b) -> conjuncts a @ conjuncts b
    | p -> [ p ]
  in
  let keys, residual =
    List.fold_left
      (fun (keys, residual) c ->
        match c with
        | Expr.Cmp (Expr.Eq, Expr.Attr a, Expr.Attr b)
          when List.mem a lfields && List.mem b rfields ->
          ((a, b) :: keys, residual)
        | Expr.Cmp (Expr.Eq, Expr.Attr a, Expr.Attr b)
          when List.mem b lfields && List.mem a rfields ->
          ((b, a) :: keys, residual)
        | c -> (keys, c :: residual))
      ([], []) (conjuncts p)
  in
  let residual =
    match List.rev residual with
    | [] -> Expr.True
    | c :: rest -> List.fold_left (fun acc c -> Expr.And (acc, c)) c rest
  in
  (List.rev keys, residual)

let equi_keys lfields rfields p = fst (equi_split lfields rfields p)

(* Per-row kernels: the columnar kernels below fall back to these for
   batches without tuple columns (rows that disagree on shape).  All of
   these are staged: applying the first argument(s) precomputes the
   lookup structures once, so the per-row closure does no list scans
   over the parameters. *)

(* Key projection staged over the attribute list: one pass over the
   row's fields instead of one [Value.field] scan per key attribute. *)
let key_of attrs : Value.t -> Value.t =
  let n = List.length attrs in
  let slot = Hashtbl.create (2 * n) in
  List.iteri
    (fun i a -> if not (Hashtbl.mem slot a) then Hashtbl.replace slot a i)
    attrs;
  let attr_arr = Array.of_list attrs in
  fun t ->
    match t with
    | Value.Tuple fields ->
      let found = Array.make (max n 1) None in
      List.iter
        (fun (l, v) ->
          match Hashtbl.find_opt slot l with
          | Some i -> if found.(i) = None then found.(i) <- Some v
          | None -> ())
        fields;
      Value.Tuple
        (List.map
           (fun a ->
             match found.(Hashtbl.find slot a) with
             | Some v -> (a, v)
             | None -> err "engine: unknown key attribute %s" a)
           (Array.to_list attr_arr))
    | _ ->
      Value.Tuple
        (List.map
           (fun a ->
             match Value.field a t with
             | Some v -> (a, v)
             | None -> err "engine: unknown key attribute %s" a)
           attrs)

let rename_label_fn pairs : string -> string =
  let fresh_of = Hashtbl.create (2 * List.length pairs) in
  List.iter
    (fun (fresh, old) ->
      if not (Hashtbl.mem fresh_of old) then Hashtbl.replace fresh_of old fresh)
    pairs;
  fun l ->
    match Hashtbl.find_opt fresh_of l with Some fresh -> fresh | None -> l

let rename_row pairs : Value.t -> Value.t =
  let rename_label = rename_label_fn pairs in
  fun t ->
    match t with
    | Value.Tuple fields ->
      Value.Tuple (List.map (fun (l, v) -> (rename_label l, v)) fields)
    | _ -> err "engine: rename of non-tuple"

let flatten_tuple_row inner_ty a t =
  match Value.field a t with
  | Some (Value.Tuple _ as inner) -> Value.concat_tuples t inner
  | Some Value.Null -> Value.concat_tuples t (Vtype.null_tuple inner_ty)
  | Some _ -> err "engine: tuple flatten of non-tuple attribute %s" a
  | None -> err "engine: unknown attribute %s" a

let flatten_rel_rows kind inner_ty a t =
  let nested = match Value.field a t with Some v -> v | None -> Value.Null in
  let rows =
    match nested with
    | Value.Bag _ -> List.map (Value.concat_tuples t) (Value.expand nested)
    | Value.Null -> []
    | _ -> err "engine: relation flatten of non-bag attribute %s" a
  in
  match rows, kind with
  | [], Query.Flat_outer -> [ Value.concat_tuples t (Vtype.null_tuple inner_ty) ]
  | rows, _ -> rows

let nest_tuple_row pairs c_name : Value.t -> Value.t =
  let nested_attr = Hashtbl.create (2 * List.length pairs) in
  List.iter (fun (_, a) -> Hashtbl.replace nested_attr a ()) pairs;
  fun t ->
    match t with
    | Value.Tuple fields ->
      let rest =
        List.filter (fun (l, _) -> not (Hashtbl.mem nested_attr l)) fields
      in
      let nested =
        List.map
          (fun (label, a) ->
            match List.assoc_opt a fields with
            | Some v -> (label, v)
            | None -> err "engine: unknown attribute %s" a)
          pairs
      in
      Value.Tuple (rest @ [ (c_name, Value.Tuple nested) ])
    | _ -> err "engine: nest_tuple of non-tuple"

(* Group rows of one partition by key. *)
let group_rows (key : Value.t -> Value.t) (rows : Value.t list) :
    (Value.t * Value.t list) list =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let k = key row in
      match Hashtbl.find_opt tbl k with
      | Some rs -> Hashtbl.replace tbl k (row :: rs)
      | None ->
        order := k :: !order;
        Hashtbl.replace tbl k [ row ])
    rows;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let group_by_attrs attrs rows = group_rows (key_of attrs) rows

(* --- Columnar (vectorized) kernels --------------------------------- *)

(* Every operator runs one of these over whole partition batches.  Row
   order within a partition is irrelevant because bags are normalized
   downstream; a batch without tuple columns takes its kernel's per-row
   fallback above, with the same error behavior as the column path. *)

(* Destination hashes for a shuffle keyed by labelled attribute
   projections ([(label, source attr)] pairs), identical to hashing
   [key_of]/group-key tuples row by row.  [strict] missing attributes
   raise like [key_of]; lax ones hash as Null like the group keys. *)
let key_hash_of_pairs (pairs : (string * string) list) ~strict
    (fallback_key : Value.t -> Value.t) (b : Columnar.t) : int array =
  let n = Columnar.length b in
  match Columnar.cols b with
  | Some fields when n > 0 ->
    let kcols =
      List.map
        (fun (label, a) ->
          match List.assoc_opt a fields with
          | Some c -> (label, c)
          | None ->
            if strict then err "engine: unknown key attribute %s" a
            else (label, Columnar.CNull n))
        pairs
    in
    Columnar.hash_col (Columnar.CTuple (n, kcols, None))
  | Some _ -> [||]
  | None ->
    Array.of_list
      (List.map
         (fun row -> Columnar.value_hash (fallback_key row))
         (Columnar.to_rows b))

let whole_row_hash (b : Columnar.t) : int array = Columnar.hash_col b.Columnar.row

(* Duplicate elimination on one partition: first occurrence per
   structural-equality class (integer codes stand in for deep rows). *)
let dedup_cols (b : Columnar.t) : Columnar.t =
  let coder = Columnar.Coder.create () in
  let codes = Columnar.row_codes coder b in
  let seen = Hashtbl.create (2 * Columnar.length b) in
  let keep = ref [] in
  Array.iteri
    (fun i c ->
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.replace seen c ();
        keep := i :: !keep
      end)
    codes;
  Columnar.gather b (Array.of_list (List.rev !keep))

(* Bag difference on one partition pair, multiset semantics: each right
   occurrence cancels one left occurrence. *)
let diff_cols (lb : Columnar.t) (rb : Columnar.t) : Columnar.t =
  let coder = Columnar.Coder.create () in
  let lc = Columnar.row_codes coder lb in
  let rc = Columnar.row_codes coder rb in
  let counts = Hashtbl.create (2 * Array.length rc) in
  Array.iter
    (fun c ->
      Hashtbl.replace counts c
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    rc;
  let keep = ref [] in
  Array.iteri
    (fun i c ->
      match Hashtbl.find_opt counts c with
      | Some n when n > 0 -> Hashtbl.replace counts c (n - 1)
      | _ -> keep := i :: !keep)
    lc;
  Columnar.gather lb (Array.of_list (List.rev !keep))

(* Partition-local hash join over code vectors: build the smaller side's
   key codes into an index, probe with the other side, evaluate only the
   residual on the gathered candidate pairs — candidate enumeration is
   lossless because any pair satisfying the full predicate agrees on the
   equi-key conjuncts.  Without keys every pair is a candidate (the
   nested loop; the full predicate is then the residual).  Unmatched
   rows are padded with the other side's null tuple for outer joins.
   No per-row trees are materialized. *)
let join_cols ~keys ~(residual : Expr.pred) ~kind ~lnull ~rnull
    (lb : Columnar.t) (rb : Columnar.t) : Columnar.t =
  let module C = Columnar in
  let ln = C.length lb and rn = C.length rb in
  let cand_l, cand_r =
    match keys with
    | [] ->
      (* No equi key: every pair is a candidate (the nested loop). *)
      let li = Array.make (ln * rn) 0 and ri = Array.make (ln * rn) 0 in
      for i = 0 to ln - 1 do
        for j = 0 to rn - 1 do
          li.((i * rn) + j) <- i;
          ri.((i * rn) + j) <- j
        done
      done;
      (li, ri)
    | keys ->
      let coder = C.Coder.create () in
      (* Key codes per row; [-1] flags a key containing Null, which can
         never satisfy an equality conjunct (excluded from build and
         probe, surfacing only as outer pads). *)
      let side_codes (b : C.t) attrs : int array =
        let n = C.length b in
        if n = 0 then [||]
        else
          match C.cols b with
          | Some fields ->
            let comps =
              List.map
                (fun a ->
                  match List.assoc_opt a fields with
                  | Some c -> C.Coder.col_codes coder c
                  | None -> err "engine: unknown key attribute %s" a)
                attrs
            in
            let mixed = C.Coder.mix coder comps in
            Array.iteri
              (fun i _ ->
                if
                  List.exists (fun cs -> cs.(i) = C.Coder.null_code) comps
                then mixed.(i) <- -1)
              mixed;
            mixed
          | None ->
            (* Non-uniform rows: code key components row by row, mixing
               them exactly like the column path so both sides agree. *)
            let key = key_of attrs in
            let comps =
              Array.init n (fun i ->
                  match key (C.get_row b i) with
                  | Value.Tuple fields -> List.map snd fields
                  | v -> [ v ])
            in
            let k = List.length attrs in
            let code_arrays =
              List.init k (fun j ->
                  Array.map
                    (fun cs -> C.Coder.value_code coder (List.nth cs j))
                    comps)
            in
            let mixed = C.Coder.mix coder code_arrays in
            Array.iteri
              (fun i cs ->
                if List.exists (fun v -> v = Value.Null) cs then mixed.(i) <- -1)
              comps;
            mixed
      in
      let lcodes = side_codes lb (List.map fst keys) in
      let rcodes = side_codes rb (List.map snd keys) in
      let build_is_left = ln <= rn in
      let bcodes, pcodes = if build_is_left then (lcodes, rcodes) else (rcodes, lcodes) in
      let index = Hashtbl.create (2 * Array.length bcodes) in
      Array.iteri
        (fun bi c ->
          if c >= 0 then
            Hashtbl.replace index c
              (bi :: Option.value ~default:[] (Hashtbl.find_opt index c)))
        bcodes;
      let li = ref [] and ri = ref [] in
      Array.iteri
        (fun pi c ->
          if c >= 0 then
            match Hashtbl.find_opt index c with
            | None -> ()
            | Some bis ->
              List.iter
                (fun bi ->
                  if build_is_left then begin
                    li := bi :: !li;
                    ri := pi :: !ri
                  end
                  else begin
                    li := pi :: !li;
                    ri := bi :: !ri
                  end)
                bis)
        pcodes;
      (Array.of_list (List.rev !li), Array.of_list (List.rev !ri))
  in
  let joined = C.hstack (C.gather lb cand_l) (C.gather rb cand_r) in
  let mask =
    match residual with
    | Expr.True -> C.Bitv.create (C.length joined) true
    | residual -> C.eval_pred_mask joined residual
  in
  let matched_l = Bytes.make (max ln 1) '\000'
  and matched_r = Bytes.make (max rn 1) '\000' in
  for k = 0 to C.length joined - 1 do
    if C.Bitv.get mask k then begin
      Bytes.set matched_l cand_l.(k) '\001';
      Bytes.set matched_r cand_r.(k) '\001'
    end
  done;
  let inner =
    if C.Bitv.count mask = C.length joined then joined else C.filter joined mask
  in
  let unmatched m n =
    let idx = ref [] in
    for i = n - 1 downto 0 do
      if Bytes.get m i = '\000' then idx := i :: !idx
    done;
    Array.of_list !idx
  in
  let left_pad () =
    let ul = unmatched matched_l ln in
    C.hstack (C.gather lb ul) (C.broadcast (Array.length ul) rnull)
  in
  let right_pad () =
    let ur = unmatched matched_r rn in
    C.hstack (C.broadcast (Array.length ur) lnull) (C.gather rb ur)
  in
  match kind with
  | Query.Inner -> inner
  | Query.Left -> C.vstack [ inner; left_pad () ]
  | Query.Right -> C.vstack [ inner; right_pad () ]
  | Query.Full -> C.vstack [ inner; left_pad (); right_pad () ]

(* Row indices per structural-equality class of [codes], first-seen
   order, members ascending — the grouping order of [group_rows]. *)
let group_indices (codes : int array) : int array array =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun i c ->
      match Hashtbl.find_opt tbl c with
      | Some cell -> cell := i :: !cell
      | None ->
        let cell = ref [ i ] in
        Hashtbl.add tbl c cell;
        order := cell :: !order)
    codes;
  Array.of_list
    (List.rev_map (fun cell -> Array.of_list (List.rev !cell)) !order)

(* Tuple flatten: splice the nested tuple column's fields next to the
   outer columns.  When the nested column is already a clean [CTuple]
   this is pointer reuse; otherwise the inner tuples are rebuilt per
   row (with [flatten_tuple_row]'s error behavior). *)
let flatten_tuple_cols inner_ty a (b : Columnar.t) : Columnar.t =
  let n = Columnar.length b in
  let null_inner = Vtype.null_tuple inner_ty in
  match Columnar.cols b with
  | None ->
    Columnar.of_rows (List.map (flatten_tuple_row inner_ty a) (Columnar.to_rows b))
  | Some fs ->
    let right =
      match List.assoc_opt a fs with
      | Some (Columnar.CTuple (_, _, None) as ic) -> { Columnar.n; row = ic }
      | Some col ->
        Columnar.of_values
          (Array.init n (fun i ->
               match Columnar.col_get col i with
               | Value.Tuple _ as inner -> inner
               | Value.Null -> null_inner
               | _ -> err "engine: tuple flatten of non-tuple attribute %s" a))
      | None -> err "engine: unknown attribute %s" a
    in
    Columnar.hstack b right

(* Relation flatten: expand the bag column by building a parent-index
   and element-selection vector, then one gather per side.  Inner
   flatten drops empty/Null bags; outer flatten emits one Null-padded
   row (the selection vector points past the element column at a
   single appended Null tuple). *)
let flatten_cols kind inner_ty a (b : Columnar.t) : Columnar.t =
  let n = Columnar.length b in
  let null_inner = Vtype.null_tuple inner_ty in
  let keep_empty = kind = Query.Flat_outer in
  match Columnar.find_col b a with
  | Some (Columnar.CBag bg) ->
    let present i =
      match bg.Columnar.bpresent with
      | None -> true
      | Some p -> Columnar.Bitv.get p i
    in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let cnt =
        if not (present i) then 0
        else begin
          let s = ref 0 in
          for j = bg.Columnar.boff.(i) to bg.Columnar.boff.(i + 1) - 1 do
            s := !s + bg.Columnar.bmult.(j)
          done;
          !s
        end
      in
      total := !total + (if cnt = 0 then if keep_empty then 1 else 0 else cnt)
    done;
    let m = !total in
    let parent_idx = Array.make m 0 and sel = Array.make m 0 in
    let ne = Columnar.col_length bg.Columnar.belems in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let start = !k in
      if present i then
        for j = bg.Columnar.boff.(i) to bg.Columnar.boff.(i + 1) - 1 do
          for _ = 1 to bg.Columnar.bmult.(j) do
            parent_idx.(!k) <- i;
            sel.(!k) <- j;
            incr k
          done
        done;
      if !k = start && keep_empty then begin
        parent_idx.(!k) <- i;
        sel.(!k) <- ne;
        incr k
      end
    done;
    let elem_batch = { Columnar.n = ne; row = bg.Columnar.belems } in
    let right =
      if keep_empty then
        Columnar.gather
          (Columnar.vstack [ elem_batch; Columnar.broadcast 1 null_inner ])
          sel
      else Columnar.gather elem_batch sel
    in
    Columnar.hstack (Columnar.gather b parent_idx) right
  | _ ->
    Columnar.of_rows
      (List.concat_map (flatten_rel_rows kind inner_ty a) (Columnar.to_rows b))

let nest_tuple_cols pairs c_name (b : Columnar.t) : Columnar.t =
  let n = Columnar.length b in
  let attrs = List.map snd pairs in
  match Columnar.cols b with
  | Some fs ->
    let rest = List.filter (fun (l, _) -> not (List.mem l attrs)) fs in
    let nested =
      List.map
        (fun (label, a) ->
          match List.assoc_opt a fs with
          | Some col -> (label, col)
          | None -> err "engine: unknown attribute %s" a)
        pairs
    in
    Columnar.of_cols n (rest @ [ (c_name, Columnar.CTuple (n, nested, None)) ])
  | None ->
    Columnar.of_rows (List.map (nest_tuple_row pairs c_name) (Columnar.to_rows b))

(* Per-tuple aggregation over the bag column: member values come straight
   from the flattened element column (offset-sliced per row), never from
   reconstructed rows. *)
let agg_tuple_cols fn a out (b : Columnar.t) : Columnar.t =
  let n = Columnar.length b in
  let unwrap v =
    match v with Value.Tuple [ (_, inner) ] -> inner | other -> other
  in
  let member_vals : Value.t list array =
    match Columnar.find_col b a with
    | Some (Columnar.CBag bg) ->
      let evs =
        match bg.Columnar.belems with
        | Columnar.CTuple (_, [ (_, inner) ], None) -> Columnar.col_values inner
        | ec -> Array.map unwrap (Columnar.col_values ec)
      in
      let present i =
        match bg.Columnar.bpresent with
        | None -> true
        | Some p -> Columnar.Bitv.get p i
      in
      Array.init n (fun i ->
          if not (present i) then []
          else begin
            let acc = ref [] in
            for j = bg.Columnar.boff.(i + 1) - 1 downto bg.Columnar.boff.(i) do
              for _ = 1 to bg.Columnar.bmult.(j) do
                acc := evs.(j) :: !acc
              done
            done;
            !acc
          end)
    | col_opt ->
      let get_field =
        match col_opt, Columnar.cols b with
        | Some col, _ -> fun i -> Some (Columnar.col_get col i)
        | None, Some _ -> fun _ -> None
        | None, None -> fun i -> Value.field a (Columnar.get_row b i)
      in
      Array.init n (fun i ->
          match get_field i with
          | Some (Value.Bag _ as bag) -> List.map unwrap (Value.expand bag)
          | Some Value.Null | None -> []
          | Some _ -> err "engine: per-tuple aggregation of non-bag attribute %s" a)
  in
  let agg_vals = Array.map (Agg.apply fn) member_vals in
  Columnar.hstack b
    (Columnar.of_cols n [ (out, (Columnar.of_values agg_vals).Columnar.row) ])

(* Group-and-nest on one (already shuffled) partition: group rows by the
   key columns' structural codes, gather the key columns once per group,
   and build each group's bag from the projected member columns. *)
let nest_rel_cols ~group_attrs pairs c_name (b : Columnar.t) : Columnar.t =
  let n = Columnar.length b in
  match Columnar.cols b with
  | Some fs ->
    let strict_col a =
      match List.assoc_opt a fs with
      | Some col -> col
      | None -> err "engine: unknown key attribute %s" a
    in
    let lax_col a =
      match List.assoc_opt a fs with
      | Some col -> col
      | None -> Columnar.CNull n
    in
    let coder = Columnar.Coder.create () in
    let key_codes =
      match group_attrs with
      | [] -> Array.make n 0
      | gs ->
        Columnar.Coder.mix coder
          (List.map (fun a -> Columnar.Coder.col_codes coder (strict_col a)) gs)
    in
    let groups = group_indices key_codes in
    let reps = Array.map (fun m -> m.(0)) groups in
    let proj_vals =
      Columnar.to_values
        (Columnar.of_cols n
           (List.map (fun (label, a) -> (label, lax_col a)) pairs))
    in
    let keys =
      Columnar.gather
        (Columnar.of_cols n (List.map (fun a -> (a, strict_col a)) group_attrs))
        reps
    in
    let bags =
      Array.map
        (fun members ->
          Value.Tuple
            [
              ( c_name,
                Value.bag_of_list
                  (List.map (fun i -> proj_vals.(i)) (Array.to_list members)) );
            ])
        groups
    in
    Columnar.hstack keys (Columnar.of_values bags)
  | None ->
    let proj t =
      Value.Tuple
        (List.map
           (fun (label, a) ->
             (label, Option.value ~default:Value.Null (Value.field a t)))
           pairs)
    in
    Columnar.of_rows
      (List.map
         (fun (k, members) ->
           Value.concat_tuples k
             (Value.Tuple [ (c_name, Value.bag_of_list (List.map proj members)) ]))
         (group_by_attrs group_attrs (Columnar.to_rows b)))

(* Grouped aggregation on one (already shuffled) partition: key columns
   are lax (a missing attribute groups as Null); aggregate inputs are
   strict (a missing attribute raises). *)
let group_agg_cols group aggs (b : Columnar.t) : Columnar.t =
  let n = Columnar.length b in
  match Columnar.cols b with
  | Some fs ->
    let lax_col a =
      match List.assoc_opt a fs with
      | Some col -> col
      | None -> Columnar.CNull n
    in
    let coder = Columnar.Coder.create () in
    let key_codes =
      match group with
      | [] -> Array.make n 0
      | g ->
        Columnar.Coder.mix coder
          (List.map
             (fun (_, a) -> Columnar.Coder.col_codes coder (lax_col a))
             g)
    in
    let groups = group_indices key_codes in
    let reps = Array.map (fun m -> m.(0)) groups in
    let keys =
      Columnar.gather
        (Columnar.of_cols n (List.map (fun (label, a) -> (label, lax_col a)) group))
        reps
    in
    let agg_cols =
      List.map
        (fun (fn, a, out_name) ->
          let member_val : int -> Value.t =
            match a with
            | None -> fun _ -> Value.Int 1
            | Some a -> (
              match List.assoc_opt a fs with
              | Some col -> fun i -> Columnar.col_get col i
              | None -> err "engine: unknown attribute %s" a)
          in
          let vals =
            Array.map
              (fun members ->
                Agg.apply fn (List.map member_val (Array.to_list members)))
              groups
          in
          (out_name, (Columnar.of_values vals).Columnar.row))
        aggs
    in
    Columnar.hstack keys (Columnar.of_cols (Array.length groups) agg_cols)
  | None ->
    let group_key t =
      Value.Tuple
        (List.map
           (fun (label, a) ->
             (label, Option.value ~default:Value.Null (Value.field a t)))
           group)
    in
    Columnar.of_rows
      (List.map
         (fun (k, members) ->
           let agg_fields =
             List.map
               (fun (fn, a, out_name) ->
                 let values =
                   match a with
                   | Some a ->
                     List.map
                       (fun t ->
                         match Value.field a t with
                         | Some v -> v
                         | None -> err "engine: unknown attribute %s" a)
                       members
                   | None -> List.map (fun _ -> Value.Int 1) members
                 in
                 (out_name, Agg.apply fn values))
               aggs
           in
           Value.concat_tuples k (Value.Tuple agg_fields))
         (group_rows group_key (Columnar.to_rows b)))

let run ?(config = default_config) ?parent ?registry (db : Relation.Db.t)
    (q : Query.t) : Relation.t * Stats.t =
  (* Pin the checkpoint run directory for the whole execution: a
     concurrent sweep (catalog eviction) is deferred until the last
     in-flight run releases, so a spilled partition whose only copy is
     on disk cannot be deleted from under us. *)
  Checkpoint.with_retained @@ fun () ->
  let env = schema_env db in
  let stats = Stats.create () in
  let n = config.partitions in
  let parallel = config.parallel in
  let retry = config.retry in
  (* Stage-level recovery is ambient (off by default): when the active
     Checkpoint config asks for it, every hash shuffle below gets a
     checkpoint barrier, and operator outputs are spilled under the
     memory watermark.  Read once per run so a concurrent
     [set_active] cannot tear one execution. *)
  let ckpt = Checkpoint.active () in
  let barrier label =
    match ckpt with
    | Some { Checkpoint.checkpoint_shuffles = true; _ } -> Some label
    | _ -> None
  in
  let maybe_spill d =
    (match ckpt with
    | Some { Checkpoint.max_memory_bytes = Some w; _ } ->
      ignore (Dataset.spill_over ~watermark:w d)
    | _ -> ());
    d
  in
  (* Retries are attributed on the operator span: a task that needed a
     second attempt leaves [attempt=2] on its operator. *)
  let retry_attr sp ~partition:_ ~attempt _e =
    Option.iter (fun s -> Obs.Span.set_int s "attempt" attempt) sp
  in
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
    (* Every partition-transform of this operator is a retryable task
       attributed to the operator's span name.  Kernels skip empty
       batches: an empty batch has no columns, so an attribute lookup
       would raise although no row lacks the attribute. *)
    let mapp f d =
      Dataset.map_cpartitions ~parallel ~retry ~label:op_name
        ~on_retry:(retry_attr sp)
        (fun b -> if Columnar.length b = 0 then b else f b)
        d
    in
    let narrow child kernel =
      let d = go sp child in
      let input = Dataset.cardinal d in
      let out = mapp kernel d in
      record_io input (Dataset.cardinal out);
      out
    in
    let out = maybe_spill (eval_node sp ostat record_io narrow mapp q) in
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
      let d = Dataset.of_relation ~partitions:n rel in
      record_io (Relation.cardinal rel) (Dataset.cardinal d);
      d
    | Query.Select pred, [ c ] ->
      narrow c (fun b -> Columnar.filter b (Columnar.eval_pred_mask b pred))
    | Query.Project cols, [ c ] ->
      narrow c (fun b ->
          Columnar.of_cols (Columnar.length b)
            (List.map (fun (name, e) -> (name, Columnar.eval_expr b e)) cols))
    | Query.Rename pairs, [ c ] ->
      let rename_label = rename_label_fn pairs in
      let rename = rename_row pairs in
      narrow c (fun b ->
          match Columnar.cols b with
          | Some fields ->
            Columnar.of_cols (Columnar.length b)
              (List.map (fun (l, c) -> (rename_label l, c)) fields)
          | None -> Columnar.of_rows (List.map rename (Columnar.to_rows b)))
    | Query.Flatten_tuple a, [ c ] ->
      let cty = Typecheck.infer env c in
      let inner_ty =
        match List.assoc_opt a (Vtype.relation_fields cty) with
        | Some ty -> ty
        | None -> err "engine: unknown attribute %s" a
      in
      narrow c (flatten_tuple_cols inner_ty a)
    | Query.Flatten (kind, a), [ c ] ->
      let cty = Typecheck.infer env c in
      let inner_ty =
        match List.assoc_opt a (Vtype.relation_fields cty) with
        | Some (Vtype.TBag ety) -> ety
        | Some _ | None -> err "engine: attribute %s is not a relation" a
      in
      narrow c (flatten_cols kind inner_ty a)
    | Query.Nest_tuple (pairs, c_name), [ c ] ->
      narrow c (nest_tuple_cols pairs c_name)
    | Query.Agg_tuple (fn, a, b), [ c ] -> narrow c (agg_tuple_cols fn a b)
    | Query.Union, [ l; r ] ->
      let dl = go sp l and dr = go sp r in
      let input = Dataset.cardinal dl + Dataset.cardinal dr in
      let cl = Dataset.cpartitions dl and cr = Dataset.cpartitions dr in
      let out =
        Dataset.of_cpartitions
          (Array.init n (fun i ->
               let pl = if i < Array.length cl then cl.(i) else Columnar.empty
               and pr = if i < Array.length cr then cr.(i) else Columnar.empty in
               Columnar.vstack [ pl; pr ]))
      in
      record_io input (Dataset.cardinal out);
      out
    | Query.Diff, [ l; r ] ->
      let dl = go sp l and dr = go sp r in
      let input = Dataset.cardinal dl + Dataset.cardinal dr in
      let ssp = sub sp "shuffle" in
      (* Combine per aligned partition pair inside a retry scope: the
         (possibly checkpointed) partition fetches happen in the task,
         so a lost partition replays from its recovery root. *)
      let diff_task dl dr part_op i =
        Fault.protect ~policy:retry
          ~task:(Fmt.str "op:%s#%d/p%d" (Query.op_symbol q.node) q.id i)
          ~task_id:i
          ~on_retry:(fun ~attempt e ->
            Dataset.recover_partition dl i;
            Dataset.recover_partition dr i;
            retry_attr sp ~partition:i ~attempt e)
          (fun () ->
            Obs.Faultinject.fire "engine.partition";
            part_op i)
      in
      let dl, m1 =
        Dataset.shuffle_hashed ?barrier:(barrier "diff-l") ~partitions:n
          whole_row_hash dl
      in
      let dr, m2 =
        Dataset.shuffle_hashed ?barrier:(barrier "diff-r") ~partitions:n
          whole_row_hash dr
      in
      let out =
        Dataset.of_cpartitions
          (Array.init n
             (diff_task dl dr (fun i ->
                  diff_cols (Dataset.cpartition dl i) (Dataset.cpartition dr i))))
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
      let d, moved =
        Dataset.shuffle_hashed ?barrier:(barrier "dedup") ~partitions:n
          whole_row_hash d
      in
      Stats.record_shuffle stats ostat moved;
      finish_shuffle ssp moved;
      let out = mapp dedup_cols d in
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
        Dataset.shuffle_hashed ?barrier:(barrier "nest") ~partitions:n
          (key_hash_of_pairs
             (List.map (fun a -> (a, a)) group_attrs)
             ~strict:true (key_of group_attrs))
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
      let group_key t =
        Value.Tuple
          (List.map
             (fun (label, a) ->
               (label, Option.value ~default:Value.Null (Value.field a t)))
             group)
      in
      let ssp = sub sp "shuffle" in
      let d, moved =
        Dataset.shuffle_hashed ?barrier:(barrier "groupagg") ~partitions:n
          (key_hash_of_pairs group ~strict:false group_key)
          d
      in
      Stats.record_shuffle stats ostat moved;
      finish_shuffle ssp moved;
      let out = mapp (group_agg_cols group aggs) d in
      record_io input (Dataset.cardinal out);
      out
    | Query.Join (kind, pred), [ l; r ] ->
      run_join ~task:(Fmt.str "op:⋈#%d" q.id) sp ostat kind pred l r
    | Query.Product, [ l; r ] ->
      run_join ~task:(Fmt.str "op:×#%d" q.id) sp ostat Query.Inner Expr.True l r
    | _ -> err "engine: malformed query node (operator %d)" q.id
  and run_join ~task sp ostat kind pred l r =
    let lty = Typecheck.infer env l and rty = Typecheck.infer env r in
    let lfields = List.map fst (Vtype.relation_fields lty) in
    let rfields = List.map fst (Vtype.relation_fields rty) in
    let lnull = Vtype.null_tuple (Vtype.element lty) in
    let rnull = Vtype.null_tuple (Vtype.element rty) in
    let dl = go sp l and dr = go sp r in
    let input = Dataset.cardinal dl + Dataset.cardinal dr in
    let keys, residual = equi_split lfields rfields pred in
    let ssp = sub sp "shuffle" in
    let dl, dr, moved =
      match keys with
      | [] ->
        (* No equi key: gather both sides (the engine's "broadcast"). *)
        let dl, m1 = Dataset.gather dl and dr, m2 = Dataset.gather dr in
        (dl, dr, m1 + m2)
      | keys ->
        let lkey = key_of (List.map fst keys) in
        let rkey t =
          (* Hash right rows by the same tuple shape as the left key so that
             equal key values land in the same partition. *)
          match key_of (List.map snd keys) t with
          | Value.Tuple fields ->
            Value.Tuple
              (List.map2 (fun (a, _) (_, v) -> (a, v)) keys fields)
          | v -> v
        in
        let dl, m1 =
          Dataset.shuffle_hashed ?barrier:(barrier "join-l") ~partitions:n
            (key_hash_of_pairs
               (List.map (fun (a, _) -> (a, a)) keys)
               ~strict:true lkey)
            dl
        in
        let dr, m2 =
          Dataset.shuffle_hashed ?barrier:(barrier "join-r") ~partitions:n
            (key_hash_of_pairs keys ~strict:true rkey)
            dr
        in
        (dl, dr, m1 + m2)
    in
    Stats.record_shuffle stats ostat moved;
    finish_shuffle ssp moved;
    let np = max (Dataset.partition_count dl) (Dataset.partition_count dr) in
    (* Partition fetches live inside the task (not hoisted before it):
       a checkpointed or spilled partition does its disk read in the
       retry scope, so a torn read is recovered like any other task
       fault. *)
    let cpart d i =
      if i < Dataset.partition_count d then Dataset.cpartition d i
      else Columnar.empty
    in
    let join_part i =
      join_cols ~keys ~residual ~kind ~lnull ~rnull (cpart dl i) (cpart dr i)
    in
    (* Join tasks retry like narrow partition tasks: the shuffled input
       partitions are immutable (or durable, after a barrier), so
       recomputation is exact. *)
    let join_task i =
      Fault.protect ~policy:retry ~task:(Fmt.str "%s/p%d" task i) ~task_id:i
        ~on_retry:(fun ~attempt e ->
          if i < Dataset.partition_count dl then Dataset.recover_partition dl i;
          if i < Dataset.partition_count dr then Dataset.recover_partition dr i;
          retry_attr sp ~partition:i ~attempt e)
        (fun () ->
          Obs.Faultinject.fire "engine.partition";
          join_part i)
    in
    let parts =
      if parallel && np > 1 then
        Pool.map_array (Pool.default ()) join_task (Array.init np Fun.id)
      else Array.init np join_task
    in
    let out = Dataset.of_cpartitions parts in
    ostat.Stats.input_rows <- ostat.Stats.input_rows + input;
    ostat.Stats.output_rows <- ostat.Stats.output_rows + Dataset.cardinal out;
    out
  in
  let out_ty = Typecheck.infer env q in
  let root_sp = sub parent "engine.run" in
  let d = go root_sp q in
  let rel = Dataset.to_relation ~schema:out_ty d in
  Option.iter
    (fun s ->
      Obs.Span.set_int s "output_rows" (Relation.cardinal rel);
      Obs.Span.set_int s "shuffled_rows" (Stats.total_shuffled stats);
      Obs.Span.set_int s "stages" (Stats.stages stats);
      Obs.Span.finish s)
    root_sp;
  Stats.fold_into ?registry stats;
  (rel, stats)
