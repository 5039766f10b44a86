(* Data tracing (Section 5.3).

   For one schema alternative, evaluate the (attribute-substituted) query
   with *relaxed* operators — selections pass everything, inner flattens
   and joins are generalized to their outer variants — and annotate every
   intermediate tuple with:

   - [consistent]: the tuple matches the backtraced NIP at this operator
     (the re-validation that distinguishes this algorithm from prior
     lineage-based work);
   - [retained]:  the operator, with its (SA-substituted) original
     parameters, produces/keeps this tuple — false marks tuples that only a
     reparameterization of this operator lets through;
   - [surviving]: the tuple appears in the unrelaxed intermediate result
     (cumulative across upstream operators) — identifies the original
     query's data inside the trace;
   - [parents]:   the immediate-predecessor rows (lineage).

   The per-SA relations here correspond to the per-SA column groups of the
   merged annotated tables in Figures 4–7.  The annotations themselves are
   stored columnar ({!vann}: flat flag vectors plus an offset-encoded
   parent adjacency), with per-row {!trow} trees reconstructed lazily —
   the relaxed evaluation runs over {!Engine.Columnar} batches.

   Aggregate constraints of the why-not question (e.g. revenue > 0) are
   checked *optimistically* via achievable ranges over sub-multisets of
   contributions, since the algorithm does not trace aggregate subsets
   (Section 5.5, corner (iii)). *)

open Nested
open Nrab
module Int_set = Opset.Int_set
module C = Engine.Columnar

type trow = {
  rid : int;
  data : Value.t;
  consistent : bool;
  retained : bool;   (* this operator's original parameters keep this row *)
  surviving : bool;  (* row appears in the unrelaxed intermediate result *)
  parents : int list;
  ranges : (string * (float * float)) list;
      (* achievable intervals for aggregate-output fields *)
}

(* Parent adjacency, offset-encoded instead of one list per row. *)
type parents =
  | P_none  (* source rows *)
  | P_self of int  (* row [i]'s single parent is [base + i] *)
  | P_one of int array  (* one parent per row *)
  | P_many of int array * int array  (* offsets[n+1] into flat rid array *)

type vann = {
  v_n : int;
  v_rid0 : int;  (* rows of this operator are rids [v_rid0, v_rid0+v_n) *)
  v_consistent : Bytes.t;
  v_retained : Bytes.t;
  v_surviving : Bytes.t;
  v_parents : parents;
  v_ranges : (string * (float * float)) list array option;
      (* [None] = no row has ranges *)
}

type op_trace = {
  op_id : int;
  op_node : Query.node;
  nip : Nip.t;
  ann : vann;
  rows : trow list Lazy.t;  (* per-row trees, reconstructed on demand *)
  data_at : int -> Value.t;
      (* single-row tree, without forcing the whole batch *)
}

type t = {
  sa : Alternatives.sa;
  ops : op_trace list;  (* topological order: children before parents *)
  root_op : int;
}

(* --- Flag vectors ------------------------------------------------------ *)

let bget b i = Bytes.unsafe_get b i = '\001'
let bset b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')
let chr v : char = if v then '\001' else '\000'
let ball n v = Bytes.make n (chr v)
let bytes_of_bitv n bv = Bytes.init n (fun i -> chr (C.Bitv.get bv i))

let band a b =
  Bytes.init (Bytes.length a) (fun i -> chr (bget a i && bget b i))

let parents_list (p : parents) (i : int) : int list =
  match p with
  | P_none -> []
  | P_self base -> [ base + i ]
  | P_one a -> [ a.(i) ]
  | P_many (off, flat) ->
    List.init (off.(i + 1) - off.(i)) (fun j -> flat.(off.(i) + j))

let rng_at (r : (string * (float * float)) list array option) i =
  match r with None -> [] | Some a -> a.(i)

(* Drop an all-empty ranges array (the common case downstream tests). *)
let norm_rng (arr : (string * (float * float)) list array) =
  if Array.for_all (fun l -> l = []) arr then None else Some arr

let rows_of_ann (ann : vann) (data : C.t) : trow list =
  let vals = C.to_values data in
  List.init ann.v_n (fun i ->
      {
        rid = ann.v_rid0 + i;
        data = vals.(i);
        consistent = bget ann.v_consistent i;
        retained = bget ann.v_retained i;
        surviving = bget ann.v_surviving i;
        parents = parents_list ann.v_parents i;
        ranges = rng_at ann.v_ranges i;
      })

(* --- Accessors ---------------------------------------------------------- *)

let rows (ot : op_trace) : trow list = Lazy.force ot.rows
let data_at (ot : op_trace) i = ot.data_at i
let n_rows (ot : op_trace) = ot.ann.v_n
let rid0 (ot : op_trace) = ot.ann.v_rid0
let consistent_at (ot : op_trace) i = bget ot.ann.v_consistent i
let retained_at (ot : op_trace) i = bget ot.ann.v_retained i
let surviving_at (ot : op_trace) i = bget ot.ann.v_surviving i
let parents_at (ot : op_trace) i = parents_list ot.ann.v_parents i

let op_trace (tr : t) (op_id : int) : op_trace option =
  List.find_opt (fun o -> o.op_id = op_id) tr.ops

let root_rows (tr : t) : trow list =
  match op_trace tr tr.root_op with Some o -> rows o | None -> []

(* Every operator owns the contiguous rid block [rid0, rid0 + n). *)
let find_row (tr : t) (rid : int) : (trow * int) option =
  List.find_map
    (fun o ->
      let a = o.ann in
      if rid >= a.v_rid0 && rid < a.v_rid0 + a.v_n then
        Some (List.nth (rows o) (rid - a.v_rid0), o.op_id)
      else None)
    tr.ops

(* --- Optimistic NIP matching over rows with aggregate ranges ----------- *)

let float_of_value (v : Value.t) : float option =
  match v with
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | _ -> None

let interval_satisfies (c : Expr.cmp) (bound : Value.t) ((lo, hi) : float * float)
    : bool =
  match float_of_value bound with
  | None -> false
  | Some b -> (
    match c with
    | Expr.Eq -> lo <= b && b <= hi
    | Expr.Neq -> not (lo = b && hi = b)
    | Expr.Lt -> lo < b
    | Expr.Le -> lo <= b
    | Expr.Gt -> hi > b
    | Expr.Ge -> hi >= b)

(* --- Vectorized NIP matching ------------------------------------------- *)

(* Per-column NIP constraint mask.  Fast paths cover the constraint kinds
   the scenario NIPs actually hit in bulk (string/int literals on typed
   columns, all-[Any] bag cardinality); everything else falls back to
   matching the materialized *field* per row — never the whole row. *)
let int_cmp (c : Expr.cmp) (v : int) (k : int) : bool =
  match c with
  | Expr.Eq -> v = k
  | Expr.Neq -> v <> k
  | Expr.Lt -> v < k
  | Expr.Le -> v <= k
  | Expr.Gt -> v > k
  | Expr.Ge -> v >= k

let rec col_mask (c : C.col) (pat : Nip.t) : Bytes.t =
  let n = C.col_length c in
  let present p i = match p with None -> true | Some bv -> C.Bitv.get bv i in
  match c, pat with
  | _, Nip.Any -> ball n true
  | C.CNull _, _ -> ball n (Nip.matches Value.Null pat)
  | C.CConst (_, v), _ -> ball n (Nip.matches v pat)
  | C.CStr (codes, p), Nip.Prim (Value.String s) ->
    let sc = C.Dict.intern s in
    Bytes.init n (fun i -> chr (present p i && codes.(i) = sc))
  | C.CInt (a, p), Nip.Prim (Value.Int k) ->
    Bytes.init n (fun i -> chr (present p i && a.(i) = k))
  | C.CInt (a, p), Nip.Pred (cmp, Value.Int k) ->
    Bytes.init n (fun i -> chr (present p i && int_cmp cmp a.(i) k))
  | C.CStr (codes, p), Nip.Pred (cmp, (Value.String _ as x)) ->
    Bytes.init n (fun i ->
        chr
          (present p i
          && Expr.eval_cmp cmp (Value.String (C.Dict.lookup codes.(i))) x))
  | C.CTuple (_, fields, p), Nip.Tup constraints ->
    (* Tuple patterns never match Null, and a constrained field that is
       absent from the tuple fails every row. *)
    let base =
      List.fold_left
        (fun acc (label, fpat) ->
          match List.assoc_opt label fields with
          | Some fc -> band acc (col_mask fc fpat)
          | None -> band acc (ball n false))
        (ball n true) constraints
    in
    (match p with
    | None -> base
    | Some _ ->
      Bytes.init n (fun i -> chr (present p i && bget base i)))
  | C.CBag bg, Nip.Bag (pats, star)
    when List.for_all (fun q -> q = Nip.Any) pats ->
    (* Only element counts matter: supply >= |pats|, exactly without *. *)
    let np = List.length pats in
    Bytes.init n (fun i ->
        if not (present bg.C.bpresent i) then chr (np = 0)
        else begin
          let supply = ref 0 in
          for j = bg.C.boff.(i) to bg.C.boff.(i + 1) - 1 do
            supply := !supply + bg.C.bmult.(j)
          done;
          chr (!supply >= np && (star || !supply = np))
        end)
  | C.CBag bg, Nip.Bag (pats, star) ->
    (* Vectorize the element-pattern matches over the flattened element
       column, then run Definition 4's bipartite feasibility per row on
       the precomputed bits — no per-row tree reconstruction. *)
    let slots =
      let rec group acc = function
        | [] -> List.rev acc
        | p :: rest ->
          let same, different =
            List.partition (fun q -> Stdlib.compare p q = 0) rest
          in
          group ((p, 1 + List.length same) :: acc) different
      in
      group [] pats
    in
    let slot_masks =
      List.map (fun (p, d) -> (col_mask bg.C.belems p, d)) slots
    in
    let demands = Array.of_list (List.map snd slot_masks) in
    let masks = Array.of_list (List.map fst slot_masks) in
    let demand_total = Array.fold_left ( + ) 0 demands in
    (match slot_masks with
    | [ (mask, d) ] ->
      (* One slot: the flow is just the matching supply — route [d]
         units iff the matching multiplicities sum to at least [d]. *)
      Bytes.init n (fun i ->
          if not (present bg.C.bpresent i) then chr (pats = [])
          else begin
            let lo = bg.C.boff.(i) and hi = bg.C.boff.(i + 1) in
            let matching = ref 0 and total = ref 0 in
            for j = lo to hi - 1 do
              total := !total + bg.C.bmult.(j);
              if bget mask j then matching := !matching + bg.C.bmult.(j)
            done;
            chr (!matching >= d && (star || !total = d))
          end)
    | _ ->
    Bytes.init n (fun i ->
        if not (present bg.C.bpresent i) then chr (pats = [])
        else begin
          let lo = bg.C.boff.(i) and hi = bg.C.boff.(i + 1) in
          let ni = hi - lo in
          let supplies = Array.sub bg.C.bmult lo ni in
          let supply_total = Array.fold_left ( + ) 0 supplies in
          if supply_total < demand_total || ((not star) && supply_total <> demand_total)
          then '\000'
          else begin
            let edge j e = bget masks.(j) (lo + e) in
            let flow = Nip.bag_flow ~sources:demands ~sinks:supplies ~edge in
            chr (flow = demand_total)
          end
        end))
  | _, _ -> Bytes.init n (fun i -> chr (Nip.matches (C.col_get c i) pat))

(* Match a batch against an operator-level NIP: AND of per-constraint
   column masks, with the achievable-interval override (for fields
   produced by aggregation) applied row-wise wherever a row's ranges
   carry the constrained label. *)
let nip_mask (nip : Nip.t) (b : C.t)
    (vranges : (string * (float * float)) list array option) : Bytes.t =
  let n = C.length b in
  match nip with
  | Nip.Any -> ball n true
  | Nip.Tup constraints ->
    let constraint_mask (label, pat) =
      let base =
        match C.cols b with
        | Some fs -> (
          match List.assoc_opt label fs with
          | Some c -> col_mask c pat
          | None -> ball n false)
        | None ->
          Bytes.init n (fun i ->
              match Value.field label (C.get_row b i) with
              | Some fv -> chr (Nip.matches fv pat)
              | None -> '\000')
      in
      (match vranges, pat with
      | Some arr, Nip.Pred (c, x) ->
        for i = 0 to n - 1 do
          match List.assoc_opt label arr.(i) with
          | Some iv -> bset base i (interval_satisfies c x iv)
          | None -> ()
        done
      | Some arr, Nip.Prim x ->
        for i = 0 to n - 1 do
          match List.assoc_opt label arr.(i) with
          | Some iv -> bset base i (interval_satisfies Expr.Eq x iv)
          | None -> ()
        done
      | _ -> ());
      base
    in
    List.fold_left
      (fun acc cstr -> band acc (constraint_mask cstr))
      (ball n true) constraints
  | other -> Bytes.init n (fun i -> chr (Nip.matches (C.get_row b i) other))

(* --- Relaxed evaluation over columnar batches ---------------------------- *)

type state = { mutable next_rid : int; mutable traces : op_trace list }

(* Per-operator result of the vectorized relaxed evaluation: the data
   batch plus the annotation vectors, before per-row trees exist. *)
type cres = {
  c_rid0 : int;
  c_n : int;
  c_data : C.t;
  c_cons : Bytes.t;
  c_ret : Bytes.t;
  c_surv : Bytes.t;
  c_par : parents;
  c_rng : (string * (float * float)) list array option;
}

(* Group rows by code, first-seen group order, members ascending (codes
   are exact for structural equality, so a class is a group of equal
   rows). *)
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

let run_cols ~revalidate ~sample_stride ~(env : Typecheck.env)
    (db : Relation.Db.t) (sa : Alternatives.sa) (bt : Backtrace.t) : t =
  let st = { next_rid = 0; traces = [] } in
  let q = sa.Alternatives.query in
  (* Stride-sampled NIP re-validation: gather every [stride]th row (in
     the congruence class of the op's first global rid, so the sampled
     rows are exactly the rids divisible by the stride), run the mask
     kernel on the sub-batch, and scatter the verdicts back into an
     all-false mask — off-sample rows conservatively read inconsistent.
     Must be called right before the op's [crecord], while [st.next_rid]
     still reads as the rid the op's first row is about to receive. *)
  let sampled_mask nip data rng =
    let n = C.length data in
    if sample_stride <= 1 then nip_mask nip data rng
    else begin
      let rid0 = st.next_rid in
      let offset =
        (sample_stride - (rid0 mod sample_stride)) mod sample_stride
      in
      let idx = C.stride_indices ~n ~offset ~stride:sample_stride in
      if Array.length idx = n then nip_mask nip data rng
      else begin
        let mask = ball n false in
        if Array.length idx > 0 then begin
          let sub = C.gather data idx in
          let sub_rng =
            Option.map (fun arr -> Array.map (fun i -> arr.(i)) idx) rng
          in
          let sub_mask = nip_mask nip sub sub_rng in
          Array.iteri (fun j i -> bset mask i (bget sub_mask j)) idx
        end;
        mask
      end
    end
  in
  let fields_of sub =
    match Typecheck.infer_result env sub with
    | Ok ty -> Vtype.relation_fields ty
    | Error e ->
      invalid_arg ("Tracing.run: ill-typed SA query: " ^ e.Typecheck.message)
  in
  (* Children's stored flags drive the no-re-validation ablation: a row
     is consistent when any parent is (the Select/Union/Diff/Dedup
     overrides coincide with single-parent propagation). *)
  let propagate (children : cres list) (par : parents) n : Bytes.t =
    let cons_of rid =
      List.exists
        (fun ch ->
          rid >= ch.c_rid0
          && rid < ch.c_rid0 + ch.c_n
          && bget ch.c_cons (rid - ch.c_rid0))
        children
    in
    Bytes.init n (fun i -> chr (List.exists cons_of (parents_list par i)))
  in
  let rec go (op : Query.t) : cres =
    let nip = Backtrace.op_nip bt op.Query.id in
    (* Record allocates the op's contiguous rid block post-children, so
       rids ascend in post-order over the operator tree. *)
    let crecord ~data ~cons ~ret ~surv ~par ~rng : cres =
      let n = C.length data in
      let rid0 = st.next_rid in
      st.next_rid <- rid0 + n;
      let ann =
        {
          v_n = n;
          v_rid0 = rid0;
          v_consistent = cons;
          v_retained = ret;
          v_surviving = surv;
          v_parents = par;
          v_ranges = rng;
        }
      in
      st.traces <-
        {
          op_id = op.Query.id;
          op_node = op.Query.node;
          nip;
          ann;
          rows = lazy (rows_of_ann ann data);
          data_at = (fun i -> C.get_row data i);
        }
        :: st.traces;
      {
        c_rid0 = rid0;
        c_n = n;
        c_data = data;
        c_cons = cons;
        c_ret = ret;
        c_surv = surv;
        c_par = par;
        c_rng = rng;
      }
    in
    let reval_cons ~children ~data ~rng ~par =
      if revalidate then sampled_mask nip data rng
      else propagate children par (C.length data)
    in
    match op.Query.node, op.Query.children with
    | Query.Table name, [] ->
      let rel = Relation.Db.find_exn name db in
      let data = C.of_relation rel in
      let n = C.length data in
      C.note_rows_scanned n;
      crecord ~data
        ~cons:(sampled_mask nip data None)
        ~ret:(ball n true) ~surv:(ball n true) ~par:P_none ~rng:None
    | Query.Select pred, [ c ] ->
      let r = go c in
      let keeps = bytes_of_bitv r.c_n (C.eval_pred_mask r.c_data pred) in
      crecord ~data:r.c_data ~cons:r.c_cons ~ret:keeps
        ~surv:(band r.c_surv keeps) ~par:(P_self r.c_rid0) ~rng:r.c_rng
    | Query.Project cols, [ c ] ->
      let r = go c in
      let n = r.c_n in
      let data =
        if n = 0 then C.empty
        else
          C.of_cols n
            (List.map (fun (nm, e) -> (nm, C.eval_expr r.c_data e)) cols)
      in
      let rng =
        match r.c_rng with
        | None -> None
        | Some arr ->
          norm_rng
            (Array.map
               (fun ranges ->
                 List.filter_map
                   (fun (nm, e) ->
                     match e with
                     | Expr.Attr a ->
                       Option.map (fun iv -> (nm, iv)) (List.assoc_opt a ranges)
                     | _ -> None)
                   cols)
               arr)
      in
      let par = P_self r.c_rid0 in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng ~par)
        ~ret:(ball n true) ~surv:r.c_surv ~par ~rng
    | Query.Rename pairs, [ c ] ->
      let r = go c in
      let n = r.c_n in
      let rename_label l =
        match List.find_opt (fun (_, old) -> String.equal old l) pairs with
        | Some (fresh, _) -> fresh
        | None -> l
      in
      let data =
        if n = 0 then r.c_data
        else
          match C.cols r.c_data with
          | Some fs ->
            C.of_cols n (List.map (fun (l, col) -> (rename_label l, col)) fs)
          | None ->
            C.of_values
              (Array.map
                 (fun t ->
                   match t with
                   | Value.Tuple fs ->
                     Value.Tuple
                       (List.map (fun (l, v) -> (rename_label l, v)) fs)
                   | other -> other)
                 (C.to_values r.c_data))
      in
      let rng =
        Option.map
          (Array.map (List.map (fun (l, iv) -> (rename_label l, iv))))
          r.c_rng
      in
      let par = P_self r.c_rid0 in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng ~par)
        ~ret:(ball n true) ~surv:r.c_surv ~par ~rng
    | Query.Dedup, [ c ] ->
      let r = go c in
      let coder = C.Coder.create () in
      let groups = group_indices (C.row_codes coder r.c_data) in
      let g = Array.length groups in
      let data = C.gather r.c_data (Array.map (fun m -> m.(0)) groups) in
      let cons = Bytes.create g and surv = Bytes.create g in
      let total = Array.fold_left (fun acc m -> acc + Array.length m) 0 groups in
      let off = Array.make (g + 1) 0 in
      let flat = Array.make total 0 in
      let k = ref 0 in
      Array.iteri
        (fun gi members ->
          off.(gi) <- !k;
          bset cons gi
            (Array.exists (fun i -> bget r.c_cons i) members);
          bset surv gi
            (Array.exists (fun i -> bget r.c_surv i) members);
          Array.iter
            (fun i ->
              flat.(!k) <- r.c_rid0 + i;
              incr k)
            members)
        groups;
      off.(g) <- !k;
      crecord ~data ~cons ~ret:(ball g true) ~surv ~par:(P_many (off, flat))
        ~rng:None
    | Query.Union, [ l; r ] ->
      let a = go l and b = go r in
      let n = a.c_n + b.c_n in
      let data = C.vstack [ a.c_data; b.c_data ] in
      let par =
        P_one
          (Array.init n (fun i ->
               if i < a.c_n then a.c_rid0 + i else b.c_rid0 + (i - a.c_n)))
      in
      let rng =
        match a.c_rng, b.c_rng with
        | None, None -> None
        | ra, rb ->
          Some
            (Array.init n (fun i ->
                 if i < a.c_n then rng_at ra i else rng_at rb (i - a.c_n)))
      in
      crecord ~data
        ~cons:(Bytes.cat a.c_cons b.c_cons)
        ~ret:(ball n true)
        ~surv:(Bytes.cat a.c_surv b.c_surv)
        ~par ~rng
    | Query.Diff, [ l; r ] ->
      let a = go l and b = go r in
      (* Relaxation keeps every left row; multiset difference against the
         *surviving* right rows decides [retained]/[surviving]. *)
      let coder = C.Coder.create () in
      let lc = C.row_codes coder a.c_data in
      let rc = C.row_codes coder b.c_data in
      let counts = Hashtbl.create 32 in
      Array.iteri
        (fun j code ->
          if bget b.c_surv j then
            Hashtbl.replace counts code
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts code)))
        rc;
      let ret = Bytes.create a.c_n and surv = Bytes.create a.c_n in
      Array.iteri
        (fun i code ->
          let removed =
            bget a.c_surv i
            &&
            match Hashtbl.find_opt counts code with
            | Some n when n > 0 ->
              Hashtbl.replace counts code (n - 1);
              true
            | _ -> false
          in
          bset ret i (not removed);
          bset surv i (bget a.c_surv i && not removed))
        lc;
      crecord ~data:a.c_data ~cons:a.c_cons ~ret ~surv ~par:(P_self a.c_rid0)
        ~rng:a.c_rng
    | Query.Flatten_tuple a, [ c ] ->
      let r = go c in
      let n = r.c_n in
      let inner_ty =
        match List.assoc_opt a (fields_of c) with
        | Some ty -> ty
        | None -> invalid_arg ("Tracing: unknown attribute " ^ a)
      in
      let null_inner = Vtype.null_tuple inner_ty in
      let data =
        if n = 0 then C.empty
        else
          let right =
            match C.find_col r.c_data a with
            | Some (C.CTuple (_, _, None) as ic) -> { C.n; row = ic }
            | Some col ->
              C.of_values
                (Array.init n (fun i ->
                     match C.col_get col i with
                     | Value.Tuple _ as inner -> inner
                     | _ -> null_inner))
            | None -> (
              match C.cols r.c_data with
              | Some _ -> C.broadcast n null_inner
              | None ->
                C.of_values
                  (Array.init n (fun i ->
                       match Value.field a (C.get_row r.c_data i) with
                       | Some (Value.Tuple _ as inner) -> inner
                       | _ -> null_inner)))
          in
          C.hstack r.c_data right
      in
      let par = P_self r.c_rid0 in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng:r.c_rng ~par)
        ~ret:(ball n true) ~surv:r.c_surv ~par ~rng:r.c_rng
    | Query.Flatten (kind, a), [ c ] ->
      let r = go c in
      let n = r.c_n in
      let inner_ty =
        match List.assoc_opt a (fields_of c) with
        | Some (Vtype.TBag ety) -> ety
        | _ -> invalid_arg ("Tracing: attribute " ^ a ^ " is not a relation")
      in
      let null_inner = Vtype.null_tuple inner_ty in
      (* Expanded output interleaves one pad row at each empty-bag input
         position, in input order. *)
      let parent_idx, pad, right =
        match C.find_col r.c_data a with
        | Some (C.CBag bg) ->
          let present i =
            match bg.C.bpresent with
            | None -> true
            | Some p -> C.Bitv.get p i
          in
          let total = ref 0 in
          for i = 0 to n - 1 do
            let cnt =
              if not (present i) then 0
              else begin
                let s = ref 0 in
                for j = bg.C.boff.(i) to bg.C.boff.(i + 1) - 1 do
                  s := !s + bg.C.bmult.(j)
                done;
                !s
              end
            in
            total := !total + max 1 cnt
          done;
          let m = !total in
          let parent_idx = Array.make m 0 and sel = Array.make m 0 in
          let ne = C.col_length bg.C.belems in
          let k = ref 0 in
          for i = 0 to n - 1 do
            let start = !k in
            if present i then
              for j = bg.C.boff.(i) to bg.C.boff.(i + 1) - 1 do
                for _ = 1 to bg.C.bmult.(j) do
                  parent_idx.(!k) <- i;
                  sel.(!k) <- j;
                  incr k
                done
              done;
            if !k = start then begin
              parent_idx.(!k) <- i;
              sel.(!k) <- ne;
              incr k
            end
          done;
          let pad = Bytes.init m (fun o -> chr (sel.(o) = ne)) in
          let elem_batch = { C.n = ne; row = bg.C.belems } in
          let right =
            C.gather (C.vstack [ elem_batch; C.broadcast 1 null_inner ]) sel
          in
          (parent_idx, pad, right)
        | col_opt ->
          let get_field i =
            match col_opt with
            | Some col -> Some (C.col_get col i)
            | None -> Value.field a (C.get_row r.c_data i)
          in
          let elems =
            Array.init n (fun i ->
                match get_field i with
                | Some (Value.Bag _ as bag) -> Value.expand bag
                | _ -> [])
          in
          let m =
            Array.fold_left (fun acc l -> acc + max 1 (List.length l)) 0 elems
          in
          let parent_idx = Array.make m 0 in
          let pad = Bytes.make m '\000' in
          let vals = Array.make m Value.Null in
          let k = ref 0 in
          Array.iteri
            (fun i l ->
              match l with
              | [] ->
                parent_idx.(!k) <- i;
                Bytes.set pad !k '\001';
                vals.(!k) <- null_inner;
                incr k
              | l ->
                List.iter
                  (fun u ->
                    parent_idx.(!k) <- i;
                    vals.(!k) <- u;
                    incr k)
                  l)
            elems;
          (parent_idx, pad, C.of_values vals)
      in
      let m = Array.length parent_idx in
      let data =
        if m = 0 then C.empty else C.hstack (C.gather r.c_data parent_idx) right
      in
      let keeps_pad = kind = Query.Flat_outer in
      let ret = Bytes.init m (fun o -> chr ((not (bget pad o)) || keeps_pad)) in
      let surv =
        Bytes.init m (fun o ->
            chr
              (bget r.c_surv parent_idx.(o)
              && ((not (bget pad o)) || keeps_pad)))
      in
      let par = P_one (Array.map (fun i -> r.c_rid0 + i) parent_idx) in
      let rng =
        Option.map (fun arr -> Array.map (fun i -> arr.(i)) parent_idx) r.c_rng
      in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng ~par)
        ~ret ~surv ~par ~rng
    | Query.Join (kind, pred), [ l; r ] ->
      let a = go l and b = go r in
      let lfs = fields_of l and rfs = fields_of r in
      let lnull = Vtype.null_tuple (Vtype.TTuple lfs) in
      let rnull = Vtype.null_tuple (Vtype.TTuple rfs) in
      let keys, residual =
        Engine.Exec.equi_split (List.map fst lfs) (List.map fst rfs) pred
      in
      let ln = a.c_n and rn = b.c_n in
      let cand_l, cand_r =
        if ln = 0 || rn = 0 then ([||], [||])
        else
          match keys with
          | [] ->
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
            (* Fast path: every key pair is a dictionary-encoded string
               column on both sides.  Dict codes are global, so they are
               already cross-batch equality codes — no per-cell interning. *)
            let fast_key_cols =
              match C.cols a.c_data, C.cols b.c_data with
              | Some lf, Some rf ->
                let rec collect ks acc =
                  match ks with
                  | [] -> Some (List.rev acc)
                  | (la, ra) :: rest -> (
                    match List.assoc_opt la lf, List.assoc_opt ra rf with
                    | Some (C.CStr (lc, lp)), Some (C.CStr (rc, rp)) ->
                      collect rest (((lc, lp), (rc, rp)) :: acc)
                    | _ -> None)
                in
                collect keys []
              | _ -> None
            in
            let dict_side_codes n (cols : (int array * C.Bitv.t option) list) :
                int array =
              let comps =
                List.map
                  (fun (codes, p) ->
                    match p with
                    | None -> codes
                    | Some bv ->
                      Array.init n (fun i ->
                          if C.Bitv.get bv i then codes.(i) else min_int))
                  cols
              in
              let mixed =
                match comps with
                | [ one ] -> Array.copy one
                | comps -> C.Coder.mix coder comps
              in
              List.iter
                (fun cs ->
                  for i = 0 to n - 1 do
                    if cs.(i) = min_int then mixed.(i) <- -1
                  done)
                comps;
              mixed
            in
            (* Key codes per row; [-1] flags a key containing Null, which
               can never satisfy an equality conjunct. *)
            let side_codes (bd : C.t) attrs : int array =
              let n = C.length bd in
              match C.cols bd with
              | Some fields ->
                let comps =
                  List.map
                    (fun at ->
                      C.Coder.col_codes coder
                        (match List.assoc_opt at fields with
                        | Some col -> col
                        | None -> C.CNull n))
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
                let comps =
                  Array.init n (fun i ->
                      let t = C.get_row bd i in
                      List.map
                        (fun at ->
                          Option.value ~default:Value.Null (Value.field at t))
                        attrs)
                in
                let code_arrays =
                  List.init (List.length attrs) (fun j ->
                      Array.map
                        (fun cs -> C.Coder.value_code coder (List.nth cs j))
                        comps)
                in
                let mixed = C.Coder.mix coder code_arrays in
                Array.iteri
                  (fun i cs ->
                    if List.exists (fun v -> v = Value.Null) cs then
                      mixed.(i) <- -1)
                  comps;
                mixed
            in
            let lc, rc =
              match fast_key_cols with
              | Some kcols ->
                ( dict_side_codes ln (List.map fst kcols),
                  dict_side_codes rn (List.map snd kcols) )
              | None ->
                ( side_codes a.c_data (List.map fst keys),
                  side_codes b.c_data (List.map snd keys) )
            in
            (* Right is always the build side here: the row trace probes
               left rows in order against newest-first right buckets, and
               the candidate order below reproduces that enumeration. *)
            let idx = Hashtbl.create (2 * rn) in
            Array.iteri
              (fun j code ->
                if code >= 0 then
                  Hashtbl.replace idx code
                    (j :: Option.value ~default:[] (Hashtbl.find_opt idx code)))
              rc;
            let li = ref [] and ri = ref [] in
            Array.iteri
              (fun i code ->
                if code >= 0 then
                  match Hashtbl.find_opt idx code with
                  | None -> ()
                  | Some js ->
                    List.iter
                      (fun j ->
                        li := i :: !li;
                        ri := j :: !ri)
                      js)
              lc;
            (Array.of_list (List.rev !li), Array.of_list (List.rev !ri))
      in
      let joined =
        C.hstack (C.gather a.c_data cand_l) (C.gather b.c_data cand_r)
      in
      let mask =
        match residual with
        | Expr.True -> C.Bitv.create (C.length joined) true
        | p -> C.eval_pred_mask joined p
      in
      let keep = C.Bitv.indices mask in
      let nm = Array.length keep in
      let inner =
        if nm = C.length joined then joined else C.filter joined mask
      in
      let matched_l = Bytes.make (max ln 1) '\000'
      and matched_r = Bytes.make (max rn 1) '\000' in
      Array.iter
        (fun k ->
          Bytes.set matched_l cand_l.(k) '\001';
          Bytes.set matched_r cand_r.(k) '\001')
        keep;
      let keeps_l = kind = Query.Left || kind = Query.Full in
      let keeps_r = kind = Query.Right || kind = Query.Full in
      let unmatched mbytes cnt =
        let out = ref [] in
        for i = cnt - 1 downto 0 do
          if Bytes.get mbytes i = '\000' then out := i :: !out
        done;
        Array.of_list !out
      in
      let ul = unmatched matched_l ln and ur = unmatched matched_r rn in
      let nl = Array.length ul and nr = Array.length ur in
      let padl =
        if nl = 0 then C.empty
        else C.hstack (C.gather a.c_data ul) (C.broadcast nl rnull)
      in
      let padr =
        if nr = 0 then C.empty
        else C.hstack (C.broadcast nr lnull) (C.gather b.c_data ur)
      in
      let data =
        C.vstack
          (List.filter (fun t -> C.length t > 0) [ inner; padl; padr ])
      in
      let m = nm + nl + nr in
      let ret = Bytes.create m and surv = Bytes.create m in
      (* An unmatched row is in particular not surv-matched, so the row
         path's extra [not surv_matched] conjunct on pads is vacuous. *)
      Array.iteri
        (fun o k ->
          bset ret o true;
          bset surv o (bget a.c_surv cand_l.(k) && bget b.c_surv cand_r.(k)))
        keep;
      Array.iteri
        (fun o i ->
          bset ret (nm + o) keeps_l;
          bset surv (nm + o) (bget a.c_surv i && keeps_l))
        ul;
      Array.iteri
        (fun o j ->
          bset ret (nm + nl + o) keeps_r;
          bset surv (nm + nl + o) (bget b.c_surv j && keeps_r))
        ur;
      let off = Array.make (m + 1) 0 in
      let flat = Array.make ((2 * nm) + nl + nr) 0 in
      for o = 0 to nm - 1 do
        off.(o) <- 2 * o;
        flat.(2 * o) <- a.c_rid0 + cand_l.(keep.(o));
        flat.((2 * o) + 1) <- b.c_rid0 + cand_r.(keep.(o))
      done;
      for o = 0 to nl - 1 do
        off.(nm + o) <- (2 * nm) + o;
        flat.((2 * nm) + o) <- a.c_rid0 + ul.(o)
      done;
      for o = 0 to nr - 1 do
        off.(nm + nl + o) <- (2 * nm) + nl + o;
        flat.((2 * nm) + nl + o) <- b.c_rid0 + ur.(o)
      done;
      off.(m) <- (2 * nm) + nl + nr;
      let par = P_many (off, flat) in
      let rng =
        match a.c_rng, b.c_rng with
        | None, None -> None
        | ra, rb ->
          Some
            (Array.init m (fun o ->
                 if o < nm then
                   rng_at ra cand_l.(keep.(o)) @ rng_at rb cand_r.(keep.(o))
                 else if o < nm + nl then rng_at ra ul.(o - nm)
                 else rng_at rb ur.(o - nm - nl)))
      in
      let cons = reval_cons ~children:[ a; b ] ~data ~rng ~par in
      crecord ~data ~cons ~ret ~surv ~par ~rng
    | Query.Nest_tuple (pairs, c_name), [ c ] ->
      let r = go c in
      let n = r.c_n in
      let attrs = List.map snd pairs in
      let data =
        if n = 0 then r.c_data
        else
          match C.cols r.c_data with
          | Some fs ->
            let rest =
              List.filter (fun (l, _) -> not (List.mem l attrs)) fs
            in
            let nested =
              List.map
                (fun (label, a) ->
                  ( label,
                    match List.assoc_opt a fs with
                    | Some col -> col
                    | None -> C.CNull n ))
                pairs
            in
            C.of_cols n (rest @ [ (c_name, C.CTuple (n, nested, None)) ])
          | None ->
            C.of_values
              (Array.map
                 (fun t ->
                   match t with
                   | Value.Tuple fs ->
                     let rest =
                       List.filter (fun (l, _) -> not (List.mem l attrs)) fs
                     in
                     let nested =
                       List.map
                         (fun (label, a) ->
                           ( label,
                             Option.value ~default:Value.Null
                               (List.assoc_opt a fs) ))
                         pairs
                     in
                     Value.Tuple (rest @ [ (c_name, Value.Tuple nested) ])
                   | other -> other)
                 (C.to_values r.c_data))
      in
      let rng =
        match r.c_rng with
        | None -> None
        | Some arr ->
          norm_rng
            (Array.map
               (List.filter (fun (l, _) -> not (List.mem l attrs)))
               arr)
      in
      let par = P_self r.c_rid0 in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng ~par)
        ~ret:(ball n true) ~surv:r.c_surv ~par ~rng
    | Query.Nest_rel (pairs, c_name), [ c ] ->
      let r = go c in
      let n = r.c_n in
      let attrs = List.map snd pairs in
      let all = List.map fst (fields_of c) in
      let group_attrs = List.filter (fun a -> not (List.mem a attrs)) all in
      (* Column view of the input; shape-degenerate batches fall back to
         per-row field extraction once, up front. *)
      let fcols =
        match C.cols r.c_data with
        | Some fs -> fs
        | None ->
          List.map
            (fun a ->
              ( a,
                (C.of_values
                   (Array.init n (fun i ->
                        Option.value ~default:Value.Null
                          (Value.field a (C.get_row r.c_data i)))))
                  .C.row ))
            all
      in
      let col_of a =
        match List.assoc_opt a fcols with
        | Some col -> col
        | None -> C.CNull n
      in
      let key_batch =
        C.of_cols n (List.map (fun a -> (a, col_of a)) group_attrs)
      in
      let proj_batch =
        C.of_cols n (List.map (fun (label, a) -> (label, col_of a)) pairs)
      in
      let key_codes = C.eqclasses n (List.map col_of group_attrs) in
      let proj_codes =
        C.eqclasses n (List.map (fun (_, a) -> col_of a) pairs)
      in
      let groups = group_indices key_codes in
      (* Per output row: key representative, canonical bag contents
         (distinct member rows + multiplicities), flags, parents.  Bag
         canonicalisation matches [Value.bag_of_list]: equal projections
         (detected by code equality) merge their multiplicities, and the
         distinct representatives sort by [Value.compare] — so the lazy
         tree reconstruction is byte-identical to [Value.bag_of_list]'s. *)
      let out_reps = ref []
      and out_elems = ref []
      and out_total = ref 0
      and survs = ref []
      and pars = ref []
      and cnt = ref 0 in
      (* Shared per-call scratch: [proj_codes] are representative row
         indices, so multiplicities live in one [n]-sized count array
         reset after each group. *)
      let mult_of = Array.make n 0 in
      let canon ~only_surv members =
        let distinct = ref [] in
        Array.iter
          (fun i ->
            if (not only_surv) || bget r.c_surv i then begin
              let cd = proj_codes.(i) in
              if mult_of.(cd) = 0 then distinct := cd :: !distinct;
              mult_of.(cd) <- mult_of.(cd) + 1
            end)
          members;
        let ds =
          List.rev_map
            (fun cd ->
              let m = mult_of.(cd) in
              mult_of.(cd) <- 0;
              (cd, m))
            !distinct
        in
        List.sort (fun (a, _) (b, _) -> C.cmp_rows proj_batch a b) ds
      in
      let parents_of ~only_surv members =
        Array.fold_right
          (fun i acc ->
            if (not only_surv) || bget r.c_surv i then (r.c_rid0 + i) :: acc
            else acc)
          members []
      in
      let emit gi elems ~surviving ~parents =
        out_reps := gi :: !out_reps;
        out_elems := elems :: !out_elems;
        out_total := !out_total + List.length elems;
        survs := surviving :: !survs;
        pars := parents :: !pars;
        incr cnt
      in
      Array.iter
        (fun members ->
          let rep = members.(0) in
          let na = Array.length members in
          let ns = ref 0 in
          Array.iter (fun i -> if bget r.c_surv i then incr ns) members;
          let ns = !ns in
          (* The surviving members are a sub-multiset of the group, so
             the two bags are equal iff the member counts are. *)
          emit rep
            (canon ~only_surv:false members)
            ~surviving:(ns = na)
            ~parents:(parents_of ~only_surv:false members);
          if ns > 0 && ns < na then
            emit rep
              (canon ~only_surv:true members)
              ~surviving:true
              ~parents:(parents_of ~only_surv:true members))
        groups;
      let m = !cnt in
      let reps = Array.of_list (List.rev !out_reps) in
      let elems = Array.of_list (List.rev !out_elems) in
      let boff = Array.make (m + 1) 0 in
      let bmult = Array.make !out_total 1 in
      let sel = Array.make !out_total 0 in
      let k = ref 0 in
      Array.iteri
        (fun o es ->
          boff.(o) <- !k;
          List.iter
            (fun (i, mult) ->
              sel.(!k) <- i;
              bmult.(!k) <- mult;
              incr k)
            es)
        elems;
      boff.(m) <- !k;
      let bag_col =
        C.CBag
          {
            C.bn = m;
            boff;
            bmult;
            belems = (C.gather proj_batch sel).C.row;
            bpresent = None;
          }
      in
      let data =
        C.hstack (C.gather key_batch reps) (C.of_cols m [ (c_name, bag_col) ])
      in
      let surv = Bytes.create m in
      List.iteri (fun o v -> bset surv o v) (List.rev !survs);
      let plists = Array.of_list (List.rev !pars) in
      let total = Array.fold_left (fun acc l -> acc + List.length l) 0 plists in
      let off = Array.make (m + 1) 0 in
      let flat = Array.make total 0 in
      let k = ref 0 in
      Array.iteri
        (fun o l ->
          off.(o) <- !k;
          List.iter
            (fun p ->
              flat.(!k) <- p;
              incr k)
            l)
        plists;
      off.(m) <- !k;
      let par = P_many (off, flat) in
      let cons = reval_cons ~children:[ r ] ~data ~rng:None ~par in
      crecord ~data ~cons ~ret:(ball m true) ~surv ~par ~rng:None
    | Query.Agg_tuple (fn, a, b), [ c ] ->
      let r = go c in
      let n = r.c_n in
      let unwrap v =
        match v with Value.Tuple [ (_, inner) ] -> inner | other -> other
      in
      let member_vals : Value.t list array =
        match C.find_col r.c_data a with
        | Some (C.CBag bg) ->
          let evs =
            match bg.C.belems with
            | C.CTuple (_, [ (_, inner) ], None) -> C.col_values inner
            | ec -> Array.map unwrap (C.col_values ec)
          in
          let present i =
            match bg.C.bpresent with
            | None -> true
            | Some p -> C.Bitv.get p i
          in
          Array.init n (fun i ->
              if not (present i) then []
              else begin
                let acc = ref [] in
                for j = bg.C.boff.(i + 1) - 1 downto bg.C.boff.(i) do
                  for _ = 1 to bg.C.bmult.(j) do
                    acc := evs.(j) :: !acc
                  done
                done;
                !acc
              end)
        | col_opt ->
          Array.init n (fun i ->
              let fv =
                match col_opt with
                | Some col -> Some (C.col_get col i)
                | None -> Value.field a (C.get_row r.c_data i)
              in
              match fv with
              | Some (Value.Bag _ as bag) ->
                List.map unwrap (Value.expand bag)
              | _ -> [])
      in
      let agg_vals = Array.map (Agg.apply fn) member_vals in
      let rng =
        norm_rng
          (Array.init n (fun i ->
               let parent = rng_at r.c_rng i in
               match Agg.achievable_range fn member_vals.(i) with
               | Some iv -> (b, iv) :: parent
               | None -> parent))
      in
      let data =
        if n = 0 then C.empty
        else C.hstack r.c_data (C.of_cols n [ (b, (C.of_values agg_vals).C.row) ])
      in
      let par = P_self r.c_rid0 in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng ~par)
        ~ret:(ball n true) ~surv:r.c_surv ~par ~rng
    | Query.Group_agg (group, aggs), [ c ] ->
      let r = go c in
      let n = r.c_n in
      let ucols = C.cols r.c_data in
      let coder = C.Coder.create () in
      let gattrs = List.map snd group in
      let key_codes =
        match ucols with
        | Some fs -> (
          match gattrs with
          | [] -> Array.make n 0
          | gattrs ->
            C.Coder.mix coder
              (List.map
                 (fun a ->
                   C.Coder.col_codes coder
                     (match List.assoc_opt a fs with
                     | Some col -> col
                     | None -> C.CNull n))
                 gattrs))
        | None ->
          Array.init n (fun i ->
              C.Coder.value_code coder
                (Value.Tuple
                   (List.map
                      (fun (label, a) ->
                        ( label,
                          Option.value ~default:Value.Null
                            (Value.field a (C.get_row r.c_data i)) ))
                      group)))
      in
      let groups = group_indices key_codes in
      let reps = Array.map (fun m -> m.(0)) groups in
      let key_vals =
        match ucols with
        | Some fs ->
          C.to_values
            (C.gather
               (C.of_cols n
                  (List.map
                     (fun (label, a) ->
                       ( label,
                         match List.assoc_opt a fs with
                         | Some col -> col
                         | None -> C.CNull n ))
                     group))
               reps)
        | None ->
          Array.map
            (fun i ->
              Value.Tuple
                (List.map
                   (fun (label, a) ->
                     ( label,
                       Option.value ~default:Value.Null
                         (Value.field a (C.get_row r.c_data i)) ))
                   group))
            reps
      in
      (* One member-value accessor per aggregate, column-materialized on
         the uniform path. *)
      let member_value_of : (int -> Value.t) list =
        List.map
          (fun (_, a, _) ->
            match a with
            | None -> fun _ -> Value.Int 1
            | Some a -> (
              match ucols with
              | Some fs ->
                let vs =
                  C.col_values
                    (match List.assoc_opt a fs with
                    | Some col -> col
                    | None -> C.CNull n)
                in
                fun i -> vs.(i)
              | None ->
                fun i ->
                  Option.value ~default:Value.Null
                    (Value.field a (C.get_row r.c_data i))))
          aggs
      in
      let aggregate members =
        let agg_fields_and_ranges =
          List.map2
            (fun (fn, _, out) getv ->
              let values = List.map getv members in
              let field = (out, Agg.apply fn values) in
              let range =
                Option.map (fun iv -> (out, iv)) (Agg.achievable_range fn values)
              in
              (field, range))
            aggs member_value_of
        in
        ( List.map fst agg_fields_and_ranges,
          List.filter_map snd agg_fields_and_ranges )
      in
      let vals = ref []
      and rets = ref []
      and survs = ref []
      and pars = ref []
      and rngs = ref []
      and cnt = ref 0 in
      let emit v ~retained ~surviving ~parents ~ranges =
        vals := v :: !vals;
        rets := retained :: !rets;
        survs := surviving :: !survs;
        pars := parents :: !pars;
        rngs := ranges :: !rngs;
        incr cnt
      in
      Array.iteri
        (fun gi members ->
          let k = key_vals.(gi) in
          let member_list = Array.to_list members in
          let fields, ranges = aggregate member_list in
          let relaxed_data = Value.concat_tuples k (Value.Tuple fields) in
          let surviving_members =
            List.filter (fun i -> bget r.c_surv i) member_list
          in
          let original_data =
            if surviving_members = [] then None
            else
              let fields, _ = aggregate surviving_members in
              Some (Value.concat_tuples k (Value.Tuple fields))
          in
          emit relaxed_data ~retained:true
            ~surviving:(original_data = Some relaxed_data)
            ~parents:(List.map (fun i -> r.c_rid0 + i) member_list)
            ~ranges;
          match original_data with
          | Some od when od <> relaxed_data ->
            emit od ~retained:true ~surviving:true
              ~parents:(List.map (fun i -> r.c_rid0 + i) surviving_members)
              ~ranges:[]
          | _ -> ())
        groups;
      let m = !cnt in
      let data = C.of_values (Array.of_list (List.rev !vals)) in
      let ret = Bytes.create m and surv = Bytes.create m in
      List.iteri (fun o v -> bset ret o v) (List.rev !rets);
      List.iteri (fun o v -> bset surv o v) (List.rev !survs);
      let rng = norm_rng (Array.of_list (List.rev !rngs)) in
      let plists = Array.of_list (List.rev !pars) in
      let total = Array.fold_left (fun acc l -> acc + List.length l) 0 plists in
      let off = Array.make (m + 1) 0 in
      let flat = Array.make total 0 in
      let k = ref 0 in
      Array.iteri
        (fun o l ->
          off.(o) <- !k;
          List.iter
            (fun p ->
              flat.(!k) <- p;
              incr k)
            l)
        plists;
      off.(m) <- !k;
      let par = P_many (off, flat) in
      crecord ~data
        ~cons:(reval_cons ~children:[ r ] ~data ~rng ~par)
        ~ret ~surv ~par ~rng
    | _ -> invalid_arg "Tracing.run: malformed query"
  in
  ignore (go q);
  { sa; ops = List.rev st.traces; root_op = q.Query.id }

let site_relaxed = Obs.Faultinject.register_site "tracing.relaxed"

let run ?(revalidate = true) ?(sample_stride = 1) ~(env : Typecheck.env)
    (db : Relation.Db.t) (sa : Alternatives.sa) (bt : Backtrace.t) : t =
  (* Chaos hook: fires once per SA's relaxed evaluation, inside the
     pipeline's per-phase retry scope, so an armed transient fault here
     is recomputed from the (immutable) backtrace and database. *)
  Obs.Faultinject.fire site_relaxed;
  run_cols ~revalidate ~sample_stride ~env db sa bt
