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
   the relaxed evaluation runs the engine's operator kernels
   ({!Engine.Kernel}) over {!Engine.Columnar} batches.

   Aggregate constraints of the why-not question (e.g. revenue > 0) are
   checked *optimistically* via achievable ranges over sub-multisets of
   contributions, since the algorithm does not trace aggregate subsets
   (Section 5.5, corner (iii)). *)

open Nested
open Nrab
module Int_set = Opset.Int_set
module C = Engine.Columnar
module K = Engine.Kernel

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
  data : C.t;  (* the operator's output batch, row [i] = rid [v_rid0 + i] *)
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

(* Does some parent of row [i] satisfy [f]?  Walks the adjacency in
   place, without building the parent list. *)
let exists_parent (p : parents) (i : int) (f : int -> bool) : bool =
  match p with
  | P_none -> false
  | P_self base -> f (base + i)
  | P_one a -> f a.(i)
  | P_many (off, flat) ->
    let stop = off.(i + 1) in
    let rec loop j = j < stop && (f flat.(j) || loop (j + 1)) in
    loop off.(i)

let shift_parents (d : int) (p : parents) : parents =
  match p with
  | P_none -> P_none
  | P_self base -> P_self (base + d)
  | P_one a -> P_one (Array.map (fun r -> r + d) a)
  | P_many (off, flat) -> P_many (off, Array.map (fun r -> r + d) flat)

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
let data_at (ot : op_trace) i = C.get_row ot.data i
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
          for j = bg.C.bstart.(i) to bg.C.bstop.(i) - 1 do
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
            let lo = bg.C.bstart.(i) and hi = bg.C.bstop.(i) in
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
          let lo = bg.C.bstart.(i) and hi = bg.C.bstop.(i) in
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
          C.note_row_fallback ();
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

(* Per-operator result of the relaxed evaluation: the data batch and
   every annotation except consistency, the one that depends on the
   backtraced NIP and hence on the missing-answer pattern.  The records
   form a tree mirroring the query ([c_kids] are the children's). *)
type cres = {
  c_op : Query.t;
  c_rid0 : int;
  c_n : int;
  c_data : C.t;
  c_ret : Bytes.t;
  c_surv : Bytes.t;
  c_par : parents;
  c_rng : (string * (float * float)) list array option;
  c_kids : cres list;
}

(* An SA-invariant subtree traced once: its records with rids relative to
   the block (the block's first row is rid 0). *)
type block = { b_query : Query.t; b_rows : int; b_res : cres }

(* Blocks keyed by tree position: the path of child indices from the
   root, deepest first. *)
type shared = { blocks : (int list * block) list }

let shared_blocks (s : shared) = List.length s.blocks

let shared_rows (s : shared) =
  List.fold_left (fun acc (_, b) -> acc + b.b_rows) 0 s.blocks

(* Move a block to the rid it lands at: rids and parent rids shift by
   [d]; the data and flag vectors are shared as they are. *)
let rec rebase d (r : cres) : cres =
  if d = 0 then r
  else
    {
      r with
      c_rid0 = r.c_rid0 + d;
      c_par = shift_parents d r.c_par;
      c_kids = List.map (rebase d) r.c_kids;
    }

(* The rows among [rows] whose flag is set, in order. *)
let filter_rows flags (rows : int array) : int array =
  let k = ref 0 in
  Array.iter (fun i -> if bget flags i then incr k) rows;
  let out = Array.make !k 0 in
  k := 0;
  Array.iter
    (fun i ->
      if bget flags i then begin
        out.(!k) <- i;
        incr k
      end)
    rows;
  out

(* Parents of rows that each derive from a set of input rows (given as
   indices of the block starting at rid [base]). *)
let members_parents base (members : int array array) : parents =
  let m = Array.length members in
  let off = Array.make (m + 1) 0 in
  Array.iteri (fun o ms -> off.(o + 1) <- off.(o) + Array.length ms) members;
  let flat = Array.make off.(m) 0 in
  Array.iteri
    (fun o ms -> Array.iteri (fun j i -> flat.(off.(o) + j) <- base + i) ms)
    members;
  P_many (off, flat)

(* The pattern-independent half of tracing: evaluate [q] relaxed, and
   count its rows.  A position that [blocks] holds, with an equal
   subtree, is spliced in from the block instead of being evaluated.
   Rids are allocated after the children's, so they ascend in post-order
   over the operator tree, and a block's rows stay contiguous. *)
let evaluate ~(env : Typecheck.env) (db : Relation.Db.t) ~blocks (q : Query.t)
    : cres * int =
  let next_rid = ref 0 in
  let fields_of sub =
    match Typecheck.infer_result env sub with
    | Ok ty -> Vtype.relation_fields ty
    | Error e ->
      invalid_arg ("Tracing.run: ill-typed SA query: " ^ e.Typecheck.message)
  in
  (* Tracing reads an attribute a batch lacks as Null. *)
  let col b a =
    match K.column b a with Some c -> c | None -> C.CNull (C.length b)
  in
  let rec go pos (op : Query.t) : cres =
    match List.assoc_opt pos blocks with
    | Some b when b.b_query = op ->
      let r = rebase !next_rid b.b_res in
      next_rid := !next_rid + b.b_rows;
      r
    | _ -> eval pos op
  and eval pos op =
    let kids = List.mapi (fun i c -> go (i :: pos) c) op.Query.children in
    let crecord ~data ~ret ~surv ~par ~rng : cres =
      let n = C.length data in
      let rid0 = !next_rid in
      next_rid := rid0 + n;
      {
        c_op = op;
        c_rid0 = rid0;
        c_n = n;
        c_data = data;
        c_ret = ret;
        c_surv = surv;
        c_par = par;
        c_rng = rng;
        c_kids = kids;
      }
    in
    match op.Query.node, op.Query.children, kids with
    | Query.Table name, [], [] ->
      let rel = Relation.Db.find_exn name db in
      let data = C.of_relation rel in
      let n = C.length data in
      C.note_rows_scanned n;
      crecord ~data ~ret:(ball n true) ~surv:(ball n true) ~par:P_none
        ~rng:None
    | Query.Select pred, [ _ ], [ r ] ->
      let keeps = bytes_of_bitv r.c_n (C.eval_pred_mask r.c_data pred) in
      crecord ~data:r.c_data ~ret:keeps
        ~surv:(band r.c_surv keeps) ~par:(P_self r.c_rid0) ~rng:r.c_rng
    | Query.Project cols, [ _ ], [ r ] ->
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
      crecord ~data:(K.project cols r.c_data) ~ret:(ball r.c_n true)
        ~surv:r.c_surv ~par:(P_self r.c_rid0) ~rng
    | Query.Rename pairs, [ _ ], [ r ] ->
      let rng =
        Option.map
          (Array.map (List.map (fun (l, iv) -> (K.renamed pairs l, iv))))
          r.c_rng
      in
      crecord ~data:(K.rename pairs r.c_data) ~ret:(ball r.c_n true)
        ~surv:r.c_surv ~par:(P_self r.c_rid0) ~rng
    | Query.Dedup, [ _ ], [ r ] ->
      let groups, data = K.dedup r.c_data in
      let g = Array.length groups in
      let surv =
        Bytes.init g (fun gi -> chr (Array.exists (bget r.c_surv) groups.(gi)))
      in
      crecord ~data ~ret:(ball g true) ~surv
        ~par:(members_parents r.c_rid0 groups) ~rng:None
    | Query.Union, [ _; _ ], [ a; b ] ->
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
      crecord ~data ~ret:(ball n true)
        ~surv:(Bytes.cat a.c_surv b.c_surv)
        ~par ~rng
    | Query.Diff, [ _; _ ], [ a; b ] ->
      (* Relaxation keeps every left row; multiset difference of the
         surviving rows decides [retained]/[surviving]. *)
      let removed =
        K.diff_cancelled ~l_live:(bget a.c_surv) ~r_live:(bget b.c_surv)
          a.c_data b.c_data
      in
      let ret = Bytes.init a.c_n (fun i -> chr (not removed.(i))) in
      crecord ~data:a.c_data ~ret ~surv:(band a.c_surv ret)
        ~par:(P_self a.c_rid0) ~rng:a.c_rng
    | Query.Flatten_tuple a, [ c ], [ r ] ->
      let inner_ty =
        match List.assoc_opt a (fields_of c) with
        | Some ty -> ty
        | None -> invalid_arg ("Tracing: unknown attribute " ^ a)
      in
      crecord
        ~data:(K.flatten_tuple inner_ty (col r.c_data a) r.c_data)
        ~ret:(ball r.c_n true) ~surv:r.c_surv ~par:(P_self r.c_rid0)
        ~rng:r.c_rng
    | Query.Flatten (kind, a), [ c ], [ r ] ->
      let inner_ty =
        match List.assoc_opt a (fields_of c) with
        | Some (Vtype.TBag ety) -> ety
        | _ -> invalid_arg ("Tracing: attribute " ^ a ^ " is not a relation")
      in
      (* The outer flatten; an inner one does not retain its pads. *)
      let f = K.flatten ~outer:true inner_ty (col r.c_data a) r.c_data in
      let m = Array.length f.K.parent in
      let keeps_pad = kind = Query.Flat_outer in
      let ret =
        Bytes.init m (fun o -> chr (keeps_pad || not (C.Bitv.get f.K.pad o)))
      in
      let surv =
        Bytes.init m (fun o -> chr (bget ret o && bget r.c_surv f.K.parent.(o)))
      in
      let par = P_one (Array.map (fun i -> r.c_rid0 + i) f.K.parent) in
      let rng =
        Option.map (fun arr -> Array.map (fun i -> arr.(i)) f.K.parent) r.c_rng
      in
      crecord ~data:f.K.data ~ret ~surv ~par ~rng
    | Query.Join (kind, pred), [ l; r ], [ a; b ] ->
      let lfs = fields_of l and rfs = fields_of r in
      let lnull = Vtype.null_tuple (Vtype.TTuple lfs) in
      let rnull = Vtype.null_tuple (Vtype.TTuple rfs) in
      let keys, residual =
        K.equi_split (List.map fst lfs) (List.map fst rfs) pred
      in
      let ln = a.c_n and rn = b.c_n in
      let cand =
        if ln = 0 || rn = 0 then ([||], [||])
        else
          match keys with
          | [] -> K.all_pairs ln rn
          | keys ->
            let lc, rc =
              K.key_codes
                (List.map
                   (fun (la, ra) -> (col a.c_data la, col b.c_data ra))
                   keys)
            in
            (* The right side is always the build side: the candidate
               order fixes the rids, which the stride samples read. *)
            let rs, ls = K.hash_pairs ~build:rc ~probe:lc in
            (ls, rs)
      in
      (* The full outer join; the flags say what [kind] keeps. *)
      let j =
        K.join ~kind:Query.Full ~residual ~lnull ~rnull cand a.c_data b.c_data
      in
      let kl = j.K.kept_l and kr = j.K.kept_r in
      let ul = j.K.unmatched_l and ur = j.K.unmatched_r in
      let nm = Array.length kl in
      let nl = Array.length ul and nr = Array.length ur in
      let keeps_l = kind = Query.Left || kind = Query.Full in
      let keeps_r = kind = Query.Right || kind = Query.Full in
      let m = nm + nl + nr in
      let ret = Bytes.create m and surv = Bytes.create m in
      for o = 0 to nm - 1 do
        bset ret o true;
        bset surv o (bget a.c_surv kl.(o) && bget b.c_surv kr.(o))
      done;
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
        flat.(2 * o) <- a.c_rid0 + kl.(o);
        flat.((2 * o) + 1) <- b.c_rid0 + kr.(o)
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
      let rng =
        match a.c_rng, b.c_rng with
        | None, None -> None
        | ra, rb ->
          Some
            (Array.init m (fun o ->
                 if o < nm then rng_at ra kl.(o) @ rng_at rb kr.(o)
                 else if o < nm + nl then rng_at ra ul.(o - nm)
                 else rng_at rb ur.(o - nm - nl)))
      in
      crecord ~data:j.K.data ~ret ~surv ~par:(P_many (off, flat)) ~rng
    | Query.Nest_tuple (pairs, c_name), [ _ ], [ r ] ->
      let attrs = List.map snd pairs in
      let data =
        K.nest_tuple pairs c_name (List.map (col r.c_data) attrs) r.c_data
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
      crecord ~data ~ret:(ball r.c_n true) ~surv:r.c_surv
        ~par:(P_self r.c_rid0) ~rng
    | Query.Nest_rel (pairs, c_name), [ c ], [ r ] ->
      let attrs = List.map snd pairs in
      let group_attrs =
        List.filter (fun a -> not (List.mem a attrs)) (List.map fst (fields_of c))
      in
      let keys = List.map (fun a -> (a, col r.c_data a)) group_attrs in
      let proj = List.map (fun (label, a) -> (label, col r.c_data a)) pairs in
      (* Per group, the row of all its members and, when only some of
         them survive, the row of the surviving ones.  The surviving
         members are a sub-multiset of the group, so the two bags are
         equal iff the member counts are. *)
      let rows = ref [] in
      Array.iter
        (fun members ->
          let rep = members.(0) in
          let surv_members = filter_rows r.c_surv members in
          let na = Array.length members and ns = Array.length surv_members in
          rows := (rep, members, ns = na) :: !rows;
          if ns > 0 && ns < na then rows := (rep, surv_members, true) :: !rows)
        (K.groups r.c_n (List.map snd keys));
      let rows = Array.of_list (List.rev !rows) in
      let members = Array.map (fun (_, ms, _) -> ms) rows in
      let data =
        K.nest_rel ~keys ~proj c_name
          ~reps:(Array.map (fun (rep, _, _) -> rep) rows)
          members r.c_data
      in
      crecord ~data
        ~ret:(ball (Array.length rows) true)
        ~surv:(Bytes.init (Array.length rows) (fun o ->
                   let _, _, s = rows.(o) in
                   chr s))
        ~par:(members_parents r.c_rid0 members) ~rng:None
    | Query.Agg_tuple (fn, a, b), [ _ ], [ r ] ->
      let member_vals, data = K.agg_tuple fn (col r.c_data a) b r.c_data in
      let rng =
        norm_rng
          (Array.init r.c_n (fun i ->
               let parent = rng_at r.c_rng i in
               match Agg.achievable_range fn member_vals.(i) with
               | Some iv -> (b, iv) :: parent
               | None -> parent))
      in
      crecord ~data ~ret:(ball r.c_n true) ~surv:r.c_surv
        ~par:(P_self r.c_rid0) ~rng
    | Query.Group_agg (group, aggs), [ _ ], [ r ] ->
      let keys = List.map (fun (label, a) -> (label, col r.c_data a)) group in
      let aggs =
        List.map
          (fun (fn, a, out) -> K.agg fn (Option.map (col r.c_data) a) out)
          aggs
      in
      let groups = K.groups r.c_n (List.map snd keys) in
      let reps = K.reps groups in
      let g = Array.length groups in
      (* The relaxed rows aggregate every member of a group, the original
         rows only its surviving members, under the same key row.  Where
         only some members survive, the original rows come from a second
         run of the kernel over those sub-groups; where all survive, the
         original row is the relaxed row. *)
      let relaxed = K.group_agg ~keys ~reps aggs groups r.c_data in
      let surviving = Array.map (filter_rows r.c_surv) groups in
      let partial =
        Array.of_list
          (List.filter
             (fun gi ->
               let ns = Array.length surviving.(gi) in
               ns > 0 && ns < Array.length groups.(gi))
             (List.init g Fun.id))
      in
      let original =
        K.group_agg ~keys
          ~reps:(Array.map (fun gi -> reps.(gi)) partial)
          aggs
          (Array.map (fun gi -> surviving.(gi)) partial)
          r.c_data
      in
      (* Where [original]'s rows go: row [g + k] of [relaxed] then
         [original] is partial group [partial.(k)]'s. *)
      let original_row = Array.make g (-1) in
      Array.iteri (fun k gi -> original_row.(gi) <- g + k) partial;
      let cell i =
        if i < g then (relaxed.C.row, i) else (original.C.row, i - g)
      in
      (* Per output row: its row of [relaxed] then [original], surviving
         flag, parents and ranges.  A relaxed row survives when it equals
         its original row; an original row that differs follows it. *)
      let rows = ref [] in
      Array.iteri
        (fun gi members ->
          let orig =
            if Array.length surviving.(gi) = 0 then -1
            else if original_row.(gi) >= 0 then original_row.(gi)
            else gi
          in
          let same =
            orig >= 0
            &&
            let c, i = cell orig and c', i' = cell gi in
            C.cells_equal c i c' i'
          in
          let ranges =
            List.filter_map
              (fun (a : K.agg) ->
                Option.map
                  (fun iv -> (a.K.out, iv))
                  (a.K.range members))
              aggs
          in
          rows := (gi, same, members, ranges) :: !rows;
          if orig >= 0 && not same then
            rows := (orig, true, surviving.(gi), []) :: !rows)
        groups;
      let rows = Array.of_list (List.rev !rows) in
      let m = Array.length rows in
      let pick = Array.map (fun (i, _, _, _) -> i) rows in
      let data =
        if m = 0 then C.empty
        else if m = g then relaxed (* no original row follows a relaxed one *)
        else C.gather (C.vstack [ relaxed; original ]) pick
      in
      crecord ~data ~ret:(ball m true)
        ~surv:(Bytes.init m (fun o ->
                   let _, s, _, _ = rows.(o) in
                   chr s))
        ~par:(members_parents r.c_rid0 (Array.map (fun (_, _, ms, _) -> ms) rows))
        ~rng:(norm_rng (Array.map (fun (_, _, _, rg) -> rg) rows))
    | _ -> invalid_arg "Tracing.run: malformed query"
  in
  let r = go [] q in
  (r, !next_rid)

(* --- Consistency --------------------------------------------------------- *)

(* Stride-sampled NIP re-validation: gather every [stride]th row (in the
   congruence class of the op's first rid [rid0], so the sampled rows are
   exactly the rids divisible by the stride), run the mask kernel on the
   sub-batch, and scatter the verdicts back into an all-false mask —
   off-sample rows conservatively read inconsistent. *)
let sampled_mask ~stride nip data rng ~rid0 =
  let n = C.length data in
  if stride <= 1 then nip_mask nip data rng
  else begin
    let offset = (stride - (rid0 mod stride)) mod stride in
    let idx = C.stride_indices ~n ~offset ~stride in
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

(* Consistency of a row id among the children's rows. *)
let rec kid_consistent kids rid =
  match kids with
  | [] -> false
  | (k, cons) :: rest ->
    if rid >= k.c_rid0 && rid < k.c_rid0 + k.c_n then
      bget cons (rid - k.c_rid0)
    else kid_consistent rest rid

(* A row is consistent when any of its parents is.  A one-to-one copy of
   a single child takes the child's vector as it is. *)
let any_parent kids (r : cres) : Bytes.t =
  match r.c_par, kids with
  | P_self base, [ (k, cons) ] when k.c_rid0 = base && k.c_n = r.c_n -> cons
  | par, kids ->
    Bytes.init r.c_n (fun i -> chr (exists_parent par i (kid_consistent kids)))

(* The consistency rules, the same for a freshly evaluated operator and
   for one reused from a shared block; the mask is keyed on the SA's own
   rids ([r.c_rid0]):
   - a table access matches its NIP, also without re-validation;
   - σ, ∪, − and δ keep their rows' data, so a row is consistent when
     any parent row is;
   - every other operator re-validates against its NIP, or without
     re-validation propagates from its parents like σ. *)
let consistency ~revalidate ~stride nip kids (r : cres) : Bytes.t =
  let mask () = sampled_mask ~stride nip r.c_data r.c_rng ~rid0:r.c_rid0 in
  match r.c_op.Query.node with
  | Query.Table _ -> mask ()
  | Query.Select _ | Query.Union | Query.Diff | Query.Dedup -> any_parent kids r
  | _ -> if revalidate then mask () else any_parent kids r

(* The pattern-dependent half: consistency per operator, bottom-up, and
   the operator traces in post-order. *)
let annotate_tree ~revalidate ~stride (bt : Backtrace.t) (res : cres) :
    op_trace list =
  let traces = ref [] in
  let rec walk (r : cres) : Bytes.t =
    let kids = List.map (fun k -> (k, walk k)) r.c_kids in
    let op = r.c_op in
    let nip = Backtrace.op_nip bt op.Query.id in
    let cons = consistency ~revalidate ~stride nip kids r in
    let ann =
      {
        v_n = r.c_n;
        v_rid0 = r.c_rid0;
        v_consistent = cons;
        v_retained = r.c_ret;
        v_surviving = r.c_surv;
        v_parents = r.c_par;
        v_ranges = r.c_rng;
      }
    in
    let data = r.c_data in
    traces :=
      {
        op_id = op.Query.id;
        op_node = op.Query.node;
        nip;
        ann;
        rows = lazy (rows_of_ann ann data);
        data;
      }
      :: !traces;
    cons
  in
  ignore (walk res);
  List.rev !traces

(* --- Sharing SA-invariant subtrees --------------------------------------- *)

(* The maximal subtrees that are equal in every SA query and hold none of
   the SAs' changed operators, with their positions.  One SA shares
   nothing. *)
let shareable (sas : Alternatives.sa list) : (int list * Query.t) list =
  let changed =
    List.fold_left
      (fun acc (sa : Alternatives.sa) ->
        Int_set.union acc sa.Alternatives.changed_ops)
      Int_set.empty sas
  in
  let untouched q =
    Query.fold
      (fun ok (op : Query.t) -> ok && not (Int_set.mem op.Query.id changed))
      true q
  in
  let rec walk pos (qs : Query.t list) =
    match qs with
    | [] -> []
    | q :: rest ->
      if List.for_all (fun q' -> q' = q) rest && untouched q then [ (pos, q) ]
      else
        let arity (q' : Query.t) = List.length q'.Query.children in
        if List.for_all (fun q' -> arity q' = arity q) rest then
          List.concat
            (List.mapi
               (fun i _ ->
                 walk (i :: pos)
                   (List.map
                      (fun (q' : Query.t) -> List.nth q'.Query.children i)
                      qs))
               q.Query.children)
        else []
  in
  match sas with
  | [] | [ _ ] -> []
  | sas ->
    walk [] (List.map (fun (sa : Alternatives.sa) -> sa.Alternatives.query) sas)

let site_relaxed = Obs.Faultinject.register_site "tracing.relaxed"
let site_shared = Obs.Faultinject.register_site "tracing.shared"
let m_shared_rows = Obs.Metrics.counter "whynot.tracing.shared_rows"

let share ~(env : Typecheck.env) (db : Relation.Db.t)
    (sas : Alternatives.sa list) : shared =
  (* Chaos hook: fires once per share job attempt. *)
  Obs.Faultinject.fire site_shared;
  let blocks =
    List.map
      (fun (pos, sub) ->
        let res, rows = evaluate ~env db ~blocks:[] sub in
        (pos, { b_query = sub; b_rows = rows; b_res = res }))
      (shareable sas)
  in
  let s = { blocks } in
  Obs.Metrics.Counter.incr ~by:(shared_rows s) m_shared_rows;
  s

(* One SA's relaxed evaluation, shared blocks spliced in: everything of
   its trace but consistency. *)
type relaxed = { r_sa : Alternatives.sa; r_res : cres }

let relax ?shared ~(env : Typecheck.env) (db : Relation.Db.t)
    (sa : Alternatives.sa) : relaxed =
  (* Chaos hook: fires once per SA's relaxed evaluation, inside the
     pipeline's per-phase retry scope, so an armed transient fault here
     is recomputed from the (immutable) database and shared blocks. *)
  Obs.Faultinject.fire site_relaxed;
  let blocks = match shared with Some s -> s.blocks | None -> [] in
  { r_sa = sa; r_res = fst (evaluate ~env db ~blocks sa.Alternatives.query) }

let annotate ?(revalidate = true) ?(sample_stride = 1) (r : relaxed)
    (bt : Backtrace.t) : t =
  {
    sa = r.r_sa;
    ops = annotate_tree ~revalidate ~stride:sample_stride bt r.r_res;
    root_op = r.r_sa.Alternatives.query.Query.id;
  }

let run ?revalidate ?sample_stride ?shared ~(env : Typecheck.env)
    (db : Relation.Db.t) (sa : Alternatives.sa) (bt : Backtrace.t) : t =
  annotate ?revalidate ?sample_stride (relax ?shared ~env db sa) bt
