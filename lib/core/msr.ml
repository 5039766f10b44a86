(* Approximate MSR computation (Section 5.4, Algorithm 4), per derivation:
   the failure sets of each consistent root row's derivations, as int
   bitmasks computed in two flat passes over the annotation vectors (see
   msr.mli for the representation and its bounds). *)

open Nested
module Int_set = Opset.Int_set
module Set_set = Opset.Set_set

exception Too_many_operators of int

(* Masks stay non-negative: bits 0..61 of a 63-bit OCaml int. *)
let max_operators = 62

(* Cap on alternative failure sets tracked per row; beyond it the smallest
   sets are kept (they lead to the minimal explanations). *)
let max_alternatives = 64

(* --- Operator-set bitmasks ----------------------------------------------- *)

(* Bits are assigned in increasing op id, so this orders masks exactly as
   [Int_set.compare] orders the sets they encode (lexicographically over
   the sorted elements): at the lowest differing bit, the mask holding it
   is smaller iff the other mask still has a higher bit — otherwise the
   other set is a proper prefix and ends first. *)
let compare_mask (a : int) (b : int) : int =
  if a = b then 0
  else
    let d = a lxor b in
    let low = d land -d in
    let above = lnot (low lor (low - 1)) in
    if a land low <> 0 then if b land above <> 0 then -1 else 1
    else if a land above <> 0 then 1
    else -1

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* A family is a sorted, duplicate-free mask array; [||] is ⊥ (no
   derivation under any reparameterization), [unit_family] is {∅}. *)
let unit_family = [| 0 |]

(* Scratch buffer of masks; [push] skips a repeat of the last mask, which
   collapses the common runs of identical member families. *)
type buf = { mutable a : int array; mutable n : int }

let push b m =
  if b.n = 0 || b.a.(b.n - 1) <> m then begin
    if b.n = Array.length b.a then b.a <- Array.append b.a b.a;
    b.a.(b.n) <- m;
    b.n <- b.n + 1
  end

(* The buffer's masks as a family: sorted, deduplicated, and capped to
   the [max_alternatives] smallest sets by cardinality, ties broken by set
   order (a stable sort over the sorted family).  Every truncation is
   counted: the cap is an approximation, never a silent one. *)
let family_of_buf (b : buf) : int array =
  let a = Array.sub b.a 0 b.n in
  Array.sort compare_mask a;
  let k = ref 0 in
  Array.iter
    (fun m -> if !k = 0 || a.(!k - 1) <> m then (a.(!k) <- m; incr k))
    a;
  let a = Array.sub a 0 !k in
  if !k <= max_alternatives then a
  else begin
    Obs.Metrics.(Counter.incr (counter "whynot.msr.cap_truncations"));
    Array.stable_sort (fun x y -> Int.compare (popcount x) (popcount y)) a;
    let kept = Array.sub a 0 max_alternatives in
    Array.sort compare_mask kept;
    kept
  end

(* {a ∪ b | a ∈ x, b ∈ y}, capped.  The physical {∅} (every fold's seed
   and every parameter-free source row) passes the other side through. *)
let cross b x y =
  if Array.length x = 0 || Array.length y = 0 then [||]
  else if x == unit_family then y
  else if y == unit_family then x
  else begin
    b.n <- 0;
    Array.iter (fun m -> Array.iter (fun m' -> push b (m lor m')) y) x;
    family_of_buf b
  end

(* --- Failure-set families ------------------------------------------------ *)

let root_ot (tr : Tracing.t) = Tracing.op_trace tr tr.Tracing.root_op
let flag b i = Bytes.unsafe_get b i = '\001'

let fold_parents (p : Tracing.parents) i f acc =
  match p with
  | Tracing.P_none -> acc
  | Tracing.P_self base -> f acc (base + i)
  | Tracing.P_one a -> f acc a.(i)
  | Tracing.P_many (off, flat) ->
    let acc = ref acc in
    for j = off.(i) to off.(i + 1) - 1 do
      acc := f !acc flat.(j)
    done;
    !acc

type families = {
  op_ids : int array;  (* bit → op id, increasing *)
  root : Tracing.op_trace option;
  state : Bytes.t;
      (* per rid: 0 unread, 1 read but owned by no operator, 2 read and
         inconsistent, 3 read and consistent *)
  fam : int array array;  (* per rid; meaningful where state > 0 *)
}

(* The single-bit mask of an operator; 0 for one without a bit. *)
let bit (op_ids : int array) (id : int) : int =
  Option.fold ~none:0 ~some:(( lsl ) 1) (Array.find_index (Int.equal id) op_ids)

let decode (f : families) (m : int) : Int_set.t =
  let s = ref Int_set.empty in
  Array.iteri
    (fun b id -> if m land (1 lsl b) <> 0 then s := Int_set.add id !s)
    f.op_ids;
  !s

(* Families of the root rows [want] selects and of all their ancestors,
   in two passes over the annotation vectors. *)
let families (tr : Tracing.t) (want : Tracing.op_trace -> int -> bool) :
    families =
  (* Parameter-free operators (Table 2) cannot be reparameterized and get
     no bit; a row they fail to retain has no derivation under any
     reparameterization.  Neither does an operator that retains every row:
     its bit could never enter a mask. *)
  let op_ids =
    List.filter_map
      (fun (ot : Tracing.op_trace) ->
        let a = ot.ann in
        let rec drops i =
          i < a.v_n && ((not (flag a.v_retained i)) || drops (i + 1))
        in
        match ot.op_node with
        | Table _ | Union | Diff | Dedup | Product -> None
        | _ -> if drops 0 then Some ot.op_id else None)
      tr.Tracing.ops
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  if Array.length op_ids > max_operators then
    raise (Too_many_operators (Array.length op_ids));
  let total =
    List.fold_left
      (fun acc ot -> max acc (Tracing.rid0 ot + Tracing.n_rows ot))
      0 tr.Tracing.ops
  in
  let state = Bytes.make total '\000' in
  let st rid =
    if rid >= 0 && rid < total then Bytes.unsafe_get state rid else '\000'
  in
  let mark () rid =
    if rid >= 0 && rid < total && Bytes.unsafe_get state rid = '\000' then
      Bytes.unsafe_set state rid '\001'
  in
  let root = root_ot tr in
  Option.iter
    (fun ot ->
      for i = 0 to Tracing.n_rows ot - 1 do
        if want ot i then mark () (Tracing.rid0 ot + i)
      done)
    root;
  (* Mark pass, root first: every consumer of an operator's rows comes
     after it in [tr.ops], so its rows are fully marked when reached. *)
  List.iter
    (fun (ot : Tracing.op_trace) ->
      let a = ot.ann in
      for i = 0 to a.v_n - 1 do
        if st (a.v_rid0 + i) <> '\000' then begin
          Bytes.unsafe_set state (a.v_rid0 + i)
            (if flag a.v_consistent i then '\003' else '\002');
          fold_parents a.v_parents i mark ()
        end
      done)
    (List.rev tr.Tracing.ops);
  (* Family pass, bottom-up over the marked rows. *)
  let fam = Array.make total unit_family in
  let b = { a = Array.make 64 0; n = 0 } in
  let cross_parent acc pid =
    cross b acc (if pid >= 0 && pid < total then fam.(pid) else unit_family)
  in
  let consistent pid = st pid = '\003' and owned pid = st pid >= '\002' in
  List.iter
    (fun (ot : Tracing.op_trace) ->
      let a = ot.ann and own = bit op_ids ot.op_id in
      let group =
        match ot.op_node with
        | Nest_rel _ | Group_agg _ | Dedup | Agg_tuple _ -> true
        | _ -> false
      in
      for i = 0 to a.v_n - 1 do
        if st (a.v_rid0 + i) <> '\000' then begin
          let retained = flag a.v_retained i and p = a.v_parents in
          let base =
            if (not retained) && own = 0 then [||]
            else if group then begin
              (* each (preferably consistent) member derivation is an
                 alternative way to influence the group's row; all member
                 derivations dead ⇒ the row is dead too *)
              let preferred =
                if fold_parents p i (fun c pid -> c || consistent pid) false
                then consistent
                else owned
              in
              b.n <- 0;
              let n_parents =
                fold_parents p i
                  (fun n pid ->
                    if preferred pid then Array.iter (push b) fam.(pid);
                    n + 1)
                  0
              in
              if n_parents = 0 then unit_family
              else if b.n = 0 then [||]
              else family_of_buf b
            end
            else (* cross-product union over parents (joins have two) *)
              fold_parents p i cross_parent unit_family
          in
          fam.(a.v_rid0 + i) <-
            (if retained || Array.length base = 0 then base
             else if Array.length base = 1 then [| base.(0) lor own |]
             else begin
               b.n <- 0;
               Array.iter (fun m -> push b (m lor own)) base;
               family_of_buf b
             end)
        end
      done)
    tr.Tracing.ops;
  { op_ids; root; state; fam }

(* The root rows MSR reads: the consistent ones (candidate sets) and the
   non-surviving ones the bounds sweep visits at the stride. *)
let msr_reads stride (ot : Tracing.op_trace) i =
  Tracing.consistent_at ot i
  || ((Tracing.rid0 ot + i) mod stride = 0 && not (Tracing.surviving_at ot i))

let failure_sets (tr : Tracing.t) : int -> Set_set.t =
  let f = families tr (fun _ _ -> true) in
  fun rid ->
    if rid < 0 || rid >= Bytes.length f.state || Bytes.get f.state rid = '\000'
    then invalid_arg "Msr.failure_sets: not a root row or an ancestor of one";
    Array.fold_left
      (fun acc m -> Set_set.add (decode f m) acc)
      Set_set.empty f.fam.(rid)

(* The root operator's consistent rows (the candidate missing answers) by
   rid — flag-vector reads, no tree reconstruction. *)
let consistent_root_rids (tr : Tracing.t) : int list =
  match root_ot tr with
  | None -> []
  | Some ot ->
    let acc = ref [] in
    for i = Tracing.n_rows ot - 1 downto 0 do
      if Tracing.consistent_at ot i then acc := (Tracing.rid0 ot + i) :: !acc
    done;
    !acc

(* --- Side-effect bounds (Section 5.4) ----------------------------------- *)

type bounds_input = {
  original_result : Value.t list;  (* tuples of ⟦Q⟧_D, expanded *)
}

(* ⟦Q⟧_D indexed for the sweep: its rows bucketed by [value_hash], which
   [Columnar.hash_col] computes for a whole batch.  Built once per
   prepared handle and only read afterwards, by SA jobs on any domain.
   The keys are hashes already, so the table uses them as they are. *)
module Buckets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type original = { o_rows : int; o_buckets : Value.t list Buckets.t }

let index (bi : bounds_input) : original =
  let buckets = Buckets.create 64 in
  let add n v =
    let h = Engine.Columnar.value_hash v in
    let bucket = Option.value ~default:[] (Buckets.find_opt buckets h) in
    Buckets.replace buckets h (v :: bucket);
    n + 1
  in
  let o_rows = List.fold_left add 0 bi.original_result in
  { o_rows; o_buckets = buckets }

type terms = {
  original_rows : int;
  surviving : int;
  matched : int;
  ub_minus : int;
}

let contains_filtering_op (q : Nrab.Query.t) (ops : Int_set.t) : bool =
  Int_set.exists
    (fun id ->
      match Nrab.Query.find_op q id with
      | Some { node = Select _ | Join _; _ } -> true
      | _ -> false)
    ops

(* Candidate-independent part of the bounds computation: one sweep over
   the root rows serves every candidate of a trace, and only the
   non-surviving rows' families feed the per-candidate UB(Δ+) scan. *)
type bounds_ctx = {
  cq : Nrab.Query.t;
  fams : families;
  stride : int;
      (* 1 = exact sweep; s > 1 = every s-th root row (by global rid)
         was examined and the counts in [terms] are scaled-up estimates *)
  terms : terms;
      (* [ub_minus] is UB(Δ−): original tuples whose presence is not
         witnessed unchanged — a floor shared by every candidate's upper
         bound *)
  nonsurviving : int array array;
      (* failure-set families of each (sampled) non-surviving root row *)
}

(* Does row [i] of column [c] equal some row of a hash bucket? *)
let rec in_bucket c i = function
  | [] -> false
  | v :: vs -> Engine.Columnar.equal_value c i v || in_bucket c i vs

let bounds_ctx ~stride ~(original : original) ~(q : Nrab.Query.t)
    (fams : families) : bounds_ctx =
  (* Flag-vector sweep over the root rows.  With a stride, only rows
     with rid mod s = 0 (like the tracing sampler) are examined and the
     counts scale back up into unbiased estimates. *)
  let sampled r = stride = 1 || r mod stride = 0 in
  let n_surviving = ref 0 and n_matched = ref 0 and nonsurv = ref [] in
  Option.iter
    (fun (ot : Tracing.op_trace) ->
      let r0 = Tracing.rid0 ot and surviving = ref [] in
      for i = Tracing.n_rows ot - 1 downto 0 do
        if sampled (r0 + i) then
          if Tracing.surviving_at ot i then surviving := i :: !surviving
          else nonsurv := fams.fam.(r0 + i) :: !nonsurv
      done;
      (* The surviving rows are matched against ⟦Q⟧_D straight from the
         root batch: [hash_col] over just those rows picks each one's
         bucket, and [equal_value] compares it with the bucket's rows
         column by column. *)
      let surviving = Array.of_list !surviving in
      let c = ot.data.Engine.Columnar.row in
      let c =
        if Array.length surviving = Tracing.n_rows ot then c
        else Engine.Columnar.col_gather c surviving
      in
      let hashes = Engine.Columnar.hash_col c in
      n_surviving := Array.length surviving;
      Array.iteri
        (fun k h ->
          match Buckets.find_opt original.o_buckets h with
          | Some bucket when in_bucket c k bucket -> incr n_matched
          | _ -> ())
        hashes)
    fams.root;
  let matched = stride * !n_matched in
  {
    cq = q;
    fams;
    stride;
    terms =
      {
        original_rows = original.o_rows;
        surviving = stride * !n_surviving;
        matched;
        ub_minus = max 0 (original.o_rows - matched);
      };
    nonsurviving = Array.of_list !nonsurv;
  }

let bounds_with (ctx : bounds_ctx) (expl_ops : Int_set.t) : int * int =
  (* UB(Δ+): rows that may newly appear when the explanation's operators
     are reparameterized (scaled back up when the sweep was sampled) *)
  let outside =
    lnot (Int_set.fold (fun id m -> m lor bit ctx.fams.op_ids id) expl_ops 0)
  in
  let ub_plus =
    ctx.stride
    * Array.fold_left
        (fun acc fam ->
          if Array.exists (fun s -> s land outside = 0) fam then acc + 1
          else acc)
        0 ctx.nonsurviving
  in
  let t = ctx.terms in
  let lb =
    if contains_filtering_op ctx.cq expl_ops then 0
    else max 0 (t.surviving - t.original_rows) + t.ub_minus
  in
  (lb, ub_plus + t.ub_minus)

let prepare ?(sample_stride = 1) ~original ~q tr =
  let stride = max 1 sample_stride in
  bounds_ctx ~stride ~original ~q (families tr (msr_reads stride))

let bounds ~(bi : bounds_input) ~(q : Nrab.Query.t) (tr : Tracing.t)
    (expl_ops : Int_set.t) : int * int =
  bounds_with (prepare ~original:(index bi) ~q tr) expl_ops

(* --- Explanation assembly ------------------------------------------------ *)

(* Candidate operator sets of one trace: the failure sets of every
   consistent root row, each unioned with the SA's SR prefix, minus the
   empty set (which would mean the answer is not missing at all). *)
let candidate_sets (tr : Tracing.t) (f : families) : Set_set.t =
  let prefix = tr.Tracing.sa.Alternatives.changed_ops in
  let b = { a = Array.make 64 0; n = 0 } in
  Option.iter
    (fun ot ->
      let r0 = Tracing.rid0 ot in
      for i = 0 to Tracing.n_rows ot - 1 do
        if Tracing.consistent_at ot i then Array.iter (push b) f.fam.(r0 + i)
      done)
    f.root;
  Set_set.remove Int_set.empty
    (Array.fold_left
       (fun acc m -> Set_set.add (Int_set.union prefix (decode f m)) acc)
       Set_set.empty (Array.sub b.a 0 b.n))

(* Early-terminating top-k walk (see msr.mli): candidates are walked in
   (cardinality, elements) order, and open candidates all have
   cardinality ≥ the next one's and an upper bound ≥ [ub_minus]. *)
let topk ctx ~k make candidates =
  let k = max 1 k and ub_minus = ctx.terms.ub_minus in
  let key s = (Int_set.cardinal s, Int_set.elements s) in
  let beats_open ~open_card (e : Explanation.t) =
    let ec = Int_set.cardinal e.Explanation.ops in
    ec < open_card
    || (ec = open_card && e.Explanation.side_effect_ub < ub_minus)
  in
  let kept = ref [] and n_kept = ref 0 and skipped = ref 0 in
  let rec go = function
    | [] -> ()
    | ops :: rest ->
      let open_card = Int_set.cardinal ops in
      let winners =
        if !n_kept < k then 0
        else
          List.fold_left
            (fun acc e -> if beats_open ~open_card e then acc + 1 else acc)
            0 !kept
      in
      if winners >= k then skipped := 1 + List.length rest
      else begin
        kept := make ops :: !kept;
        incr n_kept;
        go rest
      end
  in
  go (List.sort (fun a b -> compare (key a) (key b)) candidates);
  (List.rev !kept, !skipped)

(* Explanations of one schema alternative's trace; the stride samples
   only the bounds sweep (see msr.mli). *)
let explain ?sample_stride ?top_k ~(original : original) ~(q : Nrab.Query.t)
    (tr : Tracing.t) : Explanation.t list * int * terms =
  let ctx = prepare ?sample_stride ~original ~q tr in
  let sa_index = tr.Tracing.sa.Alternatives.index in
  let make ops =
    let lb, ub = bounds_with ctx ops in
    Explanation.make ~sa:sa_index ~lb ~ub ops
  in
  let candidates = Set_set.elements (candidate_sets tr ctx.fams) in
  let es, skipped =
    match top_k with
    | None -> (List.map make candidates, 0)
    | Some k -> topk ctx ~k make candidates
  in
  (es, skipped, ctx.terms)

let from_trace ?sample_stride ~bi ~q tr =
  let es, _, _ = explain ?sample_stride ~original:(index bi) ~q tr in
  es

let from_trace_topk ?sample_stride ~bi ~q ~k tr =
  let es, skipped, _ =
    explain ?sample_stride ~top_k:k ~original:(index bi) ~q tr
  in
  (es, skipped)
