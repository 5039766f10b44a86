(* Approximate MSR computation (Section 5.4, Algorithm 4), per derivation:
   the failure sets of each consistent root row's derivations, as int
   bitmasks computed in two flat passes over the annotation vectors, each
   row's family one int code (see msr.mli for the representation and its
   bounds). *)

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

(* --- Family codes -------------------------------------------------------- *)

(* A row's failure-set family is one int code:
   - [m >= 0] is the one-set family {m}, so [0] is {∅};
   - [bot] is ⊥, the empty family (no derivation under any
     reparameterization);
   - [-2 - k] is the [k]-th multi-set family of a [table]: at least two
     masks, sorted by [compare_mask], duplicate-free and capped. *)
let bot = -1

module Family_codes = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash (a : t) = Array.fold_left (fun h m -> (h * 31) + m) 0 a land max_int
end)

type table = {
  mutable fams : int array array;
  mutable len : int;
  codes : int Family_codes.t;  (* hash-consing: equal families, one code *)
}

let table () = { fams = [||]; len = 0; codes = Family_codes.create 16 }
let multi (t : table) c = t.fams.(-2 - c)

(* The code of a sorted, capped family of at least two masks. *)
let intern (t : table) (a : int array) : int =
  match Family_codes.find_opt t.codes a with
  | Some c -> c
  | None ->
    if t.len = Array.length t.fams then
      t.fams <- Array.append t.fams (Array.make (max 16 t.len) [||]);
    t.fams.(t.len) <- a;
    t.len <- t.len + 1;
    Family_codes.add t.codes a (-1 - t.len);
    -1 - t.len

(* The masks of a family under construction: the distinct masks pushed
   since [reset], in push order.  Repeats are dropped by an
   open-addressing set over a power-of-two table at most half full
   (linear probing, as [Columnar]'s tables use), whose slots belong to
   the current build only while their stamp is [gen]: a reset bumps
   [gen] and clears nothing. *)
type mask_set = {
  mutable masks : int array;  (* the [n] distinct masks *)
  mutable n : int;
  mutable slot : int array;  (* index into [masks] *)
  mutable stamp : int array;
  mutable gen : int;
}

let mask_set () =
  {
    masks = Array.make 64 0;
    n = 0;
    slot = Array.make 128 0;
    stamp = Array.make 128 0;
    gen = 1;
  }

let reset s =
  s.n <- 0;
  s.gen <- s.gen + 1

let probe s m =
  let mask = Array.length s.slot - 1 in
  let x = m * 0x2545F4914F6CDD1D in
  let i = ref ((x lxor (x lsr 32)) land mask) in
  while s.stamp.(!i) = s.gen && s.masks.(s.slot.(!i)) <> m do
    i := (!i + 1) land mask
  done;
  !i

let grow s =
  let cap = 2 * Array.length s.slot in
  s.slot <- Array.make cap 0;
  s.stamp <- Array.make cap 0;
  for k = 0 to s.n - 1 do
    let i = probe s s.masks.(k) in
    s.stamp.(i) <- s.gen;
    s.slot.(i) <- k
  done

(* The position of [m] among the distinct masks, added if new.  A repeat
   of the last mask, the common run of identical members, skips the
   probe. *)
let position s m =
  if s.n > 0 && s.masks.(s.n - 1) = m then s.n - 1
  else
    let i = probe s m in
    if s.stamp.(i) = s.gen then s.slot.(i)
    else begin
      if s.n = Array.length s.masks then
        s.masks <- Array.append s.masks s.masks;
      let k = s.n in
      s.masks.(k) <- m;
      s.stamp.(i) <- s.gen;
      s.slot.(i) <- k;
      s.n <- k + 1;
      if 2 * s.n > Array.length s.slot then grow s;
      k
    end

let push s m = ignore (position s m)

(* Every mask of the family [c], each ORed with [own]. *)
let push_family t s own c =
  if c >= 0 then push s (c lor own)
  else if c <> bot then begin
    let a = multi t c in
    for k = 0 to Array.length a - 1 do
      push s (a.(k) lor own)
    done
  end

(* Cardinality first, then set order. *)
let by_size x y =
  let c = Int.compare (popcount x) (popcount y) in
  if c <> 0 then c else compare_mask x y

(* The set's masks as a code: capped to the [max_alternatives] smallest
   sets by [by_size], then sorted by set order.  Only distinct masks are
   ever sorted.  Every truncation is counted: the cap is an
   approximation, never a silent one. *)
let finish t s : int =
  if s.n = 0 then bot
  else if s.n = 1 then s.masks.(0)
  else begin
    let a = Array.sub s.masks 0 s.n in
    let a =
      if s.n <= max_alternatives then a
      else begin
        Obs.Metrics.(Counter.incr (counter "whynot.msr.cap_truncations"));
        Array.sort by_size a;
        Array.sub a 0 max_alternatives
      end
    in
    Array.stable_sort compare_mask a;
    intern t a
  end

(* {a ∪ b | a ∈ x, b ∈ y}, capped: a plain [lor] unless both sides hold
   several sets, and {∅} passes the other side through.  With [x] a
   single bit, it adds an operator to every set of [y]. *)
let cross t s x y =
  if x = bot || y = bot then bot
  else if x >= 0 && y >= 0 then x lor y
  else if x = 0 then y
  else if y = 0 then x
  else begin
    reset s;
    if x >= 0 then push_family t s x y
    else begin
      let a = multi t x in
      for k = 0 to Array.length a - 1 do
        push_family t s a.(k) y
      done
    end;
    finish t s
  end

(* --- Failure-set families ------------------------------------------------ *)

let root_ot (tr : Tracing.t) = Tracing.op_trace tr tr.Tracing.root_op
let flag b i = Bytes.unsafe_get b i = '\001'

(* The per-rid vectors of [families], one scratch per domain: [state]
   bytes and [codes] words over at least [total] rids, grown
   geometrically and reused by every later call on the domain, so a
   call allocates nothing per rid once the scratch is large enough. *)
type scratch = { mutable state : Bytes.t; mutable codes : int array }

let scratch_slot : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* The bytes the scratches were grown to: each grow adds what it adds,
   and a scratch [give_back] drops takes its bytes away.  A domain's
   exit frees its scratch without taking its bytes away. *)
let m_scratch_bytes = Obs.Metrics.gauge "whynot.msr.scratch_bytes"

let scratch_bytes (s : scratch) =
  Bytes.length s.state + (Sys.word_size / 8 * Array.length s.codes)

let drop (s : scratch) =
  Obs.Metrics.Gauge.add m_scratch_bytes (-.float_of_int (scratch_bytes s))

(* The domain's scratch, taken out of its slot (a nested call finds the
   slot empty and makes its own), with room for [total] rids and
   [state] reset over [0, total).  [codes] is not reset: a row's code is
   written when it is marked or computed, before any read. *)
let borrow total =
  let s =
    match Domain.DLS.get scratch_slot with
    | Some s ->
      Domain.DLS.set scratch_slot None;
      s
    | None -> { state = Bytes.empty; codes = [||] }
  in
  if Bytes.length s.state < total then begin
    let before = scratch_bytes s and cap = max total (2 * Bytes.length s.state) in
    s.state <- Bytes.create cap;
    s.codes <- Array.make cap 0;
    Obs.Metrics.Gauge.add m_scratch_bytes (float_of_int (scratch_bytes s - before))
  end;
  Bytes.fill s.state 0 total '\000';
  s

(* Put a scratch back in the domain's slot, unless a call that ran
   meanwhile (a nested one, or another systhread's) put back a larger
   one: the slot keeps the larger of the two. *)
let give_back s =
  match Domain.DLS.get scratch_slot with
  | Some cur when Bytes.length cur.state >= Bytes.length s.state -> drop s
  | cur ->
    Option.iter drop cur;
    Domain.DLS.set scratch_slot (Some s)

type families = {
  op_ids : int array;  (* bit → op id, increasing *)
  root : Tracing.op_trace option;
  total : int;  (* rids [0, total) are the trace's *)
  state : Bytes.t;
      (* per rid below [total]: 0 unread, 1 read but owned by no
         operator, 2 read and inconsistent, 3 read and consistent; a view
         of the borrowed scratch *)
  codes : int array;  (* per rid; meaningful where state > 0; a view too *)
  table : table;  (* the multi-set families [codes] name *)
  rows : int;  (* rows whose family was computed *)
}

(* The single-bit mask of an operator; 0 for one without a bit. *)
let bit (op_ids : int array) (id : int) : int =
  Option.fold ~none:0 ~some:(( lsl ) 1) (Array.find_index (Int.equal id) op_ids)

let decode (op_ids : int array) (m : int) : Int_set.t =
  let s = ref Int_set.empty in
  Array.iteri
    (fun b id -> if m land (1 lsl b) <> 0 then s := Int_set.add id !s)
    op_ids;
  !s

let masks (t : table) c =
  if c >= 0 then [| c |] else if c = bot then [||] else multi t c

(* The root rows whose families are computed, with their ancestors':
   every root row, or the ones MSR reads at a bounds-sweep stride — the
   consistent rows (candidate sets) and the non-surviving rows the
   sweep visits. *)
type reads = All_roots | Msr_reads of int

(* Families of the root rows [reads] selects and of all their ancestors,
   in two passes over the annotation vectors, kept in the domain's
   scratch while [k] runs.  [k]'s result must not hold the [state] or
   [codes] views: the scratch goes back to its slot when [k] returns or
   raises. *)
let families (tr : Tracing.t) (reads : reads) (k : families -> 'a) : 'a =
  (* Parameter-free operators (Table 2) cannot be reparameterized and get
     no bit; a row they fail to retain has no derivation under any
     reparameterization.  Neither does an operator that retains every row:
     its bit could never enter a mask. *)
  let op_ids =
    List.filter_map
      (fun (ot : Tracing.op_trace) ->
        let rec drops i =
          i < ot.n && ((not (flag ot.retained i)) || drops (i + 1))
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
  let scratch = borrow total in
  Fun.protect ~finally:(fun () -> give_back scratch) @@ fun () ->
  let state = scratch.state and codes = scratch.codes in
  let[@inline] st rid =
    if rid >= 0 && rid < total then Bytes.unsafe_get state rid else '\000'
  in
  (* A newly marked rid reads the family {∅} until its operator, if any,
     computes it. *)
  let[@inline] mark rid =
    if rid >= 0 && rid < total && Bytes.unsafe_get state rid = '\000' then begin
      Bytes.unsafe_set state rid '\001';
      Array.unsafe_set codes rid 0
    end
  in
  let root = root_ot tr in
  (* The root's rows lie in its own block, so they are marked directly;
     at stride 1 the test reads the two flag bytes and takes no [mod]. *)
  Option.iter
    (fun (ot : Tracing.op_trace) ->
      let r0 = ot.rid0 and consistent = ot.consistent
      and surviving = ot.surviving in
      match reads with
      | All_roots -> Bytes.fill state r0 ot.n '\001'
      | Msr_reads stride ->
        for i = 0 to ot.n - 1 do
          if
            flag consistent i
            || ((not (flag surviving i))
               && (stride = 1 || (r0 + i) mod stride = 0))
          then Bytes.unsafe_set state (r0 + i) '\001'
        done)
    root;
  (* Mark pass, root first: every consumer of an operator's rows comes
     after it in [tr.ops], so its rows are fully marked when reached.
     [claim] records a marked row's consistency and says it is marked. *)
  let[@inline] claim (ot : Tracing.op_trace) i =
    let r = ot.rid0 + i in
    Bytes.unsafe_get state r <> '\000'
    && begin
         Bytes.unsafe_set state r
           (if flag ot.consistent i then '\003' else '\002');
         true
       end
  in
  List.iter
    (fun (ot : Tracing.op_trace) ->
      match ot.parents with
      | Tracing.P_none ->
        for i = 0 to ot.n - 1 do
          ignore (claim ot i)
        done
      | Tracing.P_self base ->
        for i = 0 to ot.n - 1 do
          if claim ot i then mark (base + i)
        done
      | Tracing.P_one p ->
        for i = 0 to ot.n - 1 do
          if claim ot i then mark p.(i)
        done
      | Tracing.P_many (off, flat) ->
        for i = 0 to ot.n - 1 do
          if claim ot i then
            for j = off.(i) to off.(i + 1) - 1 do
              mark flat.(j)
            done
        done)
    (List.rev tr.Tracing.ops);
  (* Family pass, bottom-up over the marked rows.  A rid that no operator
     owns, or that lies outside the trace, has the family {∅}. *)
  let t = table () and s = mask_set () in
  let[@inline] code pid =
    if pid >= 0 && pid < total then Array.unsafe_get codes pid else 0
  in
  (* cross-product union over a row's parents (joins have two) *)
  let cross_range lo hi flat =
    let acc = ref 0 in
    for j = lo to hi - 1 do
      acc := cross t s !acc (code flat.(j))
    done;
    !acc
  in
  (* each (preferably consistent) member derivation is an alternative way
     to influence the group's row; all member derivations dead ⇒ the row
     is dead too *)
  let group_range lo hi flat =
    if lo = hi then 0
    else begin
      let least = ref '\002' in
      for j = lo to hi - 1 do
        if st flat.(j) = '\003' then least := '\003'
      done;
      reset s;
      let last = ref bot in
      for j = lo to hi - 1 do
        let pid = flat.(j) in
        if st pid >= !least && code pid <> !last then begin
          last := code pid;
          push_family t s 0 !last
        end
      done;
      finish t s
    end
  in
  (* a group of one member: its family, if the member belongs to an
     operator *)
  let group_one pid = if st pid >= '\002' then code pid else bot in
  let rows = ref 0 in
  List.iter
    (fun (ot : Tracing.op_trace) ->
      let own = bit op_ids ot.op_id in
      let group =
        match ot.op_node with
        | Nest_rel _ | Group_agg _ | Dedup | Agg_tuple _ -> true
        | _ -> false
      in
      let base : int -> int =
        match (group, ot.parents) with
        | _, Tracing.P_none -> fun _ -> 0
        | false, Tracing.P_self b -> fun i -> code (b + i)
        | false, Tracing.P_one p -> fun i -> code p.(i)
        | false, Tracing.P_many (off, flat) ->
          fun i -> cross_range off.(i) off.(i + 1) flat
        | true, Tracing.P_self b -> fun i -> group_one (b + i)
        | true, Tracing.P_one p -> fun i -> group_one p.(i)
        | true, Tracing.P_many (off, flat) ->
          fun i -> group_range off.(i) off.(i + 1) flat
      in
      for i = 0 to ot.n - 1 do
        let r = ot.rid0 + i in
        if Bytes.unsafe_get state r <> '\000' then begin
          incr rows;
          codes.(r) <-
            (if flag ot.retained i then base i
             else if own = 0 then bot
             else cross t s own (base i))
        end
      done)
    tr.Tracing.ops;
  k { op_ids; root; total; state; codes; table = t; rows = !rows }

(* The closure reads copies of the rows' states and codes, never the
   scratch, which the next call on the domain overwrites. *)
let failure_sets (tr : Tracing.t) : int -> Set_set.t =
  let op_ids, table, state, codes =
    families tr All_roots (fun f ->
        (f.op_ids, f.table, Bytes.sub f.state 0 f.total,
         Array.sub f.codes 0 f.total))
  in
  fun rid ->
    if rid < 0 || rid >= Bytes.length state || Bytes.get state rid = '\000'
    then invalid_arg "Msr.failure_sets: not a root row or an ancestor of one";
    Array.fold_left
      (fun acc m -> Set_set.add (decode op_ids m) acc)
      Set_set.empty
      (masks table codes.(rid))

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

type matches = { q_rows : int; flags : Bytes.t; verified : int }

(* Each surviving row is looked up in ⟦Q⟧_D's index, in place. *)
let matches (idx : Engine.Columnar.row_index) (data : Engine.Columnar.t)
    (surviving : Bytes.t) : matches =
  let module C = Engine.Columnar in
  let verified = ref 0 in
  let mem = C.mem idx data ~verified in
  let flags =
    Bytes.init (Bytes.length surviving) (fun i ->
        if flag surviving i && mem i then '\001' else '\000')
  in
  { q_rows = C.length (C.indexed idx); flags; verified = !verified }

(* ⟦Q⟧_D given as rows, matched against a trace's root rows. *)
let matches_of_trace (bi : bounds_input) (tr : Tracing.t) : matches =
  let idx = Engine.Columnar.(row_index (of_rows bi.original_result)) in
  match root_ot tr with
  | Some ot -> matches idx ot.data ot.surviving
  | None -> matches idx Engine.Columnar.empty Bytes.empty

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
  op_ids : int array;  (* the families' bit → op id *)
  table : table;  (* the multi-set families [nonsurviving] names *)
  stride : int;
      (* 1 = exact sweep; s > 1 = every s-th root row (by global rid)
         was examined and the counts in [terms] are scaled-up estimates *)
  terms : terms;
      (* [ub_minus] is UB(Δ−): original tuples whose presence is not
         witnessed unchanged — a floor shared by every candidate's upper
         bound *)
  nonsurviving : int array;
      (* the distinct family codes of the (sampled) non-surviving root
         rows, ⊥ left out ... *)
  counts : int array;  (* ... and how many of those rows have each *)
}

let bounds_ctx ~stride ~(matches : matches) ~(q : Nrab.Query.t)
    (fams : families) : bounds_ctx =
  (* Flag-vector sweep over the root rows.  With a stride, only rows
     with rid mod s = 0 (like the tracing sampler) are examined and the
     counts scale back up into unbiased estimates. *)
  let sampled r = stride = 1 || r mod stride = 0 in
  let n_surviving = ref 0 and n_matched = ref 0 in
  let s = mask_set () and counts = ref (Array.make 64 0) in
  Option.iter
    (fun (ot : Tracing.op_trace) ->
      let r0 = Tracing.rid0 ot and n = Tracing.n_rows ot in
      if Bytes.length matches.flags <> n then
        invalid_arg "Msr.explain: the matches are not this trace's root rows";
      for i = 0 to n - 1 do
        if sampled (r0 + i) then
          if Tracing.surviving_at ot i then begin
            incr n_surviving;
            if flag matches.flags i then incr n_matched
          end
          else
            let c = fams.codes.(r0 + i) in
            if c <> bot then begin
              let k = position s c in
              if k = Array.length !counts then
                counts := Array.append !counts (Array.make k 0);
              !counts.(k) <- !counts.(k) + 1
            end
      done)
    fams.root;
  let matched = stride * !n_matched and original_rows = matches.q_rows in
  {
    cq = q;
    op_ids = fams.op_ids;
    table = fams.table;
    stride;
    terms =
      {
        original_rows;
        surviving = stride * !n_surviving;
        matched;
        ub_minus = max 0 (original_rows - matched);
      };
    nonsurviving = Array.sub s.masks 0 s.n;
    counts = Array.sub !counts 0 s.n;
  }

let bounds_with (ctx : bounds_ctx) (expl_ops : Int_set.t) : int * int =
  (* UB(Δ+): rows that may newly appear when the explanation's operators
     are reparameterized (scaled back up when the sweep was sampled) *)
  let outside =
    lnot (Int_set.fold (fun id m -> m lor bit ctx.op_ids id) expl_ops 0)
  in
  let inside m = m land outside = 0 in
  let covered = ref 0 in
  Array.iteri
    (fun k c ->
      if
        if c >= 0 then inside c
        else Array.exists inside (multi ctx.table c)
      then covered := !covered + ctx.counts.(k))
    ctx.nonsurviving;
  let t = ctx.terms in
  let lb =
    if contains_filtering_op ctx.cq expl_ops then 0
    else max 0 (t.surviving - t.original_rows) + t.ub_minus
  in
  (lb, (ctx.stride * !covered) + t.ub_minus)

let bounds ~(bi : bounds_input) ~(q : Nrab.Query.t) (tr : Tracing.t)
    (expl_ops : Int_set.t) : int * int =
  let matches = matches_of_trace bi tr in
  bounds_with
    (families tr (Msr_reads 1) (bounds_ctx ~stride:1 ~matches ~q))
    expl_ops

(* --- Explanation assembly ------------------------------------------------ *)

(* Candidate operator sets of one trace: the failure sets of every
   consistent root row, each unioned with the SA's SR prefix, minus the
   empty set (which would mean the answer is not missing at all).  The
   masks are deduplicated before any is decoded. *)
let candidate_sets (tr : Tracing.t) (f : families) : Set_set.t =
  let prefix = tr.Tracing.sa.Alternatives.changed_ops in
  let s = mask_set () in
  Option.iter
    (fun ot ->
      let r0 = Tracing.rid0 ot in
      for i = 0 to Tracing.n_rows ot - 1 do
        if Tracing.consistent_at ot i then
          push_family f.table s 0 f.codes.(r0 + i)
      done)
    f.root;
  let sets = ref Set_set.empty in
  for k = 0 to s.n - 1 do
    sets := Set_set.add (Int_set.union prefix (decode f.op_ids s.masks.(k))) !sets
  done;
  Set_set.remove Int_set.empty !sets

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
   only the bounds sweep (see msr.mli).  With [span], the time of each
   step and the family counts go on it. *)
let explain ?span ?(sample_stride = 1) ?top_k ~(matches : matches)
    ~(q : Nrab.Query.t) (tr : Tracing.t) : Explanation.t list * int * terms =
  let stride = max 1 sample_stride in
  let t0 = Obs.Clock.now_ns () in
  (* Nothing that outlives the families reads their scratch: [ctx] keeps
     the bit index and the side table, the candidates are decoded. *)
  let t1, t2, ctx, candidates, rows =
    families tr (Msr_reads stride) (fun fams ->
        let t1 = Obs.Clock.now_ns () in
        let ctx = bounds_ctx ~stride ~matches ~q fams in
        let t2 = Obs.Clock.now_ns () in
        (t1, t2, ctx, Set_set.elements (candidate_sets tr fams), fams.rows))
  in
  let sa_index = tr.Tracing.sa.Alternatives.index in
  let make ops =
    let lb, ub = bounds_with ctx ops in
    Explanation.make ~sa:sa_index ~lb ~ub ops
  in
  let es, skipped =
    match top_k with
    | None -> (List.map make candidates, 0)
    | Some k -> topk ctx ~k make candidates
  in
  Option.iter
    (fun sp ->
      let t3 = Obs.Clock.now_ns () in
      List.iter
        (fun (name, v) -> Obs.Span.set_int sp name v)
        [
          ("families_us", (t1 - t0) / 1000);
          ("sweep_us", (t2 - t1) / 1000);
          ("candidates_us", (t3 - t2) / 1000);
          ("family_rows", rows);
          ("multi_families", ctx.table.len);
        ])
    span;
  (es, skipped, ctx.terms)

let from_trace ?sample_stride ~bi ~q tr =
  let es, _, _ = explain ?sample_stride ~matches:(matches_of_trace bi tr) ~q tr in
  es

let from_trace_topk ?sample_stride ~bi ~q ~k tr =
  let es, skipped, _ =
    explain ?sample_stride ~top_k:k ~matches:(matches_of_trace bi tr) ~q tr
  in
  (es, skipped)
