(* The columnar operator kernels: the column logic of every NRAB
   operator, in one place for both of its callers — the executor
   ({!Exec}, which runs ⟦Q⟧_D partition by partition) and data tracing
   (which runs each schema alternative's query relaxed over whole
   batches).

   A kernel works on one batch, or one batch pair, and returns the index
   vectors it computes on the way (join pairs and unmatched rows,
   flatten parents and pads, group members, diff cancellations) next to
   its output batch.  Each kernel has at most one per-row path, taken
   when a batch has no tuple columns or a column cannot be handled
   column-wise; it bumps [engine.columnar.row_fallbacks].

   Callers resolve attribute columns ({!column}) before they call a
   kernel, and decide what a missing attribute means: the executor
   raises, tracing reads Null. *)

open Nested
open Nrab
module C = Columnar

exception Engine_error of string

let err fmt = Fmt.kstr (fun m -> raise (Engine_error m)) fmt

(* The column of attribute [a] in [b], [None] when [b] has none.  An
   empty batch has every column, empty.  A batch without tuple columns
   (rows that disagree on shape) extracts it row by row; rows lacking the
   attribute read Null there. *)
let column (b : C.t) (a : string) : C.col option =
  let n = C.length b in
  if n = 0 then Some (C.CNull 0)
  else
    match C.cols b with
    | Some fs -> List.assoc_opt a fs
    | None ->
      C.note_row_fallback ();
      let vs = Array.init n (fun i -> Value.field a (C.get_row b i)) in
      if Array.exists Option.is_some vs then
        Some (C.of_values (Array.map (Option.value ~default:Value.Null) vs)).C.row
      else None

(* Rows per structural-equality class of [codes]: first-seen class
   order, members ascending. *)
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

(* The groups of [n] rows by their values in the key columns; no key
   column puts every row in one group. *)
let groups n (keys : C.col list) : int array array =
  group_indices (match keys with [] -> Array.make n 0 | ks -> C.eqclasses n ks)

let reps (groups : int array array) = Array.map (fun m -> m.(0)) groups

(* --- Narrow operators -------------------------------------------------- *)

let project (cols : (string * Expr.t) list) (b : C.t) : C.t =
  let n = C.length b in
  if n = 0 then C.empty
  else C.of_cols n (List.map (fun (name, e) -> (name, C.eval_expr b e)) cols)

(* A label under [(fresh, old)] renaming pairs: the first pair naming
   it renames it. *)
let renamed (pairs : (string * string) list) (l : string) : string =
  match List.find_opt (fun (_, old) -> String.equal old l) pairs with
  | Some (fresh, _) -> fresh
  | None -> l

let rename (pairs : (string * string) list) (b : C.t) : C.t =
  let fresh = renamed pairs in
  let n = C.length b in
  if n = 0 then b
  else
    match C.cols b with
    | Some fs -> C.of_cols n (List.map (fun (l, c) -> (fresh l, c)) fs)
    | None ->
      C.note_row_fallback ();
      C.of_values
        (Array.map
           (function
             | Value.Tuple fs ->
               Value.Tuple (List.map (fun (l, v) -> (fresh l, v)) fs)
             | _ -> err "engine: rename of non-tuple")
           (C.to_values b))

(* Tuple nesting: the [pairs]' source attributes, whose columns are
   [nested] in pair order, move into one tuple column [c_name]. *)
let nest_tuple (pairs : (string * string) list) c_name (nested : C.col list)
    (b : C.t) : C.t =
  let n = C.length b in
  let attrs = List.map snd pairs in
  let labels = List.map fst pairs in
  if n = 0 then b
  else
    match C.cols b with
    | Some fs ->
      let rest = List.filter (fun (l, _) -> not (List.mem l attrs)) fs in
      C.of_cols n
        (rest @ [ (c_name, C.CTuple (n, List.combine labels nested, None)) ])
    | None ->
      C.note_row_fallback ();
      C.of_values
        (Array.mapi
           (fun i t ->
             match t with
             | Value.Tuple fs ->
               let rest = List.filter (fun (l, _) -> not (List.mem l attrs)) fs in
               let inner =
                 List.map2 (fun l col -> (l, C.col_get col i)) labels nested
               in
               Value.Tuple (rest @ [ (c_name, Value.Tuple inner) ])
             | _ -> err "engine: nest_tuple of non-tuple")
           (C.to_values b))

(* Tuple flatten: splice the fields of the tuple column [col] (of type
   [inner_ty]) next to [b]'s columns; a Null tuple reads Null in every
   field. *)
let flatten_tuple inner_ty (col : C.col) (b : C.t) : C.t =
  let n = C.length b in
  if n = 0 then C.empty
  else
    let right =
      match C.flatten_tuple inner_ty col with
      | Some right -> right
      | None ->
        C.note_row_fallback ();
        let null_inner = Vtype.null_tuple inner_ty in
        C.of_values
          (Array.init n (fun i ->
               match C.col_get col i with
               | Value.Tuple _ as inner -> inner
               | Value.Null -> null_inner
               | _ -> err "engine: tuple flatten of a non-tuple attribute"))
    in
    C.hstack b right

(* A bag column as [CBag]: an all-Null column is a bag column of absent
   rows; any other column is rebuilt from its values (the per-row path). *)
let as_bag (col : C.col) : C.bag =
  let of_col = function
    | C.CBag bg -> Some bg
    | C.CNull n ->
      Some
        {
          C.bn = n;
          boff = Array.make (n + 1) 0;
          bmult = [||];
          belems = C.CNull 0;
          bpresent = Some (C.Bitv.create n false);
        }
    | _ -> None
  in
  match of_col col with
  | Some bg -> bg
  | None -> (
    C.note_row_fallback ();
    match of_col (C.of_values (C.col_values col)).C.row with
    | Some bg -> bg
    | None -> err "engine: bag operation over a non-bag attribute")

let bag_present (bg : C.bag) i =
  match bg.C.bpresent with None -> true | Some p -> C.Bitv.get p i

type flat = {
  parent : int array;  (* the input row of each output row *)
  pad : C.Bitv.t;  (* output rows that pad an empty or Null bag *)
  data : C.t;
}

(* Relation flatten of the bag column [col] (elements of type
   [inner_ty]): one output row per bag element, repeated by its
   multiplicity, in input order.  [outer] keeps each row whose bag is
   empty or Null as one row padded with the element type's null
   tuple. *)
let flatten ~outer inner_ty (col : C.col) (b : C.t) : flat =
  let n = C.length b in
  let bg = as_bag col in
  let size i =
    if not (bag_present bg i) then 0
    else begin
      let s = ref 0 in
      for j = bg.C.boff.(i) to bg.C.boff.(i + 1) - 1 do
        s := !s + bg.C.bmult.(j)
      done;
      !s
    end
  in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let s = size i in
    m := !m + if s = 0 && outer then 1 else s
  done;
  let m = !m in
  let parent = Array.make m 0 and sel = Array.make m 0 in
  let ne = C.col_length bg.C.belems in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let start = !k in
    if bag_present bg i then
      for j = bg.C.boff.(i) to bg.C.boff.(i + 1) - 1 do
        for _ = 1 to bg.C.bmult.(j) do
          parent.(!k) <- i;
          sel.(!k) <- j;
          incr k
        done
      done;
    if !k = start && outer then begin
      (* The pad selects one past the elements: the appended null tuple. *)
      parent.(!k) <- i;
      sel.(!k) <- ne;
      incr k
    end
  done;
  let pad = C.Bitv.init m (fun o -> sel.(o) = ne) in
  let data =
    if m = 0 then C.empty
    else
      let elems = { C.n = ne; row = bg.C.belems } in
      let right =
        if outer then
          C.gather
            (C.vstack [ elems; C.broadcast 1 (Vtype.null_tuple inner_ty) ])
            sel
        else C.gather elems sel
      in
      C.hstack (C.gather b parent) right
  in
  { parent; pad; data }

(* Per-tuple aggregation: [fn] over each row's bag in the column [col]
   (one-field element tuples read as their field), stored as column
   [out].  Returns each row's member values too. *)
let agg_tuple fn (col : C.col) out (b : C.t) : Value.t list array * C.t =
  let n = C.length b in
  let bg = as_bag col in
  let unwrap v = match v with Value.Tuple [ (_, inner) ] -> inner | v -> v in
  let evs =
    match bg.C.belems with
    | C.CTuple (_, [ (_, inner) ], None) -> C.col_values inner
    | ec -> Array.map unwrap (C.col_values ec)
  in
  let members =
    Array.init n (fun i ->
        if not (bag_present bg i) then []
        else begin
          let acc = ref [] in
          for j = bg.C.boff.(i + 1) - 1 downto bg.C.boff.(i) do
            for _ = 1 to bg.C.bmult.(j) do
              acc := evs.(j) :: !acc
            done
          done;
          !acc
        end)
  in
  let data =
    if n = 0 then C.empty
    else
      C.hstack b
        (C.of_cols n
           [ (out, (C.of_values (Array.map (Agg.apply fn) members)).C.row) ])
  in
  (members, data)

(* --- Grouping ------------------------------------------------------------ *)

(* Relation nesting: output row [o] holds the [keys] columns of row
   [reps.(o)] and, as column [c_name], the canonical bag of the [proj]
   columns over the rows [members.(o)]. *)
let nest_rel ~keys ~proj c_name ~reps (members : int array array) (b : C.t) :
    C.t =
  let n = C.length b in
  let bags =
    C.canonical_bags (C.of_cols n proj)
      (C.eqclasses n (List.map snd proj))
      members
  in
  C.hstack
    (C.gather (C.of_cols n keys) reps)
    (C.of_cols (Array.length members) [ (c_name, bags) ])

type agg = {
  fn : Agg.fn;
  values : int array -> Value.t list;  (* the input values of some rows *)
  out : string;
}

(* An aggregate over the column [input]; no input counts rows (each
   contributes [Int 1]). *)
let agg fn (input : C.col option) out : agg =
  let values =
    match input with
    | None -> fun rows -> List.init (Array.length rows) (fun _ -> Value.Int 1)
    | Some col ->
      let vs = C.col_values col in
      fun rows -> List.map (fun i -> vs.(i)) (Array.to_list rows)
  in
  { fn; values; out }

(* Grouped aggregation: output row [o] holds the [keys] columns of row
   [reps.(o)] and each aggregate's value over the rows [groups.(o)], as
   its column [out]. *)
let group_agg ~keys ~reps (aggs : agg list) (groups : int array array)
    (b : C.t) : C.t =
  C.hstack
    (C.gather (C.of_cols (C.length b) keys) reps)
    (C.of_cols (Array.length groups)
       (List.map
          (fun a ->
            let vals =
              Array.map (fun rows -> Agg.apply a.fn (a.values rows)) groups
            in
            (a.out, (C.of_values vals).C.row))
          aggs))

(* --- Dedup and difference ----------------------------------------------- *)

(* Duplicate elimination: the groups of equal rows and their first
   rows. *)
let dedup (b : C.t) : int array array * C.t =
  let groups = group_indices (C.row_codes (C.Coder.create ()) b) in
  (groups, C.gather b (reps groups))

(* Bag difference [l − r]: which rows of [l] are cancelled.  Every
   counted right row cancels one equal left row, earliest first; only
   [l_live] rows can be cancelled and only [r_live] rows count. *)
let diff_cancelled ?(l_live = fun _ -> true) ?(r_live = fun _ -> true)
    (lb : C.t) (rb : C.t) : bool array =
  let coder = C.Coder.create () in
  let lc = C.row_codes coder lb and rc = C.row_codes coder rb in
  let counts = Hashtbl.create (2 * Array.length rc + 1) in
  Array.iteri
    (fun j c ->
      if r_live j then
        Hashtbl.replace counts c
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    rc;
  Array.mapi
    (fun i c ->
      l_live i
      &&
      match Hashtbl.find_opt counts c with
      | Some k when k > 0 ->
        Hashtbl.replace counts c (k - 1);
        true
      | _ -> false)
    lc

(* --- Joins ----------------------------------------------------------------- *)

(* Split a join predicate's conjunctive closure into equi-join key
   attribute pairs (left attr, right attr) and the residual predicate
   (the conjuncts that are not equi-key comparisons, [True] if none).
   The hash join probes by key and evaluates only the residual. *)
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

(* Join-key codes of both sides from the (left, right) key column pairs,
   comparable across the sides; [-1] marks a key with a Null component,
   which no equality conjunct accepts.  When every key is a string column
   on both sides, the codes are the global dictionary codes, which need
   no interning. *)
let key_codes (pairs : (C.col * C.col) list) : int array * int array =
  let coder = C.Coder.create () in
  let dict =
    List.for_all (function C.CStr _, C.CStr _ -> true | _ -> false) pairs
  in
  let null = if dict then min_int else C.Coder.null_code in
  let component = function
    | C.CStr (codes, None) when dict -> codes
    | C.CStr (codes, Some p) when dict ->
      Array.mapi (fun i c -> if C.Bitv.get p i then c else min_int) codes
    | col -> C.Coder.col_codes coder col
  in
  let side cols =
    let comps = List.map component cols in
    let codes =
      match comps with
      | [ one ] -> Array.copy one
      | comps -> C.Coder.mix coder comps
    in
    List.iter
      (fun cs -> Array.iteri (fun i c -> if c = null then codes.(i) <- -1) cs)
      comps;
    codes
  in
  (side (List.map fst pairs), side (List.map snd pairs))

(* Hash-join candidates: the [(build, probe)] row pairs with equal codes,
   probe rows ascending and, within one, build rows descending. *)
let hash_pairs ~(build : int array) ~(probe : int array) : int array * int array =
  let index = Hashtbl.create (2 * Array.length build + 1) in
  Array.iteri
    (fun bi c ->
      if c >= 0 then
        Hashtbl.replace index c
          (bi :: Option.value ~default:[] (Hashtbl.find_opt index c)))
    build;
  let bs = ref [] and ps = ref [] in
  Array.iteri
    (fun pi c ->
      if c >= 0 then
        match Hashtbl.find_opt index c with
        | None -> ()
        | Some bis ->
          List.iter
            (fun bi ->
              bs := bi :: !bs;
              ps := pi :: !ps)
            bis)
    probe;
  (Array.of_list (List.rev !bs), Array.of_list (List.rev !ps))

(* Every (left, right) pair, left-major: the nested loop. *)
let all_pairs ln rn : int array * int array =
  ( Array.init (ln * rn) (fun k -> k / rn),
    Array.init (ln * rn) (fun k -> k mod rn) )

type joined = {
  kept_l : int array;  (* left row of each inner output row *)
  kept_r : int array;
  unmatched_l : int array;  (* left rows no kept pair holds, ascending *)
  unmatched_r : int array;
  data : C.t;  (* inner rows, then the pads [kind] keeps, left before right *)
}

(* Join over candidate pairs [(cand_l, cand_r)]: the pairs satisfying
   [residual] are the inner rows, in candidate order.  Candidates must
   include every pair the full predicate accepts.  Unmatched rows are
   padded with the other side's null tuple ([lnull]/[rnull]) as [kind]
   keeps them. *)
let join ~kind ~residual ~lnull ~rnull ((cand_l, cand_r) : int array * int array)
    (lb : C.t) (rb : C.t) : joined =
  let ln = C.length lb and rn = C.length rb in
  let joined = C.hstack (C.gather lb cand_l) (C.gather rb cand_r) in
  let mask =
    match residual with
    | Expr.True -> C.Bitv.create (C.length joined) true
    | p -> C.eval_pred_mask joined p
  in
  let keep = C.Bitv.indices mask in
  let inner =
    if Array.length keep = C.length joined then joined else C.filter joined mask
  in
  let kept_l = Array.map (fun k -> cand_l.(k)) keep in
  let kept_r = Array.map (fun k -> cand_r.(k)) keep in
  let unmatched kept n =
    let matched = Bytes.make n '\000' in
    Array.iter (fun i -> Bytes.set matched i '\001') kept;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if Bytes.get matched i = '\000' then out := i :: !out
    done;
    Array.of_list !out
  in
  let unmatched_l = unmatched kept_l ln and unmatched_r = unmatched kept_r rn in
  let pads =
    (if kind = Query.Left || kind = Query.Full then
       [
         C.hstack (C.gather lb unmatched_l)
           (C.broadcast (Array.length unmatched_l) rnull);
       ]
     else [])
    @
    if kind = Query.Right || kind = Query.Full then
      [
        C.hstack
          (C.broadcast (Array.length unmatched_r) lnull)
          (C.gather rb unmatched_r);
      ]
    else []
  in
  let data = C.vstack (List.filter (fun t -> C.length t > 0) (inner :: pads)) in
  { kept_l; kept_r; unmatched_l; unmatched_r; data }
