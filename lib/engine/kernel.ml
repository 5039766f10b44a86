(* The columnar operator kernels: the column logic of every NRAB
   operator, in one place for both of its callers — the executor
   ({!Exec}, which runs ⟦Q⟧_D partition by partition) and data tracing
   (which runs each schema alternative's query relaxed over whole
   batches).

   A kernel works on one batch, or one batch pair, and returns the index
   vectors it computes on the way (join pairs and unmatched rows,
   flatten parents and pads, group members, diff cancellations) next to
   its output batch.  Every batch has one shape per column (see
   {!Columnar}), so kernels work column by column.

   Callers resolve attribute columns ({!column}) before they call a
   kernel, and decide what a missing attribute means: the executor
   raises, tracing reads Null. *)

open Nested
open Nrab
module C = Columnar

(* The column of attribute [a] in [b], [None] when [b] has none.  An
   empty batch has every column, empty. *)
let column (b : C.t) (a : string) : C.col option =
  if C.length b = 0 then Some (C.CNull 0) else List.assoc_opt a (C.cols b)

(* --- Column analysis ------------------------------------------------------ *)

module Names = Set.Make (String)

(* The fields a query's batches keep.  A field outside [names] is read
   by no operator and is no output field; a bag in [names] but not in
   [whole] is read only by relation flattens, which need only the
   element fields in [names]; a bag in [drops] is read by one flatten
   alone and stops at it. *)
type sets = { names : Names.t; whole : Names.t; drops : Names.t }

(* [Every] keeps every column: the query does not typecheck, so the
   analysis cannot name its fields. *)
type cols = Every | Only of sets

let reads (env : Typecheck.env) (q : Query.t) : cols =
  let fields sub = Vtype.relation_fields (Typecheck.infer env sub) in
  let names = ref Names.empty and whole = ref Names.empty in
  let read ls =
    List.iter
      (fun l ->
        names := Names.add l !names;
        whole := Names.add l !whole)
      ls
  in
  let count tbl l =
    Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l))
  in
  (* How many flattens read each bag, and how many operators bring each
     name in from outside the query: table accesses and flattened
     elements.  A bag one flatten reads, brought in once, is the bag
     every batch above that flatten would hold. *)
  let flattens = Hashtbl.create 8 and intros = Hashtbl.create 64 in
  let whole_rows c = read (List.map fst (fields c)) in
  let op (o : Query.t) =
    match o.Query.node, o.Query.children with
    | Query.Table _, [] -> List.iter (fun (l, _) -> count intros l) (fields o)
    | Query.Select p, _ | Query.Join (_, p), _ -> read (Expr.pred_attrs p)
    | Query.Project cols, _ ->
      read (List.concat_map (fun (l, e) -> l :: Expr.attrs e) cols)
    | Query.Rename pairs, _ ->
      read (List.concat_map (fun (fresh, old) -> [ fresh; old ]) pairs)
    | (Query.Union | Query.Diff), [ l; r ] ->
      whole_rows l;
      whole_rows r
    | Query.Dedup, [ c ] -> whole_rows c
    | Query.Flatten_tuple a, [ c ] -> (
      read [ a ];
      match List.assoc_opt a (fields c) with
      | Some (Vtype.TTuple inner) -> read (List.map fst inner)
      | _ -> ())
    | Query.Flatten (_, a), [ c ] -> (
      names := Names.add a !names;
      count flattens a;
      match List.assoc_opt a (fields c) with
      | Some (Vtype.TBag (Vtype.TTuple inner)) ->
        List.iter (fun (l, _) -> count intros l) inner
      | _ -> ())
    | Query.Nest_tuple (pairs, c_name), _ -> read (c_name :: List.map snd pairs)
    | Query.Nest_rel (_, c_name), [ c ] ->
      whole_rows c;
      read [ c_name ]
    | Query.Agg_tuple (_, a, b), _ -> read [ a; b ]
    | Query.Group_agg (group, aggs), _ ->
      read (List.concat_map (fun (l, a) -> [ l; a ]) group);
      read
        (List.concat_map
           (fun (_, a, out) -> out :: Option.to_list a)
           aggs)
    | _ -> ()
  in
  (* A field kept whole holds every field inside it, and a flatten can
     bring any of them to the top of a batch, so they all count as
     read. *)
  let rec inner = function
    | Vtype.TBag t -> inner t
    | Vtype.TTuple fs -> List.concat_map (fun (l, t) -> l :: inner t) fs
    | _ -> []
  in
  let rec close all =
    let before = Names.cardinal !whole in
    List.iter (fun (l, ty) -> if Names.mem l !whole then read (inner ty)) all;
    if Names.cardinal !whole > before then close all
  in
  match
    List.iter op (Query.operators q);
    whole_rows q;
    close (List.concat_map fields (Query.operators q))
  with
  | exception Typecheck.Type_error _ -> Every
  | () ->
    let once tbl l = Hashtbl.find_opt tbl l = Some 1 in
    let drops =
      Names.filter
        (fun a -> once flattens a && once intros a && not (Names.mem a !whole))
        !names
    in
    Only { names = !names; whole = !whole; drops }

let union (a : cols) (b : cols) : cols =
  match a, b with
  | Every, _ | _, Every -> Every
  | Only a, Only b ->
    Only
      {
        names = Names.union a.names b.names;
        whole = Names.union a.whole b.whole;
        drops = Names.inter a.drops b.drops;
      }

let equal_cols (a : cols) (b : cols) : bool =
  match a, b with
  | Every, Every -> true
  | Only a, Only b ->
    Names.equal a.names b.names
    && Names.equal a.whole b.whole
    && Names.equal a.drops b.drops
  | _ -> false

(* What a batch of [q]'s output does with field [l]: drop it, keep it
   whole, or keep it with its elements narrowed.  Above the flatten
   that drops a bag, the bag is gone. *)
type verdict = Drop | Whole | Elements

let verdict (s : sets) ~(dropped : string -> bool) l =
  if (not (Names.mem l s.names)) || dropped l then Drop
  else if Names.mem l s.whole then Whole
  else Elements

(* The bags the flattens of [q] drop. *)
let dropped_in (s : sets) (q : Query.t) : string -> bool =
  if Names.is_empty s.drops then fun _ -> false
  else
    let gone =
      Query.fold
        (fun acc (o : Query.t) ->
          match o.Query.node with
          | Query.Flatten (_, a) when Names.mem a s.drops -> Names.add a acc
          | _ -> acc)
        Names.empty q
    in
    fun l -> Names.mem l gone

let never _ = false

let rec keep_fields_ty s ~dropped (fs : (string * Vtype.t) list) =
  List.filter_map
    (fun (l, ty) ->
      match verdict s ~dropped l, ty with
      | Drop, _ -> None
      | Elements, Vtype.TBag (Vtype.TTuple efs) ->
        Some (l, Vtype.TBag (Vtype.TTuple (keep_fields_ty s ~dropped:never efs)))
      | _ -> Some (l, ty))
    fs

let keep_type (c : cols) (q : Query.t) (ty : Vtype.t) : Vtype.t =
  match c with
  | Every -> ty
  | Only s ->
    Vtype.relation
      (keep_fields_ty s ~dropped:(dropped_in s q) (Vtype.relation_fields ty))

exception Inexact

let rec keep_fields s ~dropped (fs : (string * C.col) list) =
  List.filter_map
    (fun (l, col) ->
      match verdict s ~dropped l, col with
      | Drop, _ -> None
      | Elements, C.CBag ({ C.belems = C.CTuple (n, efs, p); _ } as bg) ->
        Some
          ( l,
            C.CBag
              { bg with C.belems = C.CTuple (n, keep_fields s ~dropped:never efs, p) }
          )
      | Elements, (C.CBag { C.belems = C.CNull _; _ } | C.CNull _) -> Some (l, col)
      | Elements, C.CBag _ -> raise Inexact
      | _ -> Some (l, col))
    fs

let keep (c : cols) (q : Query.t) (b : C.t) : C.t option =
  match c with
  | Every -> Some b
  | Only _ when C.length b = 0 -> Some b
  | Only s -> (
    match keep_fields s ~dropped:(dropped_in s q) (C.cols b) with
    | fs -> Some (C.of_cols (C.length b) fs)
    | exception Inexact -> None)

(* Labelled columns at every depth: tuple fields and bag element
   fields. *)
let rec width (col : C.col) : int =
  match col with
  | C.CTuple (_, fs, _) -> List.fold_left (fun acc (_, c) -> acc + 1 + width c) 0 fs
  | C.CBag bg -> width bg.C.belems
  | _ -> 0

let scan (c : cols) (q : Query.t) (b : C.t) : C.t * int * int =
  let b' = Option.value ~default:b (keep c q b) in
  let kept = width b'.C.row in
  let pruned = width b.C.row - kept in
  C.note_columns_pruned pruned;
  (b', kept, pruned)

let flatten_parents (c : cols) (a : string) (b : C.t) : C.t =
  match c with
  | Only s when Names.mem a s.drops && C.length b > 0 ->
    C.of_cols (C.length b)
      (List.filter (fun (l, _) -> not (String.equal l a)) (C.cols b))
  | _ -> b

(* The groups of [n] rows by their values in the key columns, in
   first-seen order with members ascending; no key column puts every
   row in one group.  An [eqclasses] code is the smallest row of its
   class, so classes are first seen at their code row, and two counting
   passes over [n]-sized arrays lay the groups out with no hashing. *)
let groups n (keys : C.col list) : int array array =
  match keys with
  | [] -> if n = 0 then [||] else [| Array.init n Fun.id |]
  | ks ->
    let codes = C.eqclasses n ks in
    (* [slot.(r)] is first the size of the class of row [r], then the
       next free position in its group. *)
    let slot = Array.make n 0 in
    Array.iter (fun r -> slot.(r) <- slot.(r) + 1) codes;
    let gid = Array.make n 0 and ng = ref 0 in
    for r = 0 to n - 1 do
      if codes.(r) = r then begin
        gid.(r) <- !ng;
        incr ng
      end
    done;
    let out = Array.make !ng [||] in
    for r = 0 to n - 1 do
      if codes.(r) = r then begin
        out.(gid.(r)) <- Array.make slot.(r) 0;
        slot.(r) <- 0
      end
    done;
    for i = 0 to n - 1 do
      let r = codes.(i) in
      out.(gid.(r)).(slot.(r)) <- i;
      slot.(r) <- slot.(r) + 1
    done;
    out

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
  let n = C.length b in
  if n = 0 then b
  else C.of_cols n (List.map (fun (l, c) -> (renamed pairs l, c)) (C.cols b))

(* Tuple nesting: the [pairs]' source attributes, whose columns are
   [nested] in pair order, move into one tuple column [c_name]. *)
let nest_tuple (pairs : (string * string) list) c_name (nested : C.col list)
    (b : C.t) : C.t =
  let n = C.length b in
  let attrs = List.map snd pairs in
  if n = 0 then b
  else
    let rest = List.filter (fun (l, _) -> not (List.mem l attrs)) (C.cols b) in
    C.of_cols n
      (rest @ [ (c_name, C.CTuple (n, List.combine (List.map fst pairs) nested, None)) ])

(* Tuple flatten: splice the fields of the tuple column [col] (of type
   [inner_ty]) next to [b]'s columns; a Null tuple reads Null in every
   field. *)
let flatten_tuple inner_ty (col : C.col) (b : C.t) : C.t =
  if C.length b = 0 then C.empty else C.hstack b (C.flatten_tuple inner_ty col)

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
  let bg = C.as_bag col in
  let size i =
    if not (bag_present bg i) then 0
    else begin
      let s = ref 0 in
      for j = bg.C.bstart.(i) to bg.C.bstop.(i) - 1 do
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
      for j = bg.C.bstart.(i) to bg.C.bstop.(i) - 1 do
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
        if outer && C.Bitv.count pad > 0 then
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
  let bg = C.as_bag col in
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
          for j = bg.C.bstop.(i) - 1 downto bg.C.bstart.(i) do
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
  apply : int array -> Value.t;  (* [Agg.apply fn] over some rows' inputs *)
  range : int array -> (float * float) option;
      (* [Agg.achievable_range fn] over some rows' inputs *)
  out : string;
}

(* The input of an unboxed aggregate: a float column, an integer
   column, or one [Int 1] per row. *)
type num = Floats of float array | Ints of int array | Ones

(* The rows whose input is not Null, in order. *)
let live_rows (present : C.Bitv.t option) (rows : int array) : int array =
  match present with
  | None -> rows
  | Some p ->
    let k = ref 0 in
    Array.iter (fun i -> if C.Bitv.get p i then incr k) rows;
    let out = Array.make !k 0 in
    k := 0;
    Array.iter
      (fun i ->
        if C.Bitv.get p i then begin
          out.(!k) <- i;
          incr k
        end)
      rows;
    out

(* The inputs of the [live] rows, in order, as floats. *)
let floats num (live : int array) : float array =
  let n = Array.length live in
  match num with
  | Floats a ->
    let xs = Array.make n 0. in
    for k = 0 to n - 1 do
      xs.(k) <- a.(live.(k))
    done;
    xs
  | Ints a ->
    let xs = Array.make n 0. in
    for k = 0 to n - 1 do
      xs.(k) <- float_of_int a.(live.(k))
    done;
    xs
  | Ones -> Array.make n 1.

(* [Agg.apply] over the inputs of the [live] rows, folded in order with
   the boxed function's operations: sums add left to right from [0.],
   [Min], [Max] and distinct counts keep [Stdlib.compare]'s order, and
   integer inputs keep integer sums and extremes. *)
let typed_apply fn num (live : int array) : Value.t =
  let n = Array.length live in
  let fsum () =
    let xs = floats num live in
    let s = ref 0. in
    for k = 0 to n - 1 do
      s := !s +. xs.(k)
    done;
    !s
  in
  (* The first input that [keep] prefers to every earlier one. *)
  let extreme keep =
    match num with
    | Floats a ->
      let b = ref live.(0) in
      Array.iter (fun i -> if keep (Float.compare a.(i) a.(!b)) then b := i) live;
      Value.Float a.(!b)
    | Ints a ->
      let b = ref live.(0) in
      Array.iter (fun i -> if keep (Int.compare a.(i) a.(!b)) then b := i) live;
      Value.Int a.(!b)
    | Ones -> Value.Int 1
  in
  let distinct cmp a =
    Array.sort cmp a;
    let d = ref 0 in
    Array.iteri (fun k v -> if k = 0 || cmp a.(k - 1) v <> 0 then incr d) a;
    Value.Int !d
  in
  match fn, num with
  | Agg.Count, _ -> Value.Int n
  | Agg.Count_distinct, Floats _ -> distinct Float.compare (floats num live)
  | Agg.Count_distinct, Ints a -> distinct Int.compare (Array.map (Array.get a) live)
  | Agg.Count_distinct, Ones -> Value.Int (min n 1)
  | (Agg.Sum | Agg.Avg | Agg.Min | Agg.Max), _ when n = 0 -> Value.Null
  | Agg.Sum, Ints a -> Value.Int (Array.fold_left (fun s i -> s + a.(i)) 0 live)
  | Agg.Sum, Ones -> Value.Int n
  | Agg.Sum, Floats _ -> Value.Float (fsum ())
  | Agg.Avg, _ -> Value.Float (fsum () /. float_of_int n)
  | Agg.Min, _ -> extreme (fun c -> c < 0)
  | Agg.Max, _ -> extreme (fun c -> c > 0)

(* [Agg.achievable_range] over the inputs of the [live] rows: a sum
   splits [f < 0.] from [f > 0.], the others fold [min]/[max] from the
   first input, as [Stdlib.min]/[max] do. *)
let typed_range fn num (live : int array) : (float * float) option =
  let n = Array.length live in
  match fn with
  | Agg.Count | Agg.Count_distinct -> Some (0., float_of_int n)
  | _ when n = 0 -> None
  | Agg.Sum ->
    let xs = floats num live in
    let neg = ref 0. and pos = ref 0. in
    for k = 0 to n - 1 do
      let f = xs.(k) in
      if f < 0. then neg := !neg +. f else if f > 0. then pos := !pos +. f
    done;
    Some (!neg, !pos)
  | Agg.Avg | Agg.Min | Agg.Max ->
    let xs = floats num live in
    let lo = ref xs.(0) and hi = ref xs.(0) in
    for k = 0 to n - 1 do
      let f = xs.(k) in
      if not (!lo <= f) then lo := f;
      if not (!hi >= f) then hi := f
    done;
    Some (!lo, !hi)

(* An aggregate over the column [input]; no input counts rows (each
   contributes [Int 1]).  Float and integer columns, and row counts, fold
   their rows unboxed; any other column boxes the rows' values when a
   closure runs. *)
let agg fn (input : C.col option) out : agg =
  let typed num present =
    {
      fn;
      apply = (fun rows -> typed_apply fn num (live_rows present rows));
      range = (fun rows -> typed_range fn num (live_rows present rows));
      out;
    }
  in
  match input with
  | None -> typed Ones None
  | Some (C.CFloat (a, p)) -> typed (Floats a) p
  | Some (C.CInt (a, p)) -> typed (Ints a) p
  | Some col ->
    let values rows = List.map (C.col_get col) (Array.to_list rows) in
    {
      fn;
      apply = (fun rows -> Agg.apply fn (values rows));
      range = (fun rows -> Agg.achievable_range fn (values rows));
      out;
    }

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
              Array.map a.apply groups
            in
            (a.out, (C.of_values vals).C.row))
          aggs))

(* --- Dedup and difference ----------------------------------------------- *)

(* Duplicate elimination: the groups of equal rows and their first
   rows. *)
let dedup (b : C.t) : int array array * C.t =
  let groups = groups (C.length b) (List.map snd (C.cols b)) in
  (groups, C.gather b (reps groups))

(* Bag difference [l − r]: which rows of [l] are cancelled.  Every
   counted right row cancels one equal left row, earliest first; only
   [l_live] rows can be cancelled and only [r_live] rows count.  The
   classes of the stacked sides name a right row's equal left rows, and
   each class keeps its count of uncancelled right rows. *)
let diff_cancelled ?(l_live = fun _ -> true) ?(r_live = fun _ -> true)
    (lb : C.t) (rb : C.t) : bool array =
  let ln = C.length lb and rn = C.length rb in
  let both = C.vstack [ lb; rb ] in
  let cls = C.eqclasses (ln + rn) (List.map snd (C.cols both)) in
  let counts = Array.make (ln + rn) 0 in
  for j = 0 to rn - 1 do
    if r_live j then counts.(cls.(ln + j)) <- counts.(cls.(ln + j)) + 1
  done;
  Array.init ln (fun i ->
      l_live i
      &&
      let c = cls.(i) in
      counts.(c) > 0
      && begin
        counts.(c) <- counts.(c) - 1;
        true
      end)

(* --- Joins ----------------------------------------------------------------- *)

(* Split a join predicate's conjunctive closure into equi-join key
   attribute pairs (left attr, right attr) and the residual predicate
   (the conjuncts that are not equi-key comparisons, [True] if none).
   [a = b] is a key only between attributes of one type: [Int 1] equals
   [Float 1.0] under the predicate but not as a value, so a mixed
   comparison stays in the residual.  The hash join probes by key and
   evaluates only the residual. *)
let equi_split (lfields : (string * Vtype.t) list)
    (rfields : (string * Vtype.t) list) (p : Expr.pred) :
    (string * string) list * Expr.pred =
  let rec conjuncts = function
    | Expr.And (a, b) -> conjuncts a @ conjuncts b
    | p -> [ p ]
  in
  let key a b =
    match List.assoc_opt a lfields, List.assoc_opt b rfields with
    | Some ta, Some tb -> Vtype.equal ta tb
    | _ -> false
  in
  let keys, residual =
    List.fold_left
      (fun (keys, residual) c ->
        match c with
        | Expr.Cmp (Expr.Eq, Expr.Attr a, Expr.Attr b) when key a b ->
          ((a, b) :: keys, residual)
        | Expr.Cmp (Expr.Eq, Expr.Attr a, Expr.Attr b) when key b a ->
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
   which no equality conjunct accepts.  One string pair keeps its
   dictionary codes, which are equality witnesses already; any other key
   codes each row by the [eqclasses] class of its key over both sides
   stacked ([equi_split] pairs columns of one type, so they stack). *)
let key_codes (pairs : (C.col * C.col) list) : int array * int array =
  match pairs with
  | [ (C.CStr (la, lp), C.CStr (ra, rp)) ] ->
    let side a p =
      match p with
      | None -> a
      | Some p -> Array.mapi (fun i c -> if C.Bitv.get p i then c else -1) a
    in
    (side la lp, side ra rp)
  | _ ->
    let side cols =
      C.of_cols (C.col_length (List.hd cols))
        (List.mapi (fun k c -> (string_of_int k, c)) cols)
    in
    let l = side (List.map fst pairs) and r = side (List.map snd pairs) in
    let nl = C.length l and n = C.length l + C.length r in
    let cols = List.map snd (C.cols (C.vstack [ l; r ])) in
    let codes = C.eqclasses n cols in
    List.iter
      (fun c ->
        Option.iter
          (fun m -> Array.iter (fun i -> codes.(i) <- -1) (C.Bitv.indices m))
          (C.null_mask c))
      cols;
    (Array.sub codes 0 nl, Array.sub codes nl (n - nl))

(* Hash-join candidates: the [(build, probe)] row pairs with equal codes,
   probe rows ascending and, within one, build rows descending.  The
   classes of equal codes over both sides name each probe row's first
   equal build row, if any; the build rows of each class are laid out
   descending, one class after the other. *)
let hash_pairs ~(build : int array) ~(probe : int array) : int array * int array =
  let nb = Array.length build and np = Array.length probe in
  let cls = C.eqclasses (nb + np) [ C.CInt (Array.append build probe, None) ] in
  let size = Array.make nb 0 in
  Array.iteri (fun bi c -> if c >= 0 then size.(cls.(bi)) <- size.(cls.(bi)) + 1) build;
  let cursor = Array.make nb 0 and total = ref 0 in
  for r = 0 to nb - 1 do
    if size.(r) > 0 then begin
      cursor.(r) <- !total;
      total := !total + size.(r)
    end
  done;
  let start = Array.copy cursor in
  let members = Array.make !total 0 in
  for bi = nb - 1 downto 0 do
    if build.(bi) >= 0 then begin
      let r = cls.(bi) in
      members.(cursor.(r)) <- bi;
      cursor.(r) <- cursor.(r) + 1
    end
  done;
  (* The class of probe row [pi] when a build row is in it, else -1. *)
  let match_of pi =
    let r = cls.(nb + pi) in
    if probe.(pi) >= 0 && r < nb then r else -1
  in
  let m = ref 0 in
  for pi = 0 to np - 1 do
    let r = match_of pi in
    if r >= 0 then m := !m + size.(r)
  done;
  let bs = Array.make !m 0 and ps = Array.make !m 0 in
  let k = ref 0 in
  for pi = 0 to np - 1 do
    let r = match_of pi in
    if r >= 0 then
      for j = start.(r) to start.(r) + size.(r) - 1 do
        bs.(!k) <- members.(j);
        ps.(!k) <- pi;
        incr k
      done
  done;
  (bs, ps)

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
