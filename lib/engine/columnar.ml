(* Columnar arena representation of nested-value batches.

   A batch stores rows struct-of-arrays: flat typed arrays for
   primitive columns, per-row element ranges into a shared element store
   for nested bags, one global
   hash-consed dictionary for strings, and packed presence bitmaps for
   Null.  [of_values]/[to_values] are exact inverses on rows that agree
   on shape — canonical bag order is preserved verbatim, never
   re-normalized — so the tree API remains the semantic boundary and
   row reconstruction can stay lazy.

   Every column has one shape: the rows of a batch built from a
   typechecked query over a typed database share their type, and Null
   (⊥) fits every shape.  Rows that disagree on shape raise
   [Shape_mismatch] where they meet. *)

open Nested

(* ------------------------------------------------------------------ *)
(* Packed bit vectors                                                  *)
(* ------------------------------------------------------------------ *)

module Bitv = struct
  type t = { len : int; bits : Bytes.t }

  let create len v =
    { len; bits = Bytes.make ((len + 7) lsr 3) (if v then '\xff' else '\x00') }

  let length t = t.len

  let get t i =
    Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set t i v =
    let j = i lsr 3 in
    let c = Char.code (Bytes.unsafe_get t.bits j) in
    let m = 1 lsl (i land 7) in
    Bytes.unsafe_set t.bits j
      (Char.unsafe_chr (if v then c lor m else c land lnot m land 0xff))

  let init len f =
    let t = create len false in
    for i = 0 to len - 1 do
      if f i then set t i true
    done;
    t

  let copy t = { len = t.len; bits = Bytes.copy t.bits }

  let bytewise2 f a b =
    let bits = Bytes.create (Bytes.length a.bits) in
    for j = 0 to Bytes.length bits - 1 do
      Bytes.unsafe_set bits j
        (Char.unsafe_chr
           (f (Char.code (Bytes.unsafe_get a.bits j))
              (Char.code (Bytes.unsafe_get b.bits j))
           land 0xff))
    done;
    { len = a.len; bits }

  let logand a b = bytewise2 (fun x y -> x land y) a b
  let logor a b = bytewise2 (fun x y -> x lor y) a b

  let lognot a =
    let bits = Bytes.create (Bytes.length a.bits) in
    for j = 0 to Bytes.length bits - 1 do
      Bytes.unsafe_set bits j
        (Char.unsafe_chr (lnot (Char.code (Bytes.unsafe_get a.bits j)) land 0xff))
    done;
    { len = a.len; bits }

  let popcount_byte = Array.init 256 (fun c ->
      let n = ref 0 in
      for b = 0 to 7 do
        if c land (1 lsl b) <> 0 then incr n
      done;
      !n)

  (* Count of set bits among the first [len] positions (trailing bits of
     the last byte are ignored). *)
  let count t =
    let full = t.len lsr 3 in
    let n = ref 0 in
    for j = 0 to full - 1 do
      n := !n + popcount_byte.(Char.code (Bytes.unsafe_get t.bits j))
    done;
    for i = full lsl 3 to t.len - 1 do
      if get t i then incr n
    done;
    !n

  let indices t =
    let out = Array.make (count t) 0 in
    let k = ref 0 in
    for i = 0 to t.len - 1 do
      if get t i then begin
        out.(!k) <- i;
        incr k
      end
    done;
    out

  let for_all t =
    let ok = ref true in
    (try
       for i = 0 to t.len - 1 do
         if not (get t i) then begin
           ok := false;
           raise Exit
         end
       done
     with Exit -> ());
    !ok
end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_rows_scanned = Obs.Metrics.counter "engine.columnar.rows_scanned"
let m_bytes_moved = Obs.Metrics.counter "engine.columnar.bytes_moved"
let m_dict_hits = Obs.Metrics.counter "engine.columnar.dict_hits"
let m_columns_pruned = Obs.Metrics.counter "engine.columnar.columns_pruned"

let note_rows_scanned n =
  if n > 0 then Obs.Metrics.Counter.incr ~by:n m_rows_scanned

let note_bytes_moved n =
  if n > 0 then Obs.Metrics.Counter.incr ~by:n m_bytes_moved

let note_columns_pruned n =
  if n > 0 then Obs.Metrics.Counter.incr ~by:n m_columns_pruned

(* ------------------------------------------------------------------ *)
(* Global string dictionary (hash-consed)                              *)
(* ------------------------------------------------------------------ *)

let string_hash (s : string) : int =
  let h = ref 5381 in
  for i = 0 to String.length s - 1 do
    h := (!h * 33) + Char.code (String.unsafe_get s i)
  done;
  !h

(* A float's hash is the hash of its bits, with every NaN read as
   [Float.nan]: [Value.equal] calls all NaNs equal, and [0.0] and [-0.0]
   already agree, because [Int64.to_int] drops the sign bit. *)
let float_hash (f : float) : int =
  let f = if Float.is_nan f then Float.nan else f in
  Int64.to_int (Int64.bits_of_float f) * 2654435761

(* The stable per-value hash: [Value.equal] values hash equally.
   [hash_col] vectorizes it, so a shuffle lands each row on the
   partition its value hashes to. *)
let rec value_hash (v : Value.t) : int =
  match v with
  | Value.Null -> 17
  | Value.Bool b -> if b then 31 else 37
  | Value.Int i -> i * 2654435761
  | Value.Float f -> float_hash f
  | Value.String s -> string_hash s
  | Value.Tuple fields -> fields_hash 7 fields
  | Value.Bag es -> elems_hash 11 es

(* A tuple's labels hash as strings do. *)
and fields_hash acc = function
  | [] -> acc
  | (l, fv) :: fields ->
    fields_hash ((acc * 31) + string_hash l + value_hash fv) fields

and elems_hash acc = function
  | [] -> acc
  | (e, m) :: es -> elems_hash (acc + (value_hash e * m)) es

module Dict = struct
  let mu = Mutex.create ()
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 1024
  let strings = ref (Array.make 1024 "")
  let hashes = ref (Array.make 1024 0)
  let next = ref 0

  let grow () =
    let cap = Array.length !strings in
    if !next >= cap then begin
      let s = Array.make (cap * 2) "" and h = Array.make (cap * 2) 0 in
      Array.blit !strings 0 s 0 cap;
      Array.blit !hashes 0 h 0 cap;
      strings := s;
      hashes := h
    end

  (* Returns the code and whether the string was already interned. *)
  let intern_hit (s : string) : int * bool =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt tbl s with
        | Some c -> (c, true)
        | None ->
          grow ();
          let c = !next in
          incr next;
          !strings.(c) <- s;
          !hashes.(c) <- string_hash s;
          Hashtbl.add tbl s c;
          (c, false))

  let intern s =
    let c, hit = intern_hit s in
    if hit then Obs.Metrics.Counter.incr m_dict_hits;
    c

  let lookup c = !strings.(c)
  let hash c = !hashes.(c)
  let size () = Mutex.protect mu (fun () -> !next)
end

(* ------------------------------------------------------------------ *)
(* Columns and batches                                                 *)
(* ------------------------------------------------------------------ *)

type col =
  | CNull of int  (** [n] all-Null rows *)
  | CBool of Bitv.t * Bitv.t option
  | CInt of int array * Bitv.t option
  | CFloat of float array * Bitv.t option
  | CStr of int array * Bitv.t option  (** global dictionary codes *)
  | CTuple of int * (string * col) list * Bitv.t option
  | CBag of bag

and bag = {
  bn : int;
  bstart : int array;  (** per row, its first element in the store *)
  bstop : int array;  (** per row, one past its last element *)
  bmult : int array;  (** per stored element, its multiplicity *)
  belems : col;  (** the element store; each range in canonical order *)
  bpresent : Bitv.t option;  (** absent rows are [Null], not empty bags *)
}

type t = { n : int; row : col }

let length t = t.n

let col_length = function
  | CNull n | CTuple (n, _, _) -> n
  | CBool (b, _) -> Bitv.length b
  | CInt (a, _) -> Array.length a
  | CFloat (a, _) -> Array.length a
  | CStr (a, _) -> Array.length a
  | CBag b -> b.bn

let present (p : Bitv.t option) i =
  match p with None -> true | Some p -> Bitv.get p i

(* ------------------------------------------------------------------ *)
(* Shape inference and building                                        *)
(* ------------------------------------------------------------------ *)

type shape =
  | SBot
  | SNull
  | SBool
  | SInt
  | SFloat
  | SStr
  | STuple of (string * shape) list
  | SBag of shape

let rec pp_shape ppf = function
  | SBot | SNull -> Fmt.string ppf "null"
  | SBool -> Fmt.string ppf "bool"
  | SInt -> Fmt.string ppf "int"
  | SFloat -> Fmt.string ppf "float"
  | SStr -> Fmt.string ppf "string"
  | STuple fs ->
    Fmt.pf ppf "⟨%a⟩"
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (l, s) -> Fmt.pf ppf "%s: %a" l pp_shape s))
      fs
  | SBag s -> Fmt.pf ppf "{{%a}}" pp_shape s

exception Shape_mismatch of string * string

let mismatch a b = raise (Shape_mismatch (Fmt.str "%a" pp_shape a, Fmt.str "%a" pp_shape b))

let same_labels fa fb =
  List.length fa = List.length fb
  && List.for_all2 (fun (la, _) (lb, _) -> String.equal la lb) fa fb

let rec shape_join a b =
  match (a, b) with
  | SBot, s | s, SBot -> s
  | SNull, s | s, SNull -> s
  | SBool, SBool -> SBool
  | SInt, SInt -> SInt
  | SFloat, SFloat -> SFloat
  | SStr, SStr -> SStr
  | STuple fa, STuple fb when same_labels fa fb ->
    STuple (List.map2 (fun (l, sa) (_, sb) -> (l, shape_join sa sb)) fa fb)
  | SBag ea, SBag eb -> SBag (shape_join ea eb)
  | _ -> mismatch a b

let rec shape_of (v : Value.t) : shape =
  match v with
  | Value.Null -> SNull
  | Value.Bool _ -> SBool
  | Value.Int _ -> SInt
  | Value.Float _ -> SFloat
  | Value.String _ -> SStr
  | Value.Tuple fs -> STuple (List.map (fun (l, fv) -> (l, shape_of fv)) fs)
  | Value.Bag es ->
    SBag (List.fold_left (fun acc (e, _) -> shape_join acc (shape_of e)) SBot es)

(* [shape_join acc (shape_of v)], fused: walk the value directly into
   the accumulated shape, preserving physical sharing on the (typical)
   homogeneous rows so the sweep allocates almost nothing. *)
let rec shape_join_value (acc : shape) (v : Value.t) : shape =
  match (acc, v) with
  | _, Value.Null -> ( match acc with SBot -> SNull | s -> s)
  | (SBot | SNull), _ -> shape_of v
  | SBool, Value.Bool _ -> acc
  | SInt, Value.Int _ -> acc
  | SFloat, Value.Float _ -> acc
  | SStr, Value.String _ -> acc
  | STuple fs, Value.Tuple vfs when same_labels fs vfs ->
    let changed = ref false in
    let fs' =
      List.map2
        (fun (l, s) (_, fv) ->
          let s' = shape_join_value s fv in
          if s' != s then changed := true;
          (l, s'))
        fs vfs
    in
    if !changed then STuple fs' else acc
  | SBag es, Value.Bag elems ->
    let es' =
      List.fold_left (fun a (e, _) -> shape_join_value a e) es elems
    in
    if es' != es then SBag es' else acc
  | _ -> mismatch acc (shape_of v)

let shape_of_values (vs : Value.t array) : shape =
  Array.fold_left shape_join_value SBot vs

(* Presence bitmap builder: [None] when every row is present. *)
let presence_of n is_null =
  let p = ref None in
  for i = 0 to n - 1 do
    if is_null i then begin
      (match !p with None -> p := Some (Bitv.create n true) | Some _ -> ());
      Bitv.set (Option.get !p) i false
    end
  done;
  !p

let rec build_col (sh : shape) (vs : Value.t array) : col =
  let n = Array.length vs in
  match sh with
  | SBot | SNull -> CNull n
  | SBool ->
    let b = Bitv.create n false in
    Array.iteri
      (fun i v -> match v with Value.Bool x -> Bitv.set b i x | _ -> ())
      vs;
    CBool (b, presence_of n (fun i -> vs.(i) = Value.Null))
  | SInt ->
    let a = Array.make n 0 in
    Array.iteri
      (fun i v -> match v with Value.Int x -> a.(i) <- x | _ -> ())
      vs;
    CInt (a, presence_of n (fun i -> vs.(i) = Value.Null))
  | SFloat ->
    let a = Array.make n 0. in
    Array.iteri
      (fun i v -> match v with Value.Float x -> a.(i) <- x | _ -> ())
      vs;
    CFloat (a, presence_of n (fun i -> vs.(i) = Value.Null))
  | SStr ->
    let a = Array.make n 0 in
    let hits = ref 0 in
    Array.iteri
      (fun i v ->
        match v with
        | Value.String s ->
          let c, hit = Dict.intern_hit s in
          if hit then incr hits;
          a.(i) <- c
        | _ -> ())
      vs;
    if !hits > 0 then
      Obs.Metrics.Counter.incr ~by:!hits m_dict_hits;
    CStr (a, presence_of n (fun i -> vs.(i) = Value.Null))
  | STuple fields ->
    let k = List.length fields in
    let children = Array.init k (fun _ -> Array.make n Value.Null) in
    Array.iteri
      (fun i v ->
        match v with
        | Value.Tuple fs -> List.iteri (fun j (_, fv) -> children.(j).(i) <- fv) fs
        | _ -> ())
      vs;
    let cols =
      List.mapi (fun j (l, s) -> (l, build_col s children.(j))) fields
    in
    CTuple (n, cols, presence_of n (fun i -> vs.(i) = Value.Null))
  | SBag esh ->
    let total =
      Array.fold_left
        (fun acc v ->
          match v with Value.Bag es -> acc + List.length es | _ -> acc)
        0 vs
    in
    let bstart = Array.make n 0 and bstop = Array.make n 0 in
    let bmult = Array.make total 0 in
    let evs = Array.make total Value.Null in
    let k = ref 0 in
    Array.iteri
      (fun i v ->
        bstart.(i) <- !k;
        (match v with
        | Value.Bag es ->
          List.iter
            (fun (e, m) ->
              evs.(!k) <- e;
              bmult.(!k) <- m;
              incr k)
            es
        | _ -> ());
        bstop.(i) <- !k)
      vs;
    CBag
      {
        bn = n;
        bstart;
        bstop;
        bmult;
        belems = build_col esh evs;
        bpresent = presence_of n (fun i -> vs.(i) = Value.Null);
      }

let of_values (vs : Value.t array) : t =
  note_rows_scanned (Array.length vs);
  { n = Array.length vs; row = build_col (shape_of_values vs) vs }

let of_rows (rows : Value.t list) : t = of_values (Array.of_list rows)

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)
(* ------------------------------------------------------------------ *)

(* Exact inverse of [build_col]: bags are reconstructed in stored
   (canonical) order via the raw [Value.Bag] constructor — no
   re-normalization, so the result is byte-identical to the input. *)
let rec col_values (c : col) : Value.t array =
  match c with
  | CNull n -> Array.make n Value.Null
  | CBool (b, p) ->
    Array.init (Bitv.length b) (fun i ->
        if present p i then Value.Bool (Bitv.get b i) else Value.Null)
  | CInt (a, p) ->
    Array.init (Array.length a) (fun i ->
        if present p i then Value.Int a.(i) else Value.Null)
  | CFloat (a, p) ->
    Array.init (Array.length a) (fun i ->
        if present p i then Value.Float a.(i) else Value.Null)
  | CStr (a, p) ->
    Array.init (Array.length a) (fun i ->
        if present p i then Value.String (Dict.lookup a.(i)) else Value.Null)
  | CTuple (n, fields, p) ->
    let labelled =
      List.map (fun (l, c) -> (l, col_values c)) fields
    in
    Array.init n (fun i ->
        if present p i then
          Value.Tuple (List.map (fun (l, vs) -> (l, vs.(i))) labelled)
        else Value.Null)
  | CBag bg ->
    let evs = col_values bg.belems in
    Array.init bg.bn (fun i ->
        if present bg.bpresent i then begin
          let lo = bg.bstart.(i) and hi = bg.bstop.(i) in
          let rec pairs j =
            if j >= hi then [] else (evs.(j), bg.bmult.(j)) :: pairs (j + 1)
          in
          Value.Bag (pairs lo)
        end
        else Value.Null)

let to_values t = col_values t.row
let to_rows t = Array.to_list (to_values t)

let rec col_get (c : col) (i : int) : Value.t =
  match c with
  | CNull _ -> Value.Null
  | CBool (b, p) -> if present p i then Value.Bool (Bitv.get b i) else Value.Null
  | CInt (a, p) -> if present p i then Value.Int a.(i) else Value.Null
  | CFloat (a, p) -> if present p i then Value.Float a.(i) else Value.Null
  | CStr (a, p) ->
    if present p i then Value.String (Dict.lookup a.(i)) else Value.Null
  | CTuple (_, fields, p) ->
    if present p i then
      Value.Tuple (List.map (fun (l, c) -> (l, col_get c i)) fields)
    else Value.Null
  | CBag bg ->
    if present bg.bpresent i then begin
      let evs = bg.belems in
      let lo = bg.bstart.(i) and hi = bg.bstop.(i) in
      let rec pairs j =
        if j >= hi then [] else (col_get evs j, bg.bmult.(j)) :: pairs (j + 1)
      in
      Value.Bag (pairs lo)
    end
    else Value.Null

let get_row t i = col_get t.row i

(* The rank of a cell in [Value.t]'s declaration order, the order in
   which [Value.compare] ranks constructors: 0 for a Null cell, and for
   a present cell its column's type. *)
let cell_rank (c : col) (i : int) : int =
  match c with
  | CNull _ -> 0
  | CBool (_, p) -> if present p i then 1 else 0
  | CInt (_, p) -> if present p i then 2 else 0
  | CFloat (_, p) -> if present p i then 3 else 0
  | CStr (_, p) -> if present p i then 4 else 0
  | CTuple (_, _, p) -> if present p i then 5 else 0
  | CBag bg -> if present bg.bpresent i then 6 else 0

(* [cmp] behind a presence bitmap: Null is the least value, and the
   present cells of a column share one type, so the bitmap decides
   every pair that holds a Null and [cmp] only sees present pairs. *)
let nulls_first (p : Bitv.t option) (cmp : int -> int -> int) : int -> int -> int =
  match p with
  | None -> cmp
  | Some p -> (
    fun i j ->
      match (Bitv.get p i, Bitv.get p j) with
      | true, true -> cmp i j
      | false, false -> 0
      | false, true -> -1
      | true, false -> 1)

(* Order two cells of one column as [Value.compare] orders the values
   they reconstruct to, without building them.  Staged on the column
   like [hash_row]: [cmp_row c] reads the column's shape once, and the
   function it returns compares one pair. *)
let rec cmp_row (c : col) : int -> int -> int =
  match c with
  | CNull _ -> fun _ _ -> 0
  | CBool (b, p) -> nulls_first p (fun i j -> Bool.compare (Bitv.get b i) (Bitv.get b j))
  | CInt (a, p) -> nulls_first p (fun i j -> Int.compare a.(i) a.(j))
  | CFloat (a, p) -> nulls_first p (fun i j -> Float.compare a.(i) a.(j))
  | CStr (a, p) ->
    (* A string pair with one dictionary code is equal without a
       lookup. *)
    nulls_first p (fun i j ->
        let x = a.(i) and y = a.(j) in
        if x = y then 0 else String.compare (Dict.lookup x) (Dict.lookup y))
  | CTuple (_, fields, p) ->
    (* Both rows reconstruct with the same labels in the same order, so
       [Value.compare_fields] reduces to field-wise comparison. *)
    let fs = Array.of_list (List.map (fun (_, fc) -> cmp_row fc) fields) in
    let k = Array.length fs in
    nulls_first p (fun i j ->
        let c = ref 0 and f = ref 0 in
        while !c = 0 && !f < k do
          c := fs.(!f) i j;
          incr f
        done;
        !c)
  | CBag bg ->
    (* Stored contents are canonical, so bag comparison is lexicographic
       over (element, multiplicity) pairs. *)
    let elem = cmp_row bg.belems in
    nulls_first bg.bpresent (fun i j ->
        let rec go u v =
          let endu = u >= bg.bstop.(i) and endv = v >= bg.bstop.(j) in
          if endu && endv then 0
          else if endu then -1
          else if endv then 1
          else
            let c = elem u v in
            if c <> 0 then c
            else
              let c = Int.compare bg.bmult.(u) bg.bmult.(v) in
              if c <> 0 then c else go (u + 1) (v + 1)
        in
        go bg.bstart.(i) bg.bstart.(j))

(* [Value.equal (col_get a i) (col_get b j)] for cells of two columns of
   one type that may differ in representation (typed or all-Null,
   presence bitmaps, bag stores), without building either value: equal
   ranks first, so a Null meets only a Null; strings by dictionary
   code, floats by [compare] (as [Value.equal], so -0.0 = 0.0 and NaN =
   NaN), bags element by element in their canonical order. *)
let rec equal_cells (a : col) (i : int) (b : col) (j : int) : bool =
  let r = cell_rank a i in
  r = cell_rank b j
  && (r = 0
     ||
     match (a, b) with
     | CBool (x, _), CBool (y, _) -> Bool.equal (Bitv.get x i) (Bitv.get y j)
     | CInt (x, _), CInt (y, _) -> x.(i) = y.(j)
     | CFloat (x, _), CFloat (y, _) -> Float.compare x.(i) y.(j) = 0
     | CStr (x, _), CStr (y, _) -> x.(i) = y.(j)
     | CTuple (_, fa, _), CTuple (_, fb, _) -> equal_fields fa i fb j
     | CBag x, CBag y ->
       let lo = x.bstart.(i) and hi = x.bstop.(i) in
       hi - lo = y.bstop.(j) - y.bstart.(j)
       && equal_elems x lo hi y (y.bstart.(j) - lo)
     | _ -> false)

and equal_fields fa i fb j =
  match (fa, fb) with
  | [], [] -> true
  | (la, ca) :: fa, (lb, cb) :: fb ->
    (la == lb || String.equal la lb) && equal_cells ca i cb j && equal_fields fa i fb j
  | _ -> false

(* Elements [u, hi) of [x]'s store against those [d] further on in
   [y]'s. *)
and equal_elems x u hi y d =
  u >= hi
  || x.bmult.(u) = y.bmult.(u + d)
     && equal_cells x.belems u y.belems (u + d)
     && equal_elems x (u + 1) hi y d

let equal_rows (a : t) (i : int) (b : t) (j : int) : bool =
  equal_cells a.row i b.row j

(* ------------------------------------------------------------------ *)
(* Tuple-structure access                                              *)
(* ------------------------------------------------------------------ *)

(* An empty batch may have no columns. *)
let cols t =
  match t.row with
  | CTuple (_, fields, None) -> fields
  | _ when t.n = 0 -> []
  | _ -> invalid_arg "Columnar.cols: rows are not tuples"

let find_col t name =
  match t.row with
  | CTuple (_, fields, None) -> List.assoc_opt name fields
  | _ -> None

let of_cols n (fields : (string * col) list) : t =
  { n; row = CTuple (n, fields, None) }

(* ------------------------------------------------------------------ *)
(* Size accounting                                                     *)
(* ------------------------------------------------------------------ *)

let opt_bitv_bytes = function None -> 0 | Some p -> (Bitv.length p + 7) / 8

(* The element references of a bag's rows: the sum of their range
   lengths, a row counted once per occurrence. *)
let bag_refs (bg : bag) : int =
  let r = ref 0 in
  for i = 0 to bg.bn - 1 do
    r := !r + (bg.bstop.(i) - bg.bstart.(i))
  done;
  !r

let rec col_bytes (c : col) : int =
  match c with
  | CNull n -> 8 + (n / 64)
  | CBool (b, p) -> ((Bitv.length b + 7) / 8) + opt_bitv_bytes p
  | CInt (a, p) -> (8 * Array.length a) + opt_bitv_bytes p
  | CFloat (a, p) -> (8 * Array.length a) + opt_bitv_bytes p
  | CStr (a, p) -> (8 * Array.length a) + opt_bitv_bytes p
  | CTuple (_, fields, p) ->
    List.fold_left (fun acc (_, c) -> acc + col_bytes c) (opt_bitv_bytes p) fields
  | CBag bg ->
    (* The ranges, and the elements the rows reference at the store's
       mean element size: a slice that shares its store counts what it
       references, not the whole store again. *)
    let ne = Array.length bg.bmult in
    (16 * bg.bn)
    + opt_bitv_bytes bg.bpresent
    + if ne = 0 then 0 else bag_refs bg * ((8 * ne) + col_bytes bg.belems) / ne

let bytes t = col_bytes t.row

(* ------------------------------------------------------------------ *)
(* Gather / filter / stack kernels                                     *)
(* ------------------------------------------------------------------ *)

let opt_bitv_gather p idx =
  match p with
  | None -> None
  | Some p ->
    let q = Bitv.init (Array.length idx) (fun j -> Bitv.get p idx.(j)) in
    if Bitv.for_all q then None else Some q

let rec col_gather (c : col) (idx : int array) : col =
  let m = Array.length idx in
  match c with
  | CNull _ -> CNull m
  | CBool (b, p) ->
    CBool (Bitv.init m (fun j -> Bitv.get b idx.(j)), opt_bitv_gather p idx)
  | CInt (a, p) ->
    CInt (Array.init m (fun j -> a.(idx.(j))), opt_bitv_gather p idx)
  | CFloat (a, p) ->
    CFloat (Array.init m (fun j -> a.(idx.(j))), opt_bitv_gather p idx)
  | CStr (a, p) ->
    CStr (Array.init m (fun j -> a.(idx.(j))), opt_bitv_gather p idx)
  | CTuple (_, fields, p) ->
    CTuple
      ( m,
        List.map (fun (l, c) -> (l, col_gather c idx)) fields,
        opt_bitv_gather p idx )
  | CBag bg ->
    let g =
      {
        bg with
        bn = m;
        bstart = Array.init m (fun j -> bg.bstart.(idx.(j)));
        bstop = Array.init m (fun j -> bg.bstop.(idx.(j)));
        bpresent = opt_bitv_gather bg.bpresent idx;
      }
    in
    (* The rows share the store while they reference at least half of
       it, so a pass over the store never costs more than twice theirs. *)
    if 2 * bag_refs g >= Array.length bg.bmult then CBag g
    else CBag (compact_bag g)

(* [bg]'s rows over a store of just the ranges they reference, in row
   order; a row whose range equals the previous row's shares its copy
   (a flatten repeats each parent row).  [bg] itself when its store is
   already that. *)
and compact_bag (bg : bag) : bag =
  let m = bg.bn in
  let repeat i =
    i > 0 && bg.bstart.(i) = bg.bstart.(i - 1) && bg.bstop.(i) = bg.bstop.(i - 1)
  in
  let total = ref 0 and dense = ref true in
  for i = 0 to m - 1 do
    if not (repeat i) then begin
      if bg.bstop.(i) > bg.bstart.(i) && bg.bstart.(i) <> !total then
        dense := false;
      total := !total + (bg.bstop.(i) - bg.bstart.(i))
    end
  done;
  if !dense && !total = Array.length bg.bmult then bg
  else begin
    let bstart = Array.make m 0 and bstop = Array.make m 0 in
    let eidx = Array.make !total 0 in
    let k = ref 0 in
    for i = 0 to m - 1 do
      if repeat i then begin
        bstart.(i) <- bstart.(i - 1);
        bstop.(i) <- bstop.(i - 1)
      end
      else begin
        bstart.(i) <- !k;
        for e = bg.bstart.(i) to bg.bstop.(i) - 1 do
          eidx.(!k) <- e;
          incr k
        done;
        bstop.(i) <- !k
      end
    done;
    {
      bg with
      bstart;
      bstop;
      bmult = Array.map (fun e -> bg.bmult.(e)) eidx;
      belems = col_gather bg.belems eidx;
    }
  end

let gather t idx =
  note_rows_scanned (Array.length idx);
  { n = Array.length idx; row = col_gather t.row idx }

(* Every index in [0, n) congruent to [offset] mod [stride] — the
   sampling pattern of approximate tracing, where the congruence class is
   fixed by the global row id of the batch's first row so the sampled
   rows are the rids divisible by the stride. *)
let stride_indices ~n ~offset ~stride =
  if stride <= 1 then Array.init n Fun.id
  else if offset >= n then [||]
  else Array.init ((n - offset + stride - 1) / stride) (fun j -> offset + (j * stride))

let filter t (mask : Bitv.t) =
  note_rows_scanned t.n;
  let idx = Bitv.indices mask in
  { n = Array.length idx; row = col_gather t.row idx }

(* Row-wise tuple concatenation. *)
let hstack a b =
  if a.n <> b.n then invalid_arg "Columnar.hstack: length mismatch";
  of_cols a.n (cols a @ cols b)

let empty = of_cols 0 []

(* [n] copies of [v] in a typed column.  Null is an all-Null column and
   a tuple a column per field, so a null pad (join and flatten padding
   broadcast null tuples) allocates nothing per row; any other value is
   built once and gathered, so a bag's rows share one stored copy. *)
let rec repeat n (v : Value.t) : col =
  match v with
  | Value.Null -> CNull n
  | Value.Tuple fs -> CTuple (n, List.map (fun (l, fv) -> (l, repeat n fv)) fs, None)
  | v -> col_gather (build_col (shape_of v) [| v |]) (Array.make n 0)

let broadcast n (v : Value.t) : t = { n; row = repeat n v }

let as_bag (c : col) : bag =
  match c with
  | CBag bg -> bg
  | CNull n ->
    {
      bn = n;
      bstart = Array.make n 0;
      bstop = Array.make n 0;
      bmult = [||];
      belems = CNull 0;
      bpresent = Some (Bitv.create n false);
    }
  | _ -> invalid_arg "Columnar.as_bag: not a bag column"

(* A bag with no stored element has no element shape yet. *)
let rec col_shape (c : col) : shape =
  match c with
  | CNull _ -> SNull
  | CBool _ -> SBool
  | CInt _ -> SInt
  | CFloat _ -> SFloat
  | CStr _ -> SStr
  | CTuple (_, fields, _) ->
    STuple (List.map (fun (l, c) -> (l, col_shape c)) fields)
  | CBag bg ->
    SBag (if Array.length bg.bmult = 0 then SBot else col_shape bg.belems)

(* Splice the columns [cs], all of shape [sh], into one [total]-row
   column without materializing rows: Null pieces become presence bits,
   typed pieces array blits, bag pieces ranges over their stores.
   Empty pieces take no part. *)
let rec concat (sh : shape) (cs : col list) (total : int) : col =
  let cs = List.filter (fun c -> col_length c > 0) cs in
  let pres = ref None in
  let absent i =
    let p =
      match !pres with
      | Some p -> p
      | None ->
        let p = Bitv.create total true in
        pres := Some p;
        p
    in
    Bitv.set p i false
  in
  let splice off len = function
    | None -> ()
    | Some b ->
      for i = 0 to len - 1 do
        if not (Bitv.get b i) then absent (off + i)
      done
  in
  (* [f off len c] on every piece that is not all Null, at its row
     offset. *)
  let each f =
    ignore
      (List.fold_left
         (fun off c ->
           let len = col_length c in
           (match c with
           | CNull _ ->
             for i = off to off + len - 1 do
               absent i
             done
           | c -> f off len c);
           off + len)
         0 cs)
  in
  let outside () = invalid_arg "Columnar.vstack: a piece outside the shape" in
  (* A flat array: [cells c] is a piece's values and presence. *)
  let flat zero cells =
    let arr = Array.make total zero in
    each (fun off len c ->
        let a, p = cells c in
        Array.blit a 0 arr off len;
        splice off len p);
    arr
  in
  match sh with
  | SBot | SNull -> CNull total
  | SBool ->
    let bits =
      flat false
        (function
          | CBool (b, p) -> (Array.init (Bitv.length b) (Bitv.get b), p) | _ -> outside ())
    in
    CBool (Bitv.init total (Array.get bits), !pres)
  | SInt ->
    let a = flat 0 (function CInt (a, p) -> (a, p) | _ -> outside ()) in
    CInt (a, !pres)
  | SFloat ->
    let a = flat 0. (function CFloat (a, p) -> (a, p) | _ -> outside ()) in
    CFloat (a, !pres)
  | SStr ->
    let a = flat 0 (function CStr (a, p) -> (a, p) | _ -> outside ()) in
    CStr (a, !pres)
  | STuple fields ->
    let field j = function
      | CTuple (_, fs, _) -> snd (List.nth fs j)
      | CNull k -> CNull k
      | _ -> outside ()
    in
    let fields =
      List.mapi (fun j (l, fsh) -> (l, concat fsh (List.map (field j) cs) total)) fields
    in
    each (fun off len -> function CTuple (_, _, p) -> splice off len p | _ -> ());
    CTuple (total, fields, !pres)
  | SBag esh ->
    (* Pieces whose elements all sit in one store stack their ranges
       over it; otherwise each piece is compacted and the stores are
       concatenated, its ranges shifted by its store's offset. *)
    let bags = List.map as_bag cs in
    let shared =
      match List.filter (fun bg -> Array.length bg.bmult > 0) bags with
      | s :: rest
        when List.for_all (fun bg -> bg.belems == s.belems && bg.bmult == s.bmult) rest
        ->
        Some s
      | _ -> None
    in
    let bags = if Option.is_some shared then bags else List.map compact_bag bags in
    let bstart = Array.make total 0 and bstop = Array.make total 0 in
    let _, stored =
      List.fold_left
        (fun (row, base) bg ->
          for i = 0 to bg.bn - 1 do
            bstart.(row + i) <- base + bg.bstart.(i);
            bstop.(row + i) <- base + bg.bstop.(i)
          done;
          splice row bg.bn bg.bpresent;
          (row + bg.bn, if Option.is_some shared then 0 else base + Array.length bg.bmult))
        (0, 0) bags
    in
    match shared with
    | Some s -> CBag { s with bn = total; bstart; bstop; bpresent = !pres }
    | None ->
      CBag
        {
          bn = total;
          bstart;
          bstop;
          bmult = Array.concat (List.map (fun bg -> bg.bmult) bags);
          belems = concat esh (List.map (fun bg -> bg.belems) bags) stored;
          bpresent = !pres;
        }

(* 0-row pieces take no part, so an empty partition never decides a
   shape; rows of two shapes raise [Shape_mismatch]. *)
let vstack (ts : t list) : t =
  match List.filter (fun t -> t.n > 0) ts with
  | [] -> ( match ts with t :: _ -> t | [] -> empty)
  | [ t ] -> t
  | ts ->
    let sh = List.fold_left (fun acc t -> shape_join acc (col_shape t.row)) SBot ts in
    let n = List.fold_left (fun acc t -> acc + t.n) 0 ts in
    { n; row = concat sh (List.map (fun t -> t.row) ts) n }

(* ------------------------------------------------------------------ *)
(* Null masks                                                          *)
(* ------------------------------------------------------------------ *)

(* [Some mask] marks the rows whose value is [Null]; [None] = no nulls. *)
let null_mask (c : col) : Bitv.t option =
  match c with
  | CNull n -> Some (Bitv.create n true)
  | CBool (_, p) | CInt (_, p) | CFloat (_, p) | CStr (_, p)
  | CTuple (_, _, p) ->
    Option.map Bitv.lognot p
  | CBag bg -> Option.map Bitv.lognot bg.bpresent

(* [c] with the rows outside [p] read as Null. *)
let mask_col (p : Bitv.t) (c : col) : col =
  let absent q = Some (match q with None -> p | Some q -> Bitv.logand p q) in
  match c with
  | CNull _ -> c
  | CBool (b, q) -> CBool (b, absent q)
  | CInt (a, q) -> CInt (a, absent q)
  | CFloat (a, q) -> CFloat (a, absent q)
  | CStr (a, q) -> CStr (a, absent q)
  | CTuple (n, fs, q) -> CTuple (n, fs, absent q)
  | CBag bg -> CBag { bg with bpresent = absent bg.bpresent }

(* The right-hand side of a tuple flatten, column-wise: a tuple column's
   fields, with its presence pushed into each so a Null tuple reads Null
   in every field, or the type's null tuple broadcast over an all-Null
   column. *)
let flatten_tuple (inner_ty : Vtype.t) (c : col) : t =
  let n = col_length c in
  match c with
  | CNull _ -> broadcast n (Vtype.null_tuple inner_ty)
  | CTuple (_, fields, None) -> of_cols n fields
  | CTuple (_, fields, Some p) ->
    of_cols n (List.map (fun (l, f) -> (l, mask_col p f)) fields)
  | _ -> invalid_arg "Columnar.flatten_tuple: not a tuple column"

(* ------------------------------------------------------------------ *)
(* Vectorized hash (shuffle destinations)                              *)
(* ------------------------------------------------------------------ *)

(* One row's hash, staged on the column: [hash_row c] hashes the labels
   once, and the function it returns hashes one row at a time.  A bag row hashes only its own range of the store. *)
let rec hash_row (c : col) : int -> int =
  match c with
  | CNull _ -> fun _ -> 17
  | CBool (b, p) ->
    fun i -> if not (present p i) then 17 else if Bitv.get b i then 31 else 37
  | CInt (a, p) -> fun i -> if present p i then a.(i) * 2654435761 else 17
  | CFloat (a, p) -> fun i -> if present p i then float_hash a.(i) else 17
  | CStr (a, p) -> fun i -> if present p i then Dict.hash a.(i) else 17
  | CTuple (_, fields, p) ->
    let fs = List.map (fun (l, fc) -> (string_hash l, hash_row fc)) fields in
    fun i -> if present p i then fields_hash_row fs i 7 else 17
  | CBag bg ->
    let elem = hash_row bg.belems in
    fun i ->
      if present bg.bpresent i then begin
        let acc = ref 11 in
        for j = bg.bstart.(i) to bg.bstop.(i) - 1 do
          acc := !acc + (elem j * bg.bmult.(j))
        done;
        !acc
      end
      else 17

and fields_hash_row fs i acc =
  match fs with
  | [] -> acc
  | (lh, h) :: fs -> fields_hash_row fs i ((acc * 31) + lh + h i)

let hash_col (c : col) : int array = Array.init (col_length c) (hash_row c)

(* Open addressing for up to [n] keys: a power-of-two table at most half
   full, each slot holding a key and a row entered with it ([-1] =
   empty).  The probe for key [k] starts at the slot the high bits of a
   multiplicative mix pick, so keys that differ only in their high bits
   (a float's bits) spread as well as keys that differ in their low
   ones, and walks the slots that follow, passing over those of other
   keys and rows. *)
type table = { tmask : int; tshift : int; tkeys : int array; trow : int array }

let table (n : int) : table =
  let cap = ref 16 and bits = ref 4 in
  while !cap < 2 * n do
    cap := 2 * !cap;
    incr bits
  done;
  {
    tmask = !cap - 1;
    tshift = Sys.int_size - !bits;
    tkeys = Array.make !cap 0;
    trow = Array.make !cap (-1);
  }

let slot (tbl : table) (k : int) : int = (k * 0x2545F4914F6CDD1D) lsr tbl.tshift

(* The first row entered with key [k] that [same] accepts as equal to
   row [i]; when there is none, [i], entered. *)
let insert (tbl : table) (k : int) (same : int -> int -> bool) (i : int) : int =
  let s = ref (slot tbl k) in
  while tbl.trow.(!s) >= 0 && not (tbl.tkeys.(!s) = k && same tbl.trow.(!s) i) do
    s := (!s + 1) land tbl.tmask
  done;
  if tbl.trow.(!s) < 0 then begin
    tbl.tkeys.(!s) <- k;
    tbl.trow.(!s) <- i;
    i
  end
  else tbl.trow.(!s)

(* The slot of the exact key [k]: its own, or the empty one that ends
   its probe. *)
let key_slot (tbl : table) (k : int) : int =
  let s = ref (slot tbl k) in
  while tbl.trow.(!s) >= 0 && tbl.tkeys.(!s) <> k do
    s := (!s + 1) land tbl.tmask
  done;
  !s

let push (tbl : table) (k : int) (i : int) : int =
  let s = key_slot tbl k in
  let prev = tbl.trow.(s) in
  tbl.tkeys.(s) <- k;
  tbl.trow.(s) <- i;
  prev

let find (tbl : table) (k : int) : int = tbl.trow.(key_slot tbl k)

(* Equivalence classes of rows: [result.(i)] is the smallest row whose
   key [h.(i)] equals row [i]'s and that [same] accepts as equal to it.
   The rows outside [live] (a presence bitmap) are Null: one class,
   never compared. *)
let classes ?live (h : int array) (same : int -> int -> bool) : int array =
  let n = Array.length h in
  let tbl = table n and out = Array.make n 0 and null = ref (-1) in
  for i = 0 to n - 1 do
    if present live i then out.(i) <- insert tbl h.(i) same i
    else begin
      if !null < 0 then null := i;
      out.(i) <- !null
    end
  done;
  out

(* A batch's distinct rows in a [table], keyed by their hashes. *)
type row_index = { indexed : t; distinct : table }

let row_index (b : t) : row_index =
  let n = length b in
  let hashes = hash_col b.row and distinct = table n in
  let same r i = equal_rows b r b i in
  for i = 0 to n - 1 do
    ignore (insert distinct hashes.(i) same i : int)
  done;
  { indexed = b; distinct }

let indexed (idx : row_index) : t = idx.indexed

(* Row [i] of [b] is hashed in place and probed; each slot holding its
   hash is a candidate, compared by [equal_rows]. *)
let mem (idx : row_index) (b : t) ~(verified : int ref) : int -> bool =
  if length idx.indexed = 0 then fun _ -> false
  else begin
    let hash = hash_row b.row and tbl = idx.distinct in
    fun i ->
      let k = hash i in
      let s = ref (slot tbl k) and found = ref false in
      while (not !found) && tbl.trow.(!s) >= 0 do
        if tbl.tkeys.(!s) = k then begin
          incr verified;
          found := equal_rows idx.indexed tbl.trow.(!s) b i
        end;
        s := (!s + 1) land tbl.tmask
      done;
      !found
  end

(* ------------------------------------------------------------------ *)
(* Exact codes                                                         *)
(* ------------------------------------------------------------------ *)

(* Rows are equal on a set of columns when their exact codes are: one
   int per row and column, and a presence bit where the column has a
   bitmap.  An int column gives its values, a string column its
   dictionary codes and a bool column 0 or 1, each 0 at an absent row;
   a float, tuple or bag column gives each row its class, the smallest
   row holding a [Value.equal] value (Null rows form a class of their
   own); an all-Null column gives nothing, since it tells no rows
   apart. *)
type codes = { ints : int array list; bits : Bitv.t list }

let no_codes = { ints = []; bits = [] }

(* [a] with its absent rows read as 0. *)
let zero_absent (a : int array) (p : Bitv.t option) : int array =
  match p with
  | None -> a
  | Some p -> Array.mapi (fun i x -> if Bitv.get p i then x else 0) a

let with_bits p (cs : codes) : codes =
  match p with None -> cs | Some p -> { cs with bits = p :: cs.bits }

let mix (h : int) (c : int) : int =
  let x = (h lxor c) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

(* The classes of [n] rows under their codes [cs]: a row's class is the
   smallest row with the same codes, found by one hash pass over the
   code tuples, candidates verified code by code.  The rows outside
   [outer] (a tuple column's presence) are Null: one class, whatever
   their codes. *)
let code_classes (n : int) (outer : Bitv.t option) (cs : codes) : int array =
  match outer, cs.ints, cs.bits with
  | None, [], [] -> Array.make n 0
  | None, [ a ], [] -> classes a (fun _ _ -> true)
  | _ ->
    let ints = Array.of_list cs.ints and bits = Array.of_list cs.bits in
    let w = Array.length ints and nb = Array.length bits in
    let h = Array.make n 0 in
    Array.iter
      (fun a ->
        for i = 0 to n - 1 do
          h.(i) <- mix h.(i) a.(i)
        done)
      ints;
    Array.iter
      (fun p ->
        for i = 0 to n - 1 do
          h.(i) <- mix h.(i) (Bool.to_int (Bitv.get p i))
        done)
      bits;
    let rec same_ints k r i = k = w || (ints.(k).(r) = ints.(k).(i) && same_ints (k + 1) r i) in
    let rec same_bits k r i =
      k = nb || (Bool.equal (Bitv.get bits.(k) r) (Bitv.get bits.(k) i) && same_bits (k + 1) r i)
    in
    classes ?live:outer h (fun r i -> same_ints 0 r i && same_bits 0 r i)

(* The classes of a float column: a row's key is its bits (every NaN
   read as [Float.nan], the sign bit dropped so that [-0.0] meets
   [0.0]), verified by [Float.compare]. *)
let float_classes (a : float array) (p : Bitv.t option) : int array =
  let h =
    Array.init (Array.length a) (fun i ->
        let f = a.(i) in
        Int64.to_int (Int64.bits_of_float (if Float.is_nan f then Float.nan else f)))
  in
  classes ?live:p h (fun r i -> Float.compare a.(r) a.(i) = 0)

(* The codes of column [c], added to [cs]. *)
let rec add_codes (c : col) (cs : codes) : codes =
  match c with
  | CNull _ -> cs
  | CInt (a, p) | CStr (a, p) -> with_bits p { cs with ints = zero_absent a p :: cs.ints }
  | CBool (b, p) ->
    let a = Array.init (Bitv.length b) (fun i -> Bool.to_int (present p i && Bitv.get b i)) in
    with_bits p { cs with ints = a :: cs.ints }
  | CFloat _ | CTuple _ | CBag _ -> { cs with ints = col_classes c :: cs.ints }

(* The classes of a float, tuple or bag column: floats verified by
   [Float.compare] (so [-0.0] = [0.0] and NaN = NaN), a tuple by its
   fields' codes, a bag by [equal_cells]. *)
and col_classes (c : col) : int array =
  match c with
  | CFloat (a, p) -> float_classes a p
  | CTuple (n, fields, p) ->
    code_classes n p (List.fold_right (fun (_, f) cs -> add_codes f cs) fields no_codes)
  | _ -> classes (hash_col c) (fun r i -> equal_cells c r c i)

let eqclasses (n : int) (cs : col list) : int array =
  match cs with
  | [ (CInt (a, p) | CStr (a, p)) ] -> classes ?live:p a (fun _ _ -> true)
  | [ (CFloat _ | CTuple _ | CBag _) as c ] -> col_classes c
  | cs -> code_classes n None (List.fold_right add_codes cs no_codes)

(* One canonical bag per group of row indices of [b]: the members'
   distinct rows with merged multiplicities, sorted by [cmp_row] — the
   contents [Value.bag_of_list] gives the members' rows.  [codes] come
   from [eqclasses] over [b]'s columns, so a code is the smallest row
   index of its class and doubles as the element's source row; every
   bag's elements come from one [gather] of [b]. *)
let canonical_bags (b : t) (codes : int array) (groups : int array array) :
    col =
  (* Multiplicities live in one [n]-sized scratch array, reset after
     each group. *)
  let mult_of = Array.make b.n 0 and cmp = cmp_row b.row in
  let canon members =
    let distinct = ref [] in
    Array.iter
      (fun i ->
        let cd = codes.(i) in
        if mult_of.(cd) = 0 then distinct := cd :: !distinct;
        mult_of.(cd) <- mult_of.(cd) + 1)
      members;
    let ds = Array.of_list (List.rev !distinct) in
    Array.stable_sort cmp ds;
    let ms =
      Array.map
        (fun cd ->
          let m = mult_of.(cd) in
          mult_of.(cd) <- 0;
          m)
        ds
    in
    (ds, ms)
  in
  let bags = Array.map canon groups in
  let g = Array.length groups in
  let bstart = Array.make g 0 and bstop = Array.make g 0 in
  Array.iteri
    (fun o (ds, _) ->
      if o > 0 then bstart.(o) <- bstop.(o - 1);
      bstop.(o) <- bstart.(o) + Array.length ds)
    bags;
  let sel = Array.concat (Array.to_list (Array.map fst bags)) in
  CBag
    {
      bn = g;
      bstart;
      bstop;
      bmult = Array.concat (Array.to_list (Array.map snd bags));
      belems = (gather b sel).row;
      bpresent = None;
    }

(* ------------------------------------------------------------------ *)
(* Vectorized expression evaluation                                    *)
(* ------------------------------------------------------------------ *)

(* Presence bitmap of a column ([None] = all rows present). *)
let col_presence (c : col) n : Bitv.t option =
  match c with
  | CNull _ -> Some (Bitv.create n false)
  | CBool (_, p) | CInt (_, p) | CFloat (_, p) | CStr (_, p)
  | CTuple (_, _, p) ->
    p
  | CBag bg -> bg.bpresent

(* An operand of arithmetic or of a comparison: a column, or an Int,
   Float or String literal kept as its one value, so [x + 1] and σ
   against a literal build no column of copies. *)
type operand = Col of col | Lit of Value.t

let num2 name fi ff (a : operand) (b : operand) n : col =
  let presence = function Col c -> col_presence c n | Lit _ -> None in
  let pa = presence a and pb = presence b in
  (* The rows where both operands are non-Null; only those can compute or
     raise — everything else is Null, like [numeric_binop]. *)
  let both =
    match (pa, pb) with
    | None, None -> if n > 0 then `All else `None
    | None, Some p | Some p, None -> if Bitv.count p > 0 then `Mask p else `None
    | Some p, Some q ->
      let m = Bitv.logand p q in
      if Bitv.count m > 0 then `Mask m else `None
  in
  match both with
  | `None -> CNull n
  | _ ->
    let view = function
      | Col (CInt (x, _)) -> `I x
      | Col (CFloat (x, _)) -> `F x
      | Lit (Value.Int k) -> `CI k
      | Lit (Value.Float k) -> `CF k
      | _ -> raise (Nrab.Expr.Eval_error ("non-numeric operands to " ^ name))
    in
    let va = view a and vb = view b in
    let live i = match both with `All -> true | `Mask m -> Bitv.get m i | `None -> false in
    let pres = match both with `All -> None | `Mask m -> Some m | `None -> assert false in
    (match (va, vb) with
    | (`I _ | `CI _), (`I _ | `CI _) ->
      let geta i = match va with `I x -> x.(i) | `CI k -> k | _ -> 0 in
      let getb i = match vb with `I x -> x.(i) | `CI k -> k | _ -> 0 in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        if live i then out.(i) <- fi (geta i) (getb i)
      done;
      CInt (out, pres)
    | _ ->
      let getf v i =
        match v with
        | `I x -> float_of_int x.(i)
        | `F x -> x.(i)
        | `CI k -> float_of_int k
        | `CF k -> k
      in
      let out = Array.make n 0. in
      for i = 0 to n - 1 do
        if live i then out.(i) <- ff (getf va i) (getf vb i)
      done;
      CFloat (out, pres))

let rec operand (t : t) (e : Nrab.Expr.t) : operand =
  match e with
  | Nrab.Expr.Const ((Value.Int _ | Value.Float _ | Value.String _) as v) -> Lit v
  | e -> Col (eval_col t e)

and eval_col (t : t) (e : Nrab.Expr.t) : col =
  match e with
  | Nrab.Expr.Const v -> repeat t.n v
  | Nrab.Expr.Attr a -> (
    match find_col t a with
    | Some c -> c
    | None -> raise (Nrab.Expr.Eval_error ("unknown attribute " ^ a)))
  | Nrab.Expr.Add (a, b) ->
    num2 "+" ( + ) ( +. ) (operand t a) (operand t b) t.n
  | Nrab.Expr.Sub (a, b) ->
    num2 "-" ( - ) ( -. ) (operand t a) (operand t b) t.n
  | Nrab.Expr.Mul (a, b) ->
    num2 "*" ( * ) ( *. ) (operand t a) (operand t b) t.n
  | Nrab.Expr.Div (a, b) ->
    num2 "/" ( / ) ( /. ) (operand t a) (operand t b) t.n

let eval_expr (t : t) (e : Nrab.Expr.t) : col =
  note_rows_scanned t.n;
  try eval_col t e
  with Division_by_zero ->
    (* Exact per-row semantics (ordering of raises included). *)
    let vs = Array.init t.n (fun i -> Nrab.Expr.eval (get_row t i) e) in
    build_col (shape_of_values vs) vs

let cmp_test (c : Nrab.Expr.cmp) (r : int) : bool =
  match c with
  | Nrab.Expr.Eq -> r = 0
  | Nrab.Expr.Neq -> r <> 0
  | Nrab.Expr.Lt -> r < 0
  | Nrab.Expr.Le -> r <= 0
  | Nrab.Expr.Gt -> r > 0
  | Nrab.Expr.Ge -> r >= 0

(* [c] with its operands swapped: [x c y] exactly when [y (flip c) x],
   since [Expr.compare_values] is antisymmetric. *)
let flip : Nrab.Expr.cmp -> Nrab.Expr.cmp = function
  | Nrab.Expr.Lt -> Nrab.Expr.Gt
  | Nrab.Expr.Le -> Nrab.Expr.Ge
  | Nrab.Expr.Gt -> Nrab.Expr.Lt
  | Nrab.Expr.Ge -> Nrab.Expr.Le
  | (Nrab.Expr.Eq | Nrab.Expr.Neq) as c -> c

(* A column against a literal on its right, with [Expr.compare_values]
   semantics. *)
let cmp_lit (c : Nrab.Expr.cmp) (a : col) (k : Value.t) n : Bitv.t =
  let test = cmp_test c in
  match (a, k) with
  | CNull _, _ -> Bitv.create n false
  | CInt (xa, pa), Value.Int k -> Bitv.init n (fun i -> present pa i && test (compare xa.(i) k))
  | CFloat (xa, pa), Value.Float k ->
    Bitv.init n (fun i -> present pa i && test (compare xa.(i) k))
  | CInt (xa, pa), Value.Float k ->
    Bitv.init n (fun i -> present pa i && test (compare (float_of_int xa.(i)) k))
  | CFloat (xa, pa), Value.Int k ->
    Bitv.init n (fun i -> present pa i && test (compare xa.(i) (float_of_int k)))
  | CStr (xa, pa), Value.String s -> (
    match c with
    | Nrab.Expr.Eq | Nrab.Expr.Neq ->
      let kc, _ = Dict.intern_hit s in
      Bitv.init n (fun i -> present pa i && test (if xa.(i) = kc then 0 else 1))
    | _ ->
      Bitv.init n (fun i -> present pa i && test (String.compare (Dict.lookup xa.(i)) s)))
  | _ ->
    (* Mixed kinds: [eval_cmp] on each reconstructed cell. *)
    Bitv.init n (fun i -> Nrab.Expr.eval_cmp c (col_get a i) k)

(* Two columns compared row by row, with [Expr.compare_values]
   semantics. *)
let cmp_cols (c : Nrab.Expr.cmp) (a : col) (b : col) n : Bitv.t =
  let test = cmp_test c in
  match (a, b) with
  | CNull _, _ | _, CNull _ -> Bitv.create n false
  | CInt (xa, pa), CInt (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i && test (compare xa.(i) xb.(i)))
  | CFloat (xa, pa), CFloat (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i && test (compare xa.(i) xb.(i)))
  | CInt (xa, pa), CFloat (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i
        && test (compare (float_of_int xa.(i)) xb.(i)))
  | CFloat (xa, pa), CInt (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i
        && test (compare xa.(i) (float_of_int xb.(i))))
  | CStr (xa, pa), CStr (xb, pb) -> (
    match c with
    | Nrab.Expr.Eq | Nrab.Expr.Neq ->
      Bitv.init n (fun i ->
          present pa i && present pb i
          && test (if xa.(i) = xb.(i) then 0 else 1))
    | _ ->
      Bitv.init n (fun i ->
          present pa i && present pb i
          && test (String.compare (Dict.lookup xa.(i)) (Dict.lookup xb.(i)))))
  | CBool (xa, pa), CBool (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i
        && test (compare (Bitv.get xa i) (Bitv.get xb i)))
  | _ ->
    (* Generic (exotic or mixed kinds): per-row comparison on
       reconstructed values; [eval_cmp] is the row semantics. *)
    let va = col_values a and vb = col_values b in
    Bitv.init n (fun i -> Nrab.Expr.eval_cmp c va.(i) vb.(i))

(* A literal on the left compares with the sign flipped, and two
   literals compare once. *)
let cmp_mask (c : Nrab.Expr.cmp) (a : operand) (b : operand) n : Bitv.t =
  match (a, b) with
  | Lit x, Lit y -> Bitv.create n (Nrab.Expr.eval_cmp c x y)
  | Col a, Lit k -> cmp_lit c a k n
  | Lit k, Col b -> cmp_lit (flip c) b k n
  | Col a, Col b -> cmp_cols c a b n

let rec pred_mask (t : t) (p : Nrab.Expr.pred) : Bitv.t =
  match p with
  | Nrab.Expr.True -> Bitv.create t.n true
  | Nrab.Expr.False -> Bitv.create t.n false
  | Nrab.Expr.Cmp (c, a, b) -> cmp_mask c (operand t a) (operand t b) t.n
  | Nrab.Expr.And (a, b) -> Bitv.logand (pred_mask t a) (pred_mask t b)
  | Nrab.Expr.Or (a, b) -> Bitv.logor (pred_mask t a) (pred_mask t b)
  | Nrab.Expr.Not p -> Bitv.lognot (pred_mask t p)
  | Nrab.Expr.IsNull e -> (
    match null_mask (eval_col t e) with
    | None -> Bitv.create t.n false
    | Some m -> m)
  | Nrab.Expr.IsNotNull e -> (
    match null_mask (eval_col t e) with
    | None -> Bitv.create t.n true
    | Some m -> Bitv.lognot m)
  | Nrab.Expr.Contains (e, s) -> (
    match eval_col t e with
    | CStr (a, p) ->
      (* One skip table per batch; the last code's answer is kept, for
         the runs of one text a flatten leaves in adjacent rows. *)
      let found = Nrab.Expr.string_contains ~needle:s in
      let last = ref (-1) and last_found = ref false in
      Bitv.init t.n (fun i ->
          present p i
          &&
          let c = a.(i) in
          if c <> !last then begin
            last := c;
            last_found := found (Dict.lookup c)
          end;
          !last_found)
    | _ -> Bitv.create t.n false)

let eval_pred_mask (t : t) (p : Nrab.Expr.pred) : Bitv.t =
  note_rows_scanned t.n;
  try pred_mask t p
  with Division_by_zero | Nrab.Expr.Eval_error _ ->
    (* Per-row fallback reproduces short-circuit evaluation exactly,
       including which exceptions (if any) escape. *)
    Bitv.init t.n (fun i -> Nrab.Expr.eval_pred (get_row t i) p)

(* ------------------------------------------------------------------ *)
(* Relation -> batch cache                                             *)
(* ------------------------------------------------------------------ *)

(* Tables are re-scanned once per alternative query; cache the columnar
   build keyed by the relation's physical identity (relations are
   immutable values shared across scans). *)
let rel_cache : (Relation.t * t) list ref = ref []
let rel_cache_mu = Mutex.create ()
let rel_cache_cap = 32

let of_relation (r : Relation.t) : t =
  Mutex.protect rel_cache_mu (fun () ->
      match List.find_opt (fun (r', _) -> r' == r) !rel_cache with
      | Some (_, b) -> b
      | None ->
        let b = of_rows (Relation.tuples r) in
        let keep =
          if List.length !rel_cache >= rel_cache_cap then
            List.filteri (fun i _ -> i < rel_cache_cap - 1) !rel_cache
          else !rel_cache
        in
        rel_cache := (r, b) :: keep;
        b)
