(* Columnar arena representation of nested-value batches.

   A batch stores rows struct-of-arrays: flat typed arrays for
   primitive columns, per-row element ranges into a shared element store
   for nested bags, one global
   hash-consed dictionary for strings, and packed presence bitmaps for
   Null.  [of_values]/[to_values] are exact inverses on arbitrary
   [Value.t] rows — canonical bag order is preserved verbatim, never
   re-normalized — so the tree API remains the semantic boundary and
   row reconstruction can stay lazy.

   Columns whose rows disagree on shape (mixed primitive kinds,
   differing tuple labels) fall back to a boxed [CBox] column; every
   kernel keeps working, just row-at-a-time for that column. *)

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
(* Registered up front, so telemetry shows it at 0 until a batch falls
   back. *)
let m_row_fallbacks = Obs.Metrics.counter "engine.columnar.row_fallbacks"

let note_rows_scanned n =
  if n > 0 then Obs.Metrics.Counter.incr ~by:n m_rows_scanned

let note_bytes_moved n =
  if n > 0 then Obs.Metrics.Counter.incr ~by:n m_bytes_moved

let note_row_fallback () = Obs.Metrics.Counter.incr m_row_fallbacks

(* ------------------------------------------------------------------ *)
(* Global string dictionary (hash-consed)                              *)
(* ------------------------------------------------------------------ *)

let string_hash (s : string) : int =
  let h = ref 5381 in
  for i = 0 to String.length s - 1 do
    h := (!h * 33) + Char.code (String.unsafe_get s i)
  done;
  !h

(* The stable per-value hash behind {!Dataset.value_hash}; [hash_col]
   vectorizes it, so a shuffle lands each row on the partition its
   value hashes to. *)
let rec value_hash (v : Value.t) : int =
  match v with
  | Value.Null -> 17
  | Value.Bool b -> if b then 31 else 37
  | Value.Int i -> i * 2654435761
  | Value.Float f -> Int64.to_int (Int64.bits_of_float f) * 2654435761
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
  | CConst of int * Value.t  (** [n] copies of one non-Null value *)
  | CBool of Bitv.t * Bitv.t option
  | CInt of int array * Bitv.t option
  | CFloat of float array * Bitv.t option
  | CStr of int array * Bitv.t option  (** global dictionary codes *)
  | CTuple of int * (string * col) list * Bitv.t option
  | CBag of bag
  | CBox of Value.t array  (** fallback for shape-mixed columns *)

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
  | CNull n | CConst (n, _) | CTuple (n, _, _) -> n
  | CBool (b, _) -> Bitv.length b
  | CInt (a, _) -> Array.length a
  | CFloat (a, _) -> Array.length a
  | CStr (a, _) -> Array.length a
  | CBag b -> b.bn
  | CBox a -> Array.length a

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
  | SMixed

let rec shape_join a b =
  match (a, b) with
  | SBot, s | s, SBot -> s
  | SNull, s | s, SNull -> s
  | SBool, SBool -> SBool
  | SInt, SInt -> SInt
  | SFloat, SFloat -> SFloat
  | SStr, SStr -> SStr
  | STuple fa, STuple fb ->
    if
      List.length fa = List.length fb
      && List.for_all2 (fun (la, _) (lb, _) -> String.equal la lb) fa fb
    then STuple (List.map2 (fun (l, sa) (_, sb) -> (l, shape_join sa sb)) fa fb)
    else SMixed
  | SBag ea, SBag eb -> SBag (shape_join ea eb)
  | _ -> SMixed

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
  | SMixed, _ -> SMixed
  | _, Value.Null -> ( match acc with SBot -> SNull | s -> s)
  | (SBot | SNull), _ -> shape_of v
  | SBool, Value.Bool _ -> acc
  | SInt, Value.Int _ -> acc
  | SFloat, Value.Float _ -> acc
  | SStr, Value.String _ -> acc
  | STuple fs, Value.Tuple vfs ->
    if
      List.length fs = List.length vfs
      && List.for_all2 (fun (l, _) (l', _) -> String.equal l l') fs vfs
    then begin
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
    end
    else SMixed
  | SBag es, Value.Bag elems ->
    let es' =
      List.fold_left (fun a (e, _) -> shape_join_value a e) es elems
    in
    if es' != es then SBag es' else acc
  | _ -> SMixed

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
  | SMixed -> CBox vs
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
  | CConst (n, v) -> Array.make n v
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
  | CBox a -> a

let to_values t = col_values t.row
let to_rows t = Array.to_list (to_values t)

let rec col_get (c : col) (i : int) : Value.t =
  match c with
  | CNull _ -> Value.Null
  | CConst (_, v) -> v
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
  | CBox a -> a.(i)

let get_row t i = col_get t.row i

(* Compare the values two cells of one column would reconstruct to,
   without building them.  Must order exactly like [Value.compare] on
   [col_get c i] vs [col_get c j]; the constructor ranks below follow
   [Value.t]'s declaration order. *)
let value_rank : Value.t -> int = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float _ -> 3
  | Value.String _ -> 4
  | Value.Tuple _ -> 5
  | Value.Bag _ -> 6

let cell_rank (c : col) (i : int) : int =
  match c with
  | CNull _ -> 0
  | CConst (_, v) -> value_rank v
  | CBool (_, p) -> if present p i then 1 else 0
  | CInt (_, p) -> if present p i then 2 else 0
  | CFloat (_, p) -> if present p i then 3 else 0
  | CStr (_, p) -> if present p i then 4 else 0
  | CTuple (_, _, p) -> if present p i then 5 else 0
  | CBag bg -> if present bg.bpresent i then 6 else 0
  | CBox a -> value_rank a.(i)

let rec cmp_cells (c : col) (i : int) (j : int) : int =
  match c with
  | CNull _ | CConst _ -> 0
  | CBox a -> Value.compare a.(i) a.(j)
  | _ ->
    let ri = cell_rank c i and rj = cell_rank c j in
    if ri <> rj then Stdlib.compare ri rj
    else if ri = 0 then 0
    else begin
      match c with
      | CBool (b, _) -> Stdlib.compare (Bitv.get b i) (Bitv.get b j)
      | CInt (a, _) -> Stdlib.compare a.(i) a.(j)
      | CFloat (a, _) -> Stdlib.compare a.(i) a.(j)
      | CStr (a, _) -> String.compare (Dict.lookup a.(i)) (Dict.lookup a.(j))
      | CTuple (_, fields, _) ->
        (* Both rows reconstruct with the same labels in the same order,
           so [Value.compare_fields] reduces to field-wise comparison. *)
        let rec go = function
          | [] -> 0
          | (_, fc) :: rest ->
            let c = cmp_cells fc i j in
            if c <> 0 then c else go rest
        in
        go fields
      | CBag bg ->
        (* Stored contents are canonical, so bag comparison is
           lexicographic over (element, multiplicity) pairs. *)
        let rec go u v =
          let endu = u >= bg.bstop.(i) and endv = v >= bg.bstop.(j) in
          if endu && endv then 0
          else if endu then -1
          else if endv then 1
          else
            let c = cmp_cells bg.belems u v in
            if c <> 0 then c
            else
              let c = Stdlib.compare bg.bmult.(u) bg.bmult.(v) in
              if c <> 0 then c else go (u + 1) (v + 1)
        in
        go bg.bstart.(i) bg.bstart.(j)
      | CNull _ | CConst _ | CBox _ -> 0
    end

let cmp_rows (t : t) (i : int) (j : int) : int = cmp_cells t.row i j

(* [Value.equal (col_get c i) v] without building row [i]: the cell is
   walked against [v] the way [cmp_cells] walks two cells, and the
   helpers are top-level so the walk allocates nothing. *)
let rec equal_value (c : col) (i : int) (v : Value.t) : bool =
  match c, v with
  | CConst (_, w), _ -> Value.equal w v
  | CBox a, _ -> Value.equal a.(i) v
  | _, Value.Null -> cell_rank c i = 0
  | CBool (b, p), Value.Bool x -> present p i && Bool.equal (Bitv.get b i) x
  | CInt (a, p), Value.Int x -> present p i && Int.equal a.(i) x
  | CFloat (a, p), Value.Float x -> present p i && Float.compare a.(i) x = 0
  | CStr (a, p), Value.String s ->
    present p i && String.equal (Dict.lookup a.(i)) s
  | CTuple (_, fields, p), Value.Tuple vfs ->
    present p i && equal_fields fields i vfs
  | CBag bg, Value.Bag es ->
    present bg.bpresent i && equal_elems bg bg.bstart.(i) bg.bstop.(i) es
  | _ -> false

and equal_fields fields i vfs =
  match fields, vfs with
  | [], [] -> true
  | (l, fc) :: fields, (l', fv) :: vfs ->
    String.equal l l' && equal_value fc i fv && equal_fields fields i vfs
  | _ -> false

(* Stored bag contents are canonical and [Value.compare] compares bags
   as lists, so the stored pairs are matched against [es] in order. *)
and equal_elems bg j hi es =
  match es with
  | [] -> j >= hi
  | (e, m) :: es ->
    j < hi
    && Int.equal bg.bmult.(j) m
    && equal_value bg.belems j e
    && equal_elems bg (j + 1) hi es

(* [col_get a i = col_get b j] under OCaml's structural equality, where
   [nan] differs from itself and [0.0] equals [-0.0], without building
   either value.  The columns may differ in representation (one may be
   all Null); constant and boxed columns compare their values. *)
let rec cells_equal (a : col) (i : int) (b : col) (j : int) : bool =
  match a, b with
  | (CConst _ | CBox _), _ | _, (CConst _ | CBox _) -> col_get a i = col_get b j
  | _ -> (
    let r = cell_rank a i in
    r = cell_rank b j
    && (r = 0
       ||
       match a, b with
       | CBool (x, _), CBool (y, _) -> Bool.equal (Bitv.get x i) (Bitv.get y j)
       | CInt (x, _), CInt (y, _) -> Int.equal x.(i) y.(j)
       | CFloat (x, _), CFloat (y, _) -> (x.(i) : float) = y.(j)
       | CStr (x, _), CStr (y, _) -> Int.equal x.(i) y.(j)
       | CTuple (_, fa, _), CTuple (_, fb, _) ->
         List.compare_lengths fa fb = 0
         && List.for_all2
              (fun (la, ca) (lb, cb) -> String.equal la lb && cells_equal ca i cb j)
              fa fb
       | CBag x, CBag y ->
         let len = x.bstop.(i) - x.bstart.(i) in
         len = y.bstop.(j) - y.bstart.(j)
         && equal_ranges x x.bstart.(i) y y.bstart.(j) len
       | _ -> false))

and equal_ranges x u y v len =
  len = 0
  || Int.equal x.bmult.(u) y.bmult.(v)
     && cells_equal x.belems u y.belems v
     && equal_ranges x (u + 1) y (v + 1) (len - 1)

(* ------------------------------------------------------------------ *)
(* Tuple-structure access                                              *)
(* ------------------------------------------------------------------ *)

let cols t =
  match t.row with
  | CTuple (_, fields, None) -> Some fields
  | CNull 0 -> Some []
  | _ -> None

let find_col t name =
  match t.row with
  | CTuple (_, fields, None) -> List.assoc_opt name fields
  | _ -> None

let of_cols n (fields : (string * col) list) : t =
  { n; row = CTuple (n, fields, None) }

(* ------------------------------------------------------------------ *)
(* Size accounting                                                     *)
(* ------------------------------------------------------------------ *)

let rec value_bytes (v : Value.t) : int =
  match v with
  | Value.Null | Value.Bool _ | Value.Int _ | Value.Float _ -> 8
  | Value.String s -> 24 + String.length s
  | Value.Tuple fs ->
    List.fold_left (fun acc (l, fv) -> acc + 24 + String.length l + value_bytes fv) 8 fs
  | Value.Bag es ->
    List.fold_left (fun acc (e, _) -> acc + 24 + value_bytes e) 8 es

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
  | CConst (_, v) -> 16 + value_bytes v
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
  | CBox a -> Array.fold_left (fun acc v -> acc + value_bytes v) 0 a

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
  | CConst (_, v) -> CConst (m, v)
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
  | CBox a -> CBox (Array.init m (fun j -> a.(idx.(j))))

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

(* Row-wise tuple concatenation.  The fast path concatenates column
   lists; anything irregular falls back to per-row
   [Value.concat_tuples], which also raises its exception on non-tuple
   rows. *)
let hstack a b =
  if a.n <> b.n then invalid_arg "Columnar.hstack: length mismatch";
  match (a.row, b.row) with
  | CTuple (_, fa, None), CTuple (_, fb, None) ->
    { n = a.n; row = CTuple (a.n, fa @ fb, None) }
  | _ ->
    let va = to_values a and vb = to_values b in
    of_values (Array.init a.n (fun i -> Value.concat_tuples va.(i) vb.(i)))

let rec col_shape (c : col) : shape =
  match c with
  | CNull _ -> SNull
  | CConst (_, v) -> shape_of v
  | CBool _ -> SBool
  | CInt _ -> SInt
  | CFloat _ -> SFloat
  | CStr _ -> SStr
  | CTuple (_, fields, _) ->
    STuple (List.map (fun (l, c) -> (l, col_shape c)) fields)
  | CBag bg -> SBag (col_shape bg.belems)
  | CBox a -> if Array.length a = 0 then SBot else SMixed

(* Concatenate columns after unifying on a target shape.  Falls back to
   materialize-and-rebuild when the shapes genuinely disagree. *)
let vstack (ts : t list) : t =
  match ts with
  | [] -> { n = 0; row = CNull 0 }
  | [ t ] -> t
  | _ ->
    let sh =
      List.fold_left (fun acc t -> shape_join acc (col_shape t.row)) SBot ts
    in
    let n = List.fold_left (fun acc t -> acc + t.n) 0 ts in
    (* Splice pieces without materializing rows whenever every piece is
       either the target constructor, an all-Null block, or a constant
       block: Null pieces become presence bits, constant pieces become
       array fills.  Only genuinely shape-mixed inputs still round-trip
       through [build_col]. *)
    let rec concat sh (cs : col list) total : col =
      match sh with
      | SBot | SNull -> CNull total
      | SMixed -> CBox (Array.concat (List.map col_values cs))
      | _ -> (
        let vals = lazy (Array.concat (List.map col_values cs)) in
        (* Shared presence accumulator over the spliced rows. *)
        let pres = ref None in
        let mark_absent idx =
          (match !pres with
          | None -> pres := Some (Bitv.create total true)
          | Some _ -> ());
          Bitv.set (Option.get !pres) idx false
        in
        let splice_presence off len = function
          | None -> ()
          | Some b ->
            for i = 0 to len - 1 do
              if not (Bitv.get b i) then mark_absent (off + i)
            done
        in
        match sh with
        | STuple fields
          when List.for_all
                 (function
                   | CTuple (_, fs, _) ->
                     List.length fs = List.length fields
                     && List.for_all2
                          (fun (l, _) (l', _) -> String.equal l l')
                          fs fields
                   | CNull _ -> true
                   | CConst (_, Value.Tuple fs) ->
                     List.length fs = List.length fields
                     && List.for_all2
                          (fun (l, _) (l', _) -> String.equal l l')
                          fs fields
                   | _ -> false)
                 cs ->
          let fields' =
            List.mapi
              (fun j (l, fsh) ->
                ( l,
                  concat fsh
                    (List.map
                       (function
                         | CTuple (_, fs, _) -> snd (List.nth fs j)
                         | CNull k -> CNull k
                         | CConst (k, Value.Tuple fs) -> (
                           match snd (List.nth fs j) with
                           | Value.Null -> CNull k
                           | fv -> CConst (k, fv))
                         | _ -> assert false)
                       cs)
                    total ))
              fields
          in
          let off = ref 0 in
          List.iter
            (fun c ->
              (match c with
              | CTuple (_, _, p) -> splice_presence !off (col_length c) p
              | CNull k ->
                for i = 0 to k - 1 do
                  mark_absent (!off + i)
                done
              | CConst _ -> ()
              | _ -> assert false);
              off := !off + col_length c)
            cs;
          CTuple (total, fields', !pres)
        | SBool
          when List.for_all
                 (function
                   | CBool _ | CNull _ | CConst (_, Value.Bool _) -> true
                   | _ -> false)
                 cs ->
          let bits = Bitv.create total false in
          let off = ref 0 in
          List.iter
            (fun c ->
              (match c with
              | CBool (b, p) ->
                let len = col_length c in
                for i = 0 to len - 1 do
                  if Bitv.get b i then Bitv.set bits (!off + i) true
                done;
                splice_presence !off len p
              | CNull k ->
                for i = 0 to k - 1 do
                  mark_absent (!off + i)
                done
              | CConst (k, Value.Bool x) ->
                if x then
                  for i = 0 to k - 1 do
                    Bitv.set bits (!off + i) true
                  done
              | _ -> assert false);
              off := !off + col_length c)
            cs;
          CBool (bits, !pres)
        | SInt
          when List.for_all
                 (function
                   | CInt _ | CNull _ | CConst (_, Value.Int _) -> true
                   | _ -> false)
                 cs ->
          let arr = Array.make total 0 in
          let off = ref 0 in
          List.iter
            (fun c ->
              (match c with
              | CInt (a, p) ->
                Array.blit a 0 arr !off (Array.length a);
                splice_presence !off (Array.length a) p
              | CNull k ->
                for i = 0 to k - 1 do
                  mark_absent (!off + i)
                done
              | CConst (k, Value.Int x) -> Array.fill arr !off k x
              | _ -> assert false);
              off := !off + col_length c)
            cs;
          CInt (arr, !pres)
        | SFloat
          when List.for_all
                 (function
                   | CFloat _ | CNull _ | CConst (_, Value.Float _) -> true
                   | _ -> false)
                 cs ->
          let arr = Array.make total 0.0 in
          let off = ref 0 in
          List.iter
            (fun c ->
              (match c with
              | CFloat (a, p) ->
                Array.blit a 0 arr !off (Array.length a);
                splice_presence !off (Array.length a) p
              | CNull k ->
                for i = 0 to k - 1 do
                  mark_absent (!off + i)
                done
              | CConst (k, Value.Float x) -> Array.fill arr !off k x
              | _ -> assert false);
              off := !off + col_length c)
            cs;
          CFloat (arr, !pres)
        | SStr
          when List.for_all
                 (function
                   | CStr _ | CNull _ | CConst (_, Value.String _) -> true
                   | _ -> false)
                 cs ->
          let arr = Array.make total 0 in
          let off = ref 0 in
          List.iter
            (fun c ->
              (match c with
              | CStr (a, p) ->
                Array.blit a 0 arr !off (Array.length a);
                splice_presence !off (Array.length a) p
              | CNull k ->
                for i = 0 to k - 1 do
                  mark_absent (!off + i)
                done
              | CConst (k, Value.String s) ->
                Array.fill arr !off k (Dict.intern s)
              | _ -> assert false);
              off := !off + col_length c)
            cs;
          CStr (arr, !pres)
        | SBag esh
          when List.for_all
                 (function CBag _ | CNull _ -> true | _ -> false)
                 cs ->
          (* Pieces that all share one store stack their ranges over it;
             otherwise each piece is compacted and the stores are
             concatenated, its ranges shifted by its store's offset. *)
          let bags = List.filter_map (function CBag bg -> Some bg | _ -> None) cs in
          let first = List.hd bags in
          let shared =
            List.for_all
              (fun bg -> bg.belems == first.belems && bg.bmult == first.bmult)
              bags
          in
          let bstart = Array.make total 0 and bstop = Array.make total 0 in
          let row = ref 0 and base = ref 0 and stores = ref [] in
          List.iter
            (fun c ->
              match c with
              | CBag bg ->
                let bg = if shared then bg else compact_bag bg in
                for i = 0 to bg.bn - 1 do
                  bstart.(!row + i) <- !base + bg.bstart.(i);
                  bstop.(!row + i) <- !base + bg.bstop.(i)
                done;
                splice_presence !row bg.bn bg.bpresent;
                if not shared then begin
                  stores := bg :: !stores;
                  base := !base + Array.length bg.bmult
                end;
                row := !row + bg.bn
              | CNull k ->
                for i = 0 to k - 1 do
                  mark_absent (!row + i)
                done;
                row := !row + k
              | _ -> assert false)
            cs;
          if shared then
            CBag { first with bn = total; bstart; bstop; bpresent = !pres }
          else begin
            let stores = List.rev !stores in
            CBag
              {
                bn = total;
                bstart;
                bstop;
                bmult = Array.concat (List.map (fun bg -> bg.bmult) stores);
                belems = concat esh (List.map (fun bg -> bg.belems) stores) !base;
                bpresent = !pres;
              }
          end
        | _ -> build_col sh (Lazy.force vals))
    in
    { n; row = concat sh (List.map (fun t -> t.row) ts) n }

let empty = { n = 0; row = CNull 0 }
let broadcast n (v : Value.t) : t =
  match v with
  | Value.Null -> { n; row = CNull n }
  | Value.Tuple fs ->
    (* Per-field constant columns keep [hstack]/[vstack] on their
       column fast paths (join/flatten pads broadcast null tuples). *)
    { n;
      row =
        CTuple
          ( n,
            List.map
              (fun (l, fv) ->
                ( l,
                  match fv with
                  | Value.Null -> CNull n
                  | _ -> CConst (n, fv) ))
              fs,
            None );
    }
  | _ -> { n; row = CConst (n, v) }

(* ------------------------------------------------------------------ *)
(* Null masks                                                          *)
(* ------------------------------------------------------------------ *)

(* [Some mask] marks the rows whose value is [Null]; [None] = no nulls. *)
let null_mask (c : col) : Bitv.t option =
  match c with
  | CNull n -> Some (Bitv.create n true)
  | CConst (n, v) ->
    if v = Value.Null then Some (Bitv.create n true) else None
  | CBool (_, p) | CInt (_, p) | CFloat (_, p) | CStr (_, p)
  | CTuple (_, _, p) ->
    Option.map Bitv.lognot p
  | CBag bg -> Option.map Bitv.lognot bg.bpresent
  | CBox a ->
    let m = Bitv.init (Array.length a) (fun i -> a.(i) = Value.Null) in
    if Bitv.count m = 0 then None else Some m

(* The field columns of a tuple column, with its presence bitmap pushed
   into each field: a [Null] tuple reads [Null] in every field, which is
   what flattening it next to its row must produce.  Fields that cannot
   carry presence ([CConst], [CBox]) make the whole push fail. *)
let tuple_fields (c : col) : (string * col) list option =
  match c with
  | CTuple (_, fields, None) -> Some fields
  | CTuple (_, fields, Some p) ->
    let absent q = Some (match q with None -> p | Some q -> Bitv.logand p q) in
    let push = function
      | CNull _ as f -> Some f
      | CBool (b, q) -> Some (CBool (b, absent q))
      | CInt (a, q) -> Some (CInt (a, absent q))
      | CFloat (a, q) -> Some (CFloat (a, absent q))
      | CStr (a, q) -> Some (CStr (a, absent q))
      | CTuple (n, fs, q) -> Some (CTuple (n, fs, absent q))
      | CBag bg -> Some (CBag { bg with bpresent = absent bg.bpresent })
      | CConst _ | CBox _ -> None
    in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | (l, f) :: rest -> (
        match push f with Some f -> go ((l, f) :: acc) rest | None -> None)
    in
    go [] fields
  | _ -> None

(* The right-hand side of a tuple flatten, column-wise: the fields of a
   [CTuple] whose labels are the type's, or the type's null tuple
   broadcast over an all-Null column. *)
let flatten_tuple (inner_ty : Vtype.t) (c : col) : t option =
  let n = col_length c in
  match c, inner_ty with
  | CNull _, _ -> Some (broadcast n (Vtype.null_tuple inner_ty))
  | _, Vtype.TTuple tys -> (
    match tuple_fields c with
    | Some fields
      when List.equal String.equal (List.map fst fields) (List.map fst tys) ->
      Some (of_cols n fields)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Value coding (exact grouping / join keys)                           *)
(* ------------------------------------------------------------------ *)

module Coder = struct
  (* Codes are hash-consed integers: two values get the same code iff
     they are structurally equal (the same equivalence generic
     [Hashtbl] grouping on rows uses).  Tuples and bags fold their
     member codes through a pair-interning table, so coding a column is
     linear in its flattened size. *)

  type coder = {
    mutable next : int;
    ints : (int, int) Hashtbl.t;
    floats : (float, int) Hashtbl.t;
    strs : (int, int) Hashtbl.t;  (* dict code -> code *)
    labels : (string, int) Hashtbl.t;
    pairs : (int * int, int) Hashtbl.t;
    boxed : (Value.t, int) Hashtbl.t;
  }

  type t = coder

  let null_code = 0
  let false_code = 1
  let true_code = 2
  let tup_tag = 3
  let bag_tag = 4

  let create () =
    {
      next = 5;
      ints = Hashtbl.create 64;
      floats = Hashtbl.create 16;
      strs = Hashtbl.create 64;
      labels = Hashtbl.create 16;
      pairs = Hashtbl.create 256;
      boxed = Hashtbl.create 16;
    }

  let fresh t =
    let c = t.next in
    t.next <- c + 1;
    c

  let via : 'a. coder -> ('a, int) Hashtbl.t -> 'a -> int =
   fun t tbl k ->
    match Hashtbl.find_opt tbl k with
    | Some c -> c
    | None ->
      let c = fresh t in
      Hashtbl.add tbl k c;
      c

  let int_code t i = via t t.ints i
  let float_code t f = via t t.floats f
  let str_code t dcode = via t t.strs dcode
  let label_code t l = via t t.labels l
  let pair t a b = via t t.pairs (a, b)

  let rec value_code t (v : Value.t) : int =
    match v with
    | Value.Null -> null_code
    | Value.Bool false -> false_code
    | Value.Bool true -> true_code
    | Value.Int i -> int_code t i
    | Value.Float f -> float_code t f
    | Value.String s -> str_code t (Dict.intern s)
    | Value.Tuple fs ->
      List.fold_left
        (fun acc (l, fv) -> pair t acc (pair t (label_code t l) (value_code t fv)))
        tup_tag fs
    | Value.Bag es ->
      List.fold_left
        (fun acc (e, m) -> pair t acc (pair t (value_code t e) (int_code t m)))
        bag_tag es

  let rec col_codes t (c : col) : int array =
    match c with
    | CNull n -> Array.make n null_code
    | CConst (n, v) -> Array.make n (value_code t v)
    | CBool (b, p) ->
      Array.init (Bitv.length b) (fun i ->
          if not (present p i) then null_code
          else if Bitv.get b i then true_code
          else false_code)
    | CInt (a, p) ->
      Array.init (Array.length a) (fun i ->
          if present p i then int_code t a.(i) else null_code)
    | CFloat (a, p) ->
      Array.init (Array.length a) (fun i ->
          if present p i then float_code t a.(i) else null_code)
    | CStr (a, p) ->
      Array.init (Array.length a) (fun i ->
          if present p i then str_code t a.(i) else null_code)
    | CTuple (n, fields, p) ->
      let fcodes =
        List.map (fun (l, c) -> (label_code t l, col_codes t c)) fields
      in
      Array.init n (fun i ->
          if present p i then
            List.fold_left
              (fun acc (lc, cs) -> pair t acc (pair t lc cs.(i)))
              tup_tag fcodes
          else null_code)
    | CBag bg ->
      let ecodes = col_codes t bg.belems in
      Array.init bg.bn (fun i ->
          if present bg.bpresent i then begin
            let acc = ref bag_tag in
            for j = bg.bstart.(i) to bg.bstop.(i) - 1 do
              acc := pair t !acc (pair t ecodes.(j) (int_code t bg.bmult.(j)))
            done;
            !acc
          end
          else null_code)
    | CBox a -> Array.map (value_code t) a

  (* Combine per-column code arrays into one code per row (order
     sensitive, like an unlabelled tuple). *)
  let mix t (cols : int array list) : int array =
    match cols with
    | [] -> [||]
    | first :: rest ->
      let n = Array.length first in
      let acc = Array.init n (fun i -> pair t tup_tag first.(i)) in
      List.iter
        (fun cs ->
          for i = 0 to n - 1 do
            acc.(i) <- pair t acc.(i) cs.(i)
          done)
        rest;
      acc

end

let row_codes (coder : Coder.t) (t : t) : int array =
  Coder.col_codes coder t.row

(* ------------------------------------------------------------------ *)
(* Vectorized hash (shuffle destinations)                              *)
(* ------------------------------------------------------------------ *)

let rec hash_col (c : col) : int array =
  match c with
  | CNull n -> Array.make n 17
  | CConst (n, v) -> Array.make n (value_hash v)
  | CBool (b, p) ->
    Array.init (Bitv.length b) (fun i ->
        if not (present p i) then 17 else if Bitv.get b i then 31 else 37)
  | CInt (a, p) ->
    Array.init (Array.length a) (fun i ->
        if present p i then a.(i) * 2654435761 else 17)
  | CFloat (a, p) ->
    Array.init (Array.length a) (fun i ->
        if present p i then
          Int64.to_int (Int64.bits_of_float a.(i)) * 2654435761
        else 17)
  | CStr (a, p) ->
    Array.init (Array.length a) (fun i ->
        if present p i then Dict.hash a.(i) else 17)
  | CTuple (n, fields, p) ->
    let fhashes =
      List.map
        (fun (l, c) -> (string_hash l, hash_col c))
        fields
    in
    Array.init n (fun i ->
        if present p i then
          List.fold_left
            (fun acc (lh, hs) -> (acc * 31) + lh + hs.(i))
            7 fhashes
        else 17)
  | CBag bg ->
    let ehashes = hash_col bg.belems in
    Array.init bg.bn (fun i ->
        if present bg.bpresent i then begin
          let acc = ref 11 in
          for j = bg.bstart.(i) to bg.bstop.(i) - 1 do
            acc := !acc + (ehashes.(j) * bg.bmult.(j))
          done;
          !acc
        end
        else 17)
  | CBox a -> Array.map value_hash a

(* Equivalence classes of rows: [result.(i)] is the smallest row whose
   [key] equals row [i]'s and that [same] accepts as equal to it.  Open
   addressing over a power-of-two table at most half full: each slot
   holds a key and the first row that had it, and a probe passes over
   the slots of other classes. *)
let classes (n : int) (key : int -> int) (same : int -> int -> bool) : int array =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let keys = Array.make !cap 0 and first = Array.make !cap (-1) in
  let cls = Array.make n 0 in
  for i = 0 to n - 1 do
    let k = key i in
    let x = k * 0x2545F4914F6CDD1D in
    let s = ref ((x lxor (x lsr 32)) land mask) in
    while first.(!s) >= 0 && not (keys.(!s) = k && same first.(!s) i) do
      s := (!s + 1) land mask
    done;
    if first.(!s) < 0 then begin
      keys.(!s) <- k;
      first.(!s) <- i;
      cls.(i) <- i
    end
    else cls.(i) <- first.(!s)
  done;
  cls

(* Over a single integer key per row that is already a structural
   equality witness (dict codes, raw ints). *)
let eqclasses_codes (n : int) (key : int -> int) : int array =
  classes n key (fun _ _ -> true)

(* Over several columns: the key is a hash of the row's cells, and
   candidates are verified with [cmp_cells], so classes are exact (class
   equality iff structural row equality). *)
let eqclasses_general (n : int) (cs : col list) : int array =
  let h = Array.make n 0 in
  List.iter
    (fun c ->
      let ha = hash_col c in
      for i = 0 to n - 1 do
        h.(i) <- (h.(i) * 31) + ha.(i)
      done)
    cs;
  classes n (Array.get h) (fun r i -> List.for_all (fun c -> cmp_cells c r i = 0) cs)

let eqclasses (n : int) (cs : col list) : int array =
  match cs with
  (* Dict codes and raw ints are equality witnesses on their own; a
     presence bitmap folds in as a sentinel ([Null] = [Null]). *)
  | [ CStr (codes, None) ] -> eqclasses_codes n (fun i -> codes.(i))
  | [ CStr (codes, Some p) ] ->
    eqclasses_codes n (fun i -> if Bitv.get p i then codes.(i) else min_int)
  | [ CInt (a, None) ] -> eqclasses_codes n (fun i -> a.(i))
  | [ CInt (a, Some p) ] ->
    eqclasses_codes n (fun i -> if Bitv.get p i then a.(i) else min_int)
  | _ -> eqclasses_general n cs

(* One canonical bag per group of row indices of [b]: the members'
   distinct rows with merged multiplicities, sorted by [cmp_rows] — the
   contents [Value.bag_of_list] gives the members' rows.  [codes] come
   from [eqclasses] over [b]'s columns, so a code is the smallest row
   index of its class and doubles as the element's source row; every
   bag's elements come from one [gather] of [b]. *)
let canonical_bags (b : t) (codes : int array) (groups : int array array) :
    col =
  (* Multiplicities live in one [n]-sized scratch array, reset after
     each group. *)
  let mult_of = Array.make b.n 0 in
  let canon members =
    let distinct = ref [] in
    Array.iter
      (fun i ->
        let cd = codes.(i) in
        if mult_of.(cd) = 0 then distinct := cd :: !distinct;
        mult_of.(cd) <- mult_of.(cd) + 1)
      members;
    let ds = Array.of_list (List.rev !distinct) in
    Array.stable_sort (cmp_rows b) ds;
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

exception Fallback

(* Presence bitmap of a column ([None] = all rows present).  [CBox]
   callers must handle separately. *)
let col_presence (c : col) n : Bitv.t option =
  match c with
  | CNull _ -> Some (Bitv.create n false)
  | CConst (_, v) -> if v = Value.Null then Some (Bitv.create n false) else None
  | CBool (_, p) | CInt (_, p) | CFloat (_, p) | CStr (_, p)
  | CTuple (_, _, p) ->
    p
  | CBag bg -> bg.bpresent
  | CBox a ->
    let p = Bitv.init (Array.length a) (fun i -> a.(i) <> Value.Null) in
    if Bitv.for_all p then None else Some p

let num2 name fi ff (a : col) (b : col) n : col =
  (match (a, b) with CBox _, _ | _, CBox _ -> raise Fallback | _ -> ());
  let pa = col_presence a n and pb = col_presence b n in
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
    let view c =
      match c with
      | CInt (x, _) -> `I x
      | CFloat (x, _) -> `F x
      | CConst (_, Value.Int k) -> `CI k
      | CConst (_, Value.Float k) -> `CF k
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

let rec eval_col (t : t) (e : Nrab.Expr.t) : col =
  match e with
  | Nrab.Expr.Const v ->
    if v = Value.Null then CNull t.n else CConst (t.n, v)
  | Nrab.Expr.Attr a -> (
    match find_col t a with
    | Some c -> c
    | None -> (
      match t.row with
      | CTuple _ | CNull _ ->
        raise (Nrab.Expr.Eval_error ("unknown attribute " ^ a))
      | _ -> raise Fallback))
  | Nrab.Expr.Add (a, b) ->
    num2 "+" ( + ) ( +. ) (eval_col t a) (eval_col t b) t.n
  | Nrab.Expr.Sub (a, b) ->
    num2 "-" ( - ) ( -. ) (eval_col t a) (eval_col t b) t.n
  | Nrab.Expr.Mul (a, b) ->
    num2 "*" ( * ) ( *. ) (eval_col t a) (eval_col t b) t.n
  | Nrab.Expr.Div (a, b) ->
    num2 "/" ( / ) ( /. ) (eval_col t a) (eval_col t b) t.n

let eval_expr (t : t) (e : Nrab.Expr.t) : col =
  note_rows_scanned t.n;
  try eval_col t e
  with Fallback | Division_by_zero ->
    (* Exact per-row semantics (ordering of raises included). *)
    let vs = Array.init t.n (fun i -> Nrab.Expr.eval (get_row t i) e) in
    build_col (shape_of_values vs) vs

(* Comparison of two columns with [Expr.compare_values] semantics. *)
let cmp_mask (c : Nrab.Expr.cmp) (a : col) (b : col) n : Bitv.t =
  let test r =
    match c with
    | Nrab.Expr.Eq -> r = 0
    | Nrab.Expr.Neq -> r <> 0
    | Nrab.Expr.Lt -> r < 0
    | Nrab.Expr.Le -> r <= 0
    | Nrab.Expr.Gt -> r > 0
    | Nrab.Expr.Ge -> r >= 0
  in
  match (a, b) with
  | CNull _, _ | _, CNull _ -> Bitv.create n false
  | CInt (xa, pa), CInt (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i && test (compare xa.(i) xb.(i)))
  | CInt (xa, pa), CConst (_, Value.Int k) ->
    Bitv.init n (fun i -> present pa i && test (compare xa.(i) k))
  | CConst (_, Value.Int k), CInt (xb, pb) ->
    Bitv.init n (fun i -> present pb i && test (compare k xb.(i)))
  | CFloat (xa, pa), CFloat (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i && test (compare xa.(i) xb.(i)))
  | CFloat (xa, pa), CConst (_, Value.Float k) ->
    Bitv.init n (fun i -> present pa i && test (compare xa.(i) k))
  | CConst (_, Value.Float k), CFloat (xb, pb) ->
    Bitv.init n (fun i -> present pb i && test (compare k xb.(i)))
  | CInt (xa, pa), CFloat (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i
        && test (compare (float_of_int xa.(i)) xb.(i)))
  | CFloat (xa, pa), CInt (xb, pb) ->
    Bitv.init n (fun i ->
        present pa i && present pb i
        && test (compare xa.(i) (float_of_int xb.(i))))
  | CInt (xa, pa), CConst (_, Value.Float k) ->
    Bitv.init n (fun i ->
        present pa i && test (compare (float_of_int xa.(i)) k))
  | CFloat (xa, pa), CConst (_, Value.Int k) ->
    Bitv.init n (fun i ->
        present pa i && test (compare xa.(i) (float_of_int k)))
  | CStr (xa, pa), CConst (_, Value.String s) -> (
    match c with
    | Nrab.Expr.Eq | Nrab.Expr.Neq ->
      let kc, _ = Dict.intern_hit s in
      Bitv.init n (fun i ->
          present pa i && test (if xa.(i) = kc then 0 else 1))
    | _ ->
      Bitv.init n (fun i ->
          present pa i && test (String.compare (Dict.lookup xa.(i)) s)))
  | CConst (_, Value.String s), CStr (xb, pb) -> (
    match c with
    | Nrab.Expr.Eq | Nrab.Expr.Neq ->
      let kc, _ = Dict.intern_hit s in
      Bitv.init n (fun i ->
          present pb i && test (if xb.(i) = kc then 0 else 1))
    | _ ->
      Bitv.init n (fun i ->
          present pb i && test (String.compare s (Dict.lookup xb.(i)))))
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

let rec pred_mask (t : t) (p : Nrab.Expr.pred) : Bitv.t =
  match p with
  | Nrab.Expr.True -> Bitv.create t.n true
  | Nrab.Expr.False -> Bitv.create t.n false
  | Nrab.Expr.Cmp (c, a, b) -> cmp_mask c (eval_col t a) (eval_col t b) t.n
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
      let memo = Hashtbl.create 16 in
      Bitv.init t.n (fun i ->
          present p i
          &&
          match Hashtbl.find_opt memo a.(i) with
          | Some r -> r
          | None ->
            let r =
              Nrab.Expr.string_contains ~needle:s (Dict.lookup a.(i))
            in
            Hashtbl.add memo a.(i) r;
            r)
    | CConst (_, Value.String text) ->
      Bitv.create t.n (Nrab.Expr.string_contains ~needle:s text)
    | CBox a ->
      Bitv.init t.n (fun i ->
          match a.(i) with
          | Value.String text -> Nrab.Expr.string_contains ~needle:s text
          | _ -> false)
    | _ -> Bitv.create t.n false)

let eval_pred_mask (t : t) (p : Nrab.Expr.pred) : Bitv.t =
  note_rows_scanned t.n;
  try pred_mask t p
  with Fallback | Division_by_zero | Nrab.Expr.Eval_error _ ->
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
