(* Columnar boundary tests: the arena representation must be an exact
   inverse of the tree representation ([to_rows ∘ of_rows = id]), and
   the vectorized kernels must agree with their row-at-a-time
   counterparts on the engine zoo's awkward cases (empty partitions,
   all-Null join keys, empty bag stores). *)

open Nested
module C = Engine.Columnar
module K = Engine.Kernel

(* --- Generators ---------------------------------------------------- *)

(* A NaN with other bits than [nan]'s: [0.0 /. 0.0] computed at run
   time. *)
let computed_nan =
  let z = Sys.opaque_identity 0.0 in
  z /. z

(* A random type — primitives, tuples of one to three fields, bags — up
   to four levels deep. *)
let vtype_gen : Vtype.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_bound 16)
  @@ fix (fun self n ->
         let prim = oneofl Vtype.[ TBool; TInt; TFloat; TString ] in
         if n <= 0 then prim
         else
           frequency
             [
               (2, prim);
               ( 2,
                 map
                   (fun tys -> Vtype.TTuple (List.mapi (fun i t -> (Fmt.str "f%d" i, t)) tys))
                   (list_size (int_range 1 3) (self (n / 2))) );
               (2, map (fun t -> Vtype.TBag t) (self (n / 2)));
             ])

(* Values of [ty] biased toward the cases that stress the arena: Null
   at every level ([nulls] to 3 against a present value), empty bags,
   awkward floats and duplicate strings. *)
let rec value_of nulls (ty : Vtype.t) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let present =
    match ty with
    | Vtype.TBool -> map (fun b -> Value.Bool b) bool
    | Vtype.TInt -> map (fun i -> Value.Int i) small_signed_int
    | Vtype.TFloat ->
      frequency
        [
          (2, map (fun f -> Value.Float f) (float_bound_inclusive 100.));
          (* Floats [Value.equal] calls equal with other bits: 0.0 and
             -0.0, and NaNs of two payloads. *)
          ( 1,
            oneofl
              [ Value.Float 0.0; Value.Float (-0.0); Value.Float nan; Value.Float computed_nan ]
          );
        ]
    | Vtype.TString ->
      (* Tiny alphabet so duplicate strings hit the dictionary. *)
      map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'c') (return 2))
    | Vtype.TTuple fs ->
      map
        (fun vs -> Value.Tuple (List.combine (List.map fst fs) vs))
        (flatten_l (List.map (fun (_, t) -> value_of nulls t) fs))
    | Vtype.TBag t -> map Value.bag_of_list (list_size (int_range 0 4) (value_of nulls t))
  in
  if nulls = 0 then present else frequency [ (nulls, return Value.Null); (3, present) ]

(* A list of rows of the type [vtype_gen] picks, at a Null rate of its
   own; [rows_pair_gen] gives two lists of one type. *)
let rows_of nulls ty = QCheck.Gen.(list_size (int_range 0 12) (value_of nulls ty))
let rows_gen = QCheck.Gen.(vtype_gen >>= fun ty -> int_bound 3 >>= fun k -> rows_of k ty)

let rows_pair_gen =
  QCheck.Gen.(
    vtype_gen >>= fun ty -> int_bound 3 >>= fun k -> pair (rows_of k ty) (rows_of k ty))

let value_gen = QCheck.Gen.(vtype_gen >>= value_of 1)
let print_rows vs = Fmt.str "%a" (Fmt.Dump.list Value.pp) vs
let print_pair (xs, ys) = print_rows xs ^ " " ^ print_rows ys
let arb_rows = QCheck.make ~print:print_rows rows_gen
let arb_rows_pair = QCheck.make ~print:print_pair rows_pair_gen

(* Uniform tuple rows (the common relational case: typed columns), with
   a nullable float column of awkward values. *)
let arb_uniform_rows =
  let open QCheck.Gen in
  let x =
    oneofl
      Value.
        [ Float 0.0; Float (-0.0); Float nan; Float computed_nan; Float 1.0; Float 2.5; Null ]
  in
  let row =
    map4
      (fun i s b x ->
        Value.Tuple
          [
            ("id", Value.Int i);
            ("name", (match s with Some s -> Value.String s | None -> Value.Null));
            ("flag", Value.Bool b);
            ("x", x);
          ])
      small_signed_int
      (opt (string_size ~gen:(char_range 'a' 'c') (return 2)))
      bool x
  in
  QCheck.make
    ~print:(fun vs -> Fmt.str "%a" (Fmt.Dump.list Value.pp) vs)
    (list_size (int_range 0 20) row)

(* Batches in shapes [of_rows] never builds: constant columns
   ([broadcast]), stacked pieces, and presence bitmaps over cells that
   still hold values (a kernel's outer-join or flatten padding). *)
let with_presence (mask : C.Bitv.t) (c : C.col) : C.col =
  let p = Some mask in
  match c with
  | C.CBool (b, _) -> C.CBool (b, p)
  | C.CInt (a, _) -> C.CInt (a, p)
  | C.CFloat (a, _) -> C.CFloat (a, p)
  | C.CStr (a, _) -> C.CStr (a, p)
  | C.CTuple (n, fields, _) -> C.CTuple (n, fields, p)
  | C.CBag bg -> C.CBag { bg with C.bpresent = p }
  | C.CNull n -> C.CTuple (n, [ ("w", c) ], p)

let batch_gen : C.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* Typed float columns, where the float kernels run, with one label
   per batch and bags whose elements repeat. *)
  let float_rows =
    let f =
      oneofl
        Value.
          [ Float 0.0; Float (-0.0); Float nan; Float computed_nan; Float 1.5; Null ]
    in
    oneofl [ "x"; "z" ] >>= fun label ->
    list_size (int_range 0 8)
      (map3
         (fun x y k ->
           Value.Tuple [ (label, x); ("y", Value.bag_of_list (List.init k (fun _ -> y))) ])
         f f (int_range 1 2))
  in
  frequency
    [
      (2, map C.of_rows rows_gen);
      (2, map C.of_rows float_rows);
      (2, map (fun (xs, ys) -> C.vstack [ C.of_rows xs; C.of_rows ys ]) rows_pair_gen);
      (1, map2 (fun n v -> C.broadcast n v) (int_range 0 6) value_gen);
      ( 2,
        map2
          (fun xs bits ->
            let b = C.of_rows xs in
            let mask = C.Bitv.init b.C.n (fun i -> bits land (1 lsl i) = 0) in
            { b with C.row = with_presence mask b.C.row })
          rows_gen (int_bound 255) );
    ]

let arb_batch =
  QCheck.make
    ~print:(fun b -> Fmt.str "%a" (Fmt.Dump.list Value.pp) (C.to_rows b))
    batch_gen

(* --- Properties ---------------------------------------------------- *)

let eq_rows a b = List.length a = List.length b && List.for_all2 Value.equal a b

let prop_roundtrip =
  QCheck.Test.make ~name:"to_rows (of_rows rows) = rows" ~count:500 arb_rows
    (fun rows -> eq_rows (C.to_rows (C.of_rows rows)) rows)

(* Byte-identity is stronger than [Value.equal]: the reconstructed bags
   must keep canonical element order so printed output is identical. *)
let prop_roundtrip_printed =
  QCheck.Test.make ~name:"printed roundtrip is byte-identical" ~count:500
    arb_rows (fun rows ->
      let back = C.to_rows (C.of_rows rows) in
      List.for_all2
        (fun a b -> String.equal (Value.to_string a) (Value.to_string b))
        rows back)

let prop_get_row =
  QCheck.Test.make ~name:"get_row agrees with to_rows" ~count:200 arb_rows
    (fun rows ->
      let b = C.of_rows rows in
      List.for_all2 Value.equal
        (List.init (C.length b) (C.get_row b))
        (C.to_rows b))

let prop_gather =
  QCheck.Test.make ~name:"gather matches list indexing" ~count:200 arb_rows
    (fun rows ->
      let b = C.of_rows rows in
      let n = C.length b in
      QCheck.assume (n > 0);
      let arr = Array.of_list rows in
      let idx = Array.init n (fun i -> (i * 7) mod n) in
      eq_rows
        (C.to_rows (C.gather b idx))
        (Array.to_list (Array.map (fun i -> arr.(i)) idx)))

let prop_filter_mask =
  QCheck.Test.make ~name:"filter matches List.filteri" ~count:200 arb_rows
    (fun rows ->
      let b = C.of_rows rows in
      let mask = C.Bitv.init (C.length b) (fun i -> i mod 2 = 0) in
      eq_rows
        (C.to_rows (C.filter b mask))
        (List.filteri (fun i _ -> i mod 2 = 0) rows))

let prop_vstack =
  QCheck.Test.make ~name:"vstack = list append" ~count:200
    arb_rows_pair (fun (xs, ys) ->
      eq_rows
        (C.to_rows (C.vstack [ C.of_rows xs; C.of_rows ys ]))
        (xs @ ys))

let prop_hash =
  QCheck.Test.make ~name:"hash_col matches value_hash" ~count:200 arb_rows
    (fun rows ->
      let b = C.of_rows rows in
      let hs = C.hash_col b.C.row in
      List.for_all2
        (fun v h -> C.value_hash v = h)
        rows (Array.to_list hs))

let prop_hash_shapes =
  QCheck.Test.make ~name:"hash_col matches value_hash on every shape"
    ~count:300 arb_batch (fun b ->
      let hs = C.hash_col b.C.row in
      Array.length hs = b.C.n
      && List.for_all
           (fun i -> C.value_hash (C.get_row b i) = hs.(i))
           (List.init b.C.n Fun.id))

(* Equal values hash equally, so a hash bucket (a shuffle's partition,
   an [eqclasses] probe) never splits a class. *)
let prop_equal_hash =
  QCheck.Test.make ~name:"Value.equal implies equal value_hash" ~count:300
    QCheck.(pair arb_rows arb_rows)
    (fun (xs, ys) ->
      let all = xs @ ys in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> (not (Value.equal a b)) || C.value_hash a = C.value_hash b)
            all)
        all)

(* The classes over two stacked batches are the [Value.equal] classes
   across both: the join-key and bag-difference requirement (nan equals
   nan and 0.0 equals -0.0, as [Value.compare] has it). *)
let prop_codes =
  QCheck.Test.make ~name:"stacked eqclasses = Value.equal"
    ~count:200 arb_rows_pair (fun (xs, ys) ->
      let all = Array.of_list (xs @ ys) in
      let n = Array.length all in
      let b = C.vstack [ C.of_rows xs; C.of_rows ys ] in
      let cls = C.eqclasses n [ b.C.row ] in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> cls.(i) = cls.(j) = Value.equal all.(i) all.(j))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* Besides a few compound predicates, every comparison of every pair of
   operands drawn from the int, float and string columns and from
   literals: a literal on either side, Int literals against the float
   column and Float literals against the int one, NaN and -0.0 literals,
   a Null literal, strings, and literal against literal. *)
let prop_pred_mask =
  QCheck.Test.make ~name:"eval_pred_mask = per-row eval_pred" ~count:200
    arb_uniform_rows (fun rows ->
      let b = C.of_rows rows in
      let operands =
        Nrab.Expr.
          [
            attr "id"; attr "x"; attr "name"; int 3; int 1; flt 1.5; flt nan; flt (-0.0);
            Const Value.Null; str "ab";
          ]
      in
      let comparisons =
        List.concat_map
          (fun c ->
            List.concat_map
              (fun a -> List.map (fun b -> Nrab.Expr.Cmp (c, a, b)) operands)
              operands)
          Nrab.Expr.[ Eq; Neq; Lt; Le; Gt; Ge ]
      in
      let preds =
        let open Nrab.Expr.Infix in
        [
          Nrab.Expr.attr "id" > Nrab.Expr.int 3;
          Nrab.Expr.Contains (Nrab.Expr.attr "name", "a");
          Nrab.Expr.Contains (Nrab.Expr.str "abc", "bc");
          Nrab.Expr.IsNull (Nrab.Expr.attr "name");
          Nrab.Expr.IsNull (Nrab.Expr.int 1);
          Nrab.Expr.IsNotNull (Nrab.Expr.Const Value.Null);
          (Nrab.Expr.attr "id" >= Nrab.Expr.int 0)
          && Nrab.Expr.IsNotNull (Nrab.Expr.attr "name");
          Nrab.Expr.attr "name" = Nrab.Expr.str "aa";
          Nrab.Expr.attr "id" + Nrab.Expr.int 1 <= Nrab.Expr.int 10;
          Nrab.Expr.int 10 - Nrab.Expr.attr "id" < Nrab.Expr.flt 2.5;
          Nrab.Expr.attr "x" * Nrab.Expr.int 2 >= Nrab.Expr.attr "x";
          Nrab.Expr.int 1 + Nrab.Expr.int 2 = Nrab.Expr.attr "id";
        ]
        @ comparisons
      in
      List.for_all
        (fun p ->
          let mask = C.eval_pred_mask b p in
          List.for_all2
            (fun i row -> C.Bitv.get mask i = Nrab.Expr.eval_pred row p)
            (List.init (C.length b) Fun.id)
            rows)
        preds)

(* [Contains] over a string column: runs of one text (a flatten's
   repeats, the kernel's last-code memo), Nulls, and rows whose presence
   bit is off over a code, row by row against [eval_pred]. *)
let prop_pred_mask_contains =
  let letter = QCheck.Gen.oneofl [ 'a'; 'b' ] in
  QCheck.Test.make ~name:"Contains pred_mask = per-row eval_pred" ~count:300
    (QCheck.make
       ~print:(fun (runs, needle, bits) ->
         Fmt.str "%a %S %d"
           (Fmt.Dump.list (Fmt.Dump.pair (Fmt.Dump.option Fmt.Dump.string) Fmt.int))
           runs needle bits)
       QCheck.Gen.(
         triple
           (list_size (int_range 0 8)
              (pair (opt (string_size ~gen:letter (int_range 0 20))) (int_range 1 4)))
           (string_size ~gen:letter (int_range 0 4))
           int))
    (fun (runs, needle, bits) ->
      let rows =
        List.concat_map
          (fun (s, k) ->
            List.init k (fun _ ->
                Value.Tuple
                  [ ("t", match s with Some s -> Value.String s | None -> Value.Null) ]))
          runs
      in
      let b = C.of_rows rows in
      let b =
        match C.find_col b "t" with
        | Some (C.CStr (codes, None)) when bits land 1 = 1 ->
          let p = C.Bitv.init b.C.n (fun i -> (bits lsr (1 + (i mod 60))) land 1 = 0) in
          C.of_cols b.C.n [ ("t", C.CStr (codes, Some p)) ]
        | _ -> b
      in
      let p = Nrab.Expr.Contains (Nrab.Expr.attr "t", needle) in
      let mask = C.eval_pred_mask b p in
      List.for_all
        (fun i -> Bool.equal (C.Bitv.get mask i) (Nrab.Expr.eval_pred (C.get_row b i) p))
        (List.init b.C.n Fun.id))

(* --- Engine-zoo unit cases ---------------------------------------- *)

let test_empty () =
  let b = C.of_rows [] in
  Alcotest.(check int) "empty length" 0 (C.length b);
  Alcotest.(check (list string)) "empty roundtrip" []
    (List.map Value.to_string (C.to_rows b));
  let v = C.vstack [ b; b ] in
  Alcotest.(check int) "vstack of empties" 0 (C.length v)

let test_all_null_column () =
  let rows =
    List.init 8 (fun i ->
        Value.Tuple [ ("k", Value.Null); ("v", Value.Int i) ])
  in
  let b = C.of_rows rows in
  (match C.find_col b "k" with
  | Some c ->
    (match C.null_mask c with
    | Some m -> Alcotest.(check int) "all key nulls" 8 (C.Bitv.count m)
    | None -> Alcotest.fail "expected null mask")
  | None -> Alcotest.fail "missing column");
  (* All-Null join keys: [eqclasses] puts them in one class, and
     [key_codes] marks every one [-1], so a hash join that excludes
     nulls produces no matches. *)
  let k = Option.get (C.find_col b "k") in
  Alcotest.(check (array int)) "one Null class" (Array.make 8 0) (C.eqclasses 8 [ k ]);
  let lc, rc = K.key_codes [ (k, k) ] in
  Alcotest.(check bool) "every key code is -1" true
    (Array.for_all (fun c -> c = -1) (Array.append lc rc));
  Alcotest.(check (pair (array int) (array int))) "no candidate pair" ([||], [||])
    (K.hash_pairs ~build:rc ~probe:lc)

(* Rows that disagree on shape have no column: building or stacking
   them raises, naming both shapes. *)
let test_mixed_shapes_raise () =
  let x v = Value.Tuple [ ("x", v) ] in
  Alcotest.check_raises "int against string" (C.Shape_mismatch ("int", "string"))
    (fun () -> ignore (C.of_rows [ x (Value.Int 1); x Value.Null; x (Value.String "one") ]));
  Alcotest.check_raises "tuples of other labels" (C.Shape_mismatch ("⟨x: int⟩", "⟨y: int⟩"))
    (fun () ->
      ignore
        (C.vstack
           [ C.of_rows [ x (Value.Int 1) ]; C.of_rows [ Value.Tuple [ ("y", Value.Int 2) ] ] ]))

(* Empty pieces never decide a shape: a 0-row piece and a piece whose
   bags store no element carry element labels of their own, and the
   stack is still a bag column of tuples. *)
let test_empty_pieces_take_no_shape () =
  let elem ls = Value.Tuple (List.map (fun l -> (l, Value.Int 1)) ls) in
  let bags es = C.of_rows (List.map (fun e -> Value.Tuple [ ("b", Value.bag_of_list e) ]) es) in
  let full = bags [ [ elem [ "x1"; "x2"; "x3" ] ]; [] ] in
  let no_rows = C.gather (bags [ [ elem [ "y" ] ] ]) [||] in
  (* Both rows range over nothing, so the store compacts to no element
     of labels [z]. *)
  let no_elems = C.gather (bags [ [ elem [ "z" ] ]; [] ]) [| 1; 1 |] in
  let v = C.vstack [ full; no_rows; no_elems; full ] in
  (match C.find_col v "b" with
  | Some (C.CBag { C.belems = C.CTuple _; _ }) -> ()
  | _ -> Alcotest.fail "expected a bag column of tuples");
  Alcotest.(check bool) "roundtrip" true
    (eq_rows (C.to_rows v)
       (List.concat_map C.to_rows [ full; no_rows; no_elems; full ]))

(* The shared bag builder gives each group [Value.bag_of_list] of its
   members' rows: duplicates merged, contents in [Value.compare] order. *)
let prop_canonical_bags =
  QCheck.Test.make ~name:"canonical_bags = Value.bag_of_list" ~count:300
    (QCheck.pair arb_rows (QCheck.int_range 1 4))
    (fun (rows, k) ->
      let b = C.of_rows rows in
      let n = C.length b in
      let groups =
        Array.init k (fun g ->
            Array.of_list (List.filter (fun i -> i mod k = g) (List.init n Fun.id)))
      in
      let bags = C.canonical_bags b (C.eqclasses n [ b.C.row ]) groups in
      let rows = Array.of_list rows in
      Array.for_all Fun.id
        (Array.mapi
           (fun g members ->
             Value.equal (C.col_get bags g)
               (Value.bag_of_list
                  (List.map (fun i -> rows.(i)) (Array.to_list members))))
           groups))

(* A Null tuple flattens to Null fields even where its field columns
   hold values under the absent row. *)
let test_flatten_tuple_presence () =
  let absent = C.Bitv.init 3 (fun i -> i <> 1) in
  let col =
    C.CTuple
      ( 3,
        [
          ("x", C.CInt ([| 1; 2; 3 |], None));
          ("t", C.CTuple (3, [ ("y", C.CStr ([| C.Dict.intern "a"; C.Dict.intern "b"; C.Dict.intern "c" |], None)) ], None));
        ],
        Some absent )
  in
  let ty = Vtype.TTuple [ ("x", Vtype.TInt); ("t", Vtype.TTuple [ ("y", Vtype.TString) ]) ] in
  let row x y =
    Value.Tuple [ ("x", x); ("t", match y with Some y -> Value.Tuple [ ("y", Value.String y) ] | None -> Value.Null) ]
  in
  Alcotest.(check bool) "absent row reads Null in every field" true
    (eq_rows
       (C.to_rows (C.flatten_tuple ty col))
       [ row (Value.Int 1) (Some "a"); row Value.Null None; row (Value.Int 3) (Some "c") ]);
  Alcotest.(check bool) "all-Null column pads with the null tuple" true
    (eq_rows
       (C.to_rows (C.flatten_tuple ty (C.CNull 2)))
       [ row Value.Null None; row Value.Null None ]);
  Alcotest.(check bool) "the null pad's fields are all-Null columns" true
    (List.for_all
       (function _, C.CNull 2 -> true | _ -> false)
       (C.cols (C.flatten_tuple ty (C.CNull 2))));
  let const = (C.broadcast 3 (Value.Tuple [ ("x", Value.Int 1); ("t", Value.Null) ])).C.row in
  Alcotest.(check bool) "a constant field takes the presence" true
    (eq_rows
       (C.to_rows
          (C.flatten_tuple ty
             (match const with
             | C.CTuple (n, fields, None) -> C.CTuple (n, fields, Some absent)
             | _ -> Alcotest.fail "broadcast tuple is not a tuple column")))
       [ row (Value.Int 1) None; row Value.Null None; row (Value.Int 1) None ])

let test_dict_dedup () =
  let rows =
    List.init 100 (fun i ->
        Value.Tuple [ ("s", Value.String (if i mod 2 = 0 then "even" else "odd")) ])
  in
  let before = C.Dict.size () in
  let b = C.of_rows rows in
  let after = C.Dict.size () in
  Alcotest.(check bool) "at most two new strings" true (after - before <= 2);
  Alcotest.(check bool) "roundtrip" true (eq_rows (C.to_rows b) rows)

(* --- Shared bag stores ------------------------------------------------ *)

(* Lists of rows with a bag column [b] of one random element type, Null
   in some rows, next to an int key: gathering them with repeated
   indices makes slices that share the element store. *)
let bag_rows_of ety =
  let open QCheck.Gen in
  let row =
    map3
      (fun k null es ->
        Value.Tuple
          [ ("k", Value.Int k); ("b", if null then Value.Null else Value.bag_of_list es) ])
      small_nat
      (frequencyl [ (1, true); (4, false) ])
      (list_size (int_range 0 4) (value_of 1 ety))
  in
  list_size (int_range 0 10) row

let arb_bag_rows = QCheck.make ~print:print_rows QCheck.Gen.(vtype_gen >>= bag_rows_of)

let arb_bag_rows_pair =
  QCheck.make ~print:print_pair
    QCheck.Gen.(vtype_gen >>= fun ety -> pair (bag_rows_of ety) (bag_rows_of ety))

let pick_indices n picks =
  if n = 0 then [||] else Array.of_list (List.map (fun p -> p mod n) picks)

let prop_shared_ops =
  QCheck.Test.make ~name:"shared stores: gather, filter, vstack" ~count:400
    QCheck.(pair arb_bag_rows_pair (small_list small_nat))
    (fun ((xs, ys), picks) ->
      let a = C.of_rows xs and b = C.of_rows ys in
      let xa = Array.of_list xs in
      let at idx = List.map (fun i -> xa.(i)) (Array.to_list idx) in
      let idx = pick_indices (C.length a) picks in
      let idx' = pick_indices (C.length a) (List.rev picks) in
      let ga = C.gather a idx and ga' = C.gather a idx' in
      let keep i = i mod 3 <> 1 in
      let fa = C.filter ga (C.Bitv.init (C.length ga) keep) in
      let exp_fa = List.filteri (fun i _ -> keep i) (at idx) in
      let null_piece =
        C.of_rows [ Value.Tuple [ ("k", Value.Int 0); ("b", Value.Null) ] ]
      in
      eq_rows (C.to_rows ga) (at idx)
      && eq_rows (C.to_rows fa) exp_fa
      && eq_rows (C.to_rows (C.gather ga (Array.init (C.length ga) (fun i -> C.length ga - 1 - i))))
           (List.rev (at idx))
      (* pieces over one store, over distinct stores, and with an
         all-Null piece *)
      && eq_rows (C.to_rows (C.vstack [ ga; fa; a; ga' ])) (at idx @ exp_fa @ xs @ at idx')
      && eq_rows (C.to_rows (C.vstack [ ga; b; fa ])) (at idx @ ys @ exp_fa)
      && eq_rows
           (C.to_rows (C.vstack [ ga; null_piece; ga' ]))
           (at idx @ C.to_rows null_piece @ at idx'))

(* A batch whose bag column shares its store reads exactly like its
   compacted copy, [of_rows (to_rows b)], under every row-level reader. *)
let prop_shared_readers =
  QCheck.Test.make ~name:"shared stores read like their compacted copy"
    ~count:300
    QCheck.(pair arb_bag_rows (small_list small_nat))
    (fun (xs, picks) ->
      let a = C.of_rows xs in
      let sh = C.gather a (pick_indices (C.length a) picks) in
      let cp = C.of_rows (C.to_rows sh) in
      let rows = List.init (C.length sh) Fun.id in
      let cmp_sh = C.cmp_row sh.C.row and cmp_cp = C.cmp_row cp.C.row in
      List.for_all
        (fun i ->
          let v = C.get_row sh i in
          String.equal (Value.to_string v) (Value.to_string (C.get_row cp i))
          && List.for_all (fun j -> cmp_sh i j = cmp_cp i j) rows)
        rows
      && C.hash_col sh.C.row = C.hash_col cp.C.row
      && C.eqclasses (C.length sh) [ sh.C.row ] = C.eqclasses (C.length cp) [ cp.C.row ]
      &&
      (* stacked, each row shares its class with its copy *)
      let n = C.length sh and both = C.vstack [ sh; cp ] in
      let cls = C.eqclasses (2 * n) [ both.C.row ] in
      List.for_all (fun i -> cls.(n + i) = cls.(i)) rows)

(* Batches for the comparator properties: besides [arb_batch]'s Nulls, ±0
   and NaN floats, nested tuples and bags, half the batches are Null-free
   tuples of ints, strings and such tuples. *)
let arb_cmp_batch =
  let open QCheck.Gen in
  let typed =
    sized_size (int_bound 8)
    @@ fix (fun self n ->
           let prim = oneofl Vtype.[ TInt; TString ] in
           if n <= 0 then prim
           else
             frequency
               [
                 (1, prim);
                 ( 2,
                   map
                     (fun tys ->
                       Vtype.TTuple (List.mapi (fun i t -> (Fmt.str "f%d" i, t)) tys))
                     (list_size (int_range 1 3) (self (n / 2))) );
               ])
  in
  QCheck.make
    ~print:(fun b -> Fmt.str "%a" (Fmt.Dump.list Value.pp) (C.to_rows b))
    (frequency [ (1, batch_gen); (1, map C.of_rows (typed >>= rows_of 0)) ])

(* [cmp_row] orders every row pair as [Value.compare] orders the rows
   rebuilt; the relaxed γ's original rows are told apart with it, and
   [canonical_bags] sorts with it. *)
let prop_cmp_rows =
  QCheck.Test.make ~name:"cmp_rows = Value.compare on get_row" ~count:500 arb_cmp_batch
    (fun b ->
      let cmp = C.cmp_row b.C.row and rows = List.init b.C.n Fun.id in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              Int.compare (cmp i j) 0
              = Int.compare (Value.compare (C.get_row b i) (C.get_row b j)) 0)
            rows)
        rows)

(* [cmp_row] staged once on a whole column (as tracing's relaxed γ stages
   it once per operator) orders every row pair as [cmp_row] staged on
   those two rows alone, gathered and rebuilt by [of_rows]. *)
let prop_cmp_row =
  QCheck.Test.make ~name:"staged cmp_row = cmp_rows" ~count:300 arb_cmp_batch (fun b ->
      let cmp = C.cmp_row b.C.row and rows = List.init b.C.n Fun.id in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              let sign = Int.compare (cmp i j) 0 in
              let pair = C.gather b [| i; j |] in
              let copy = C.of_rows (C.to_rows pair) in
              sign = Int.compare (C.cmp_row pair.C.row 0 1) 0
              && sign = Int.compare (C.cmp_row copy.C.row 0 1) 0)
            rows)
        rows)

(* --- Kernels against their boxed definitions --------------------------- *)

let fns = Nrab.Agg.[ Sum; Count; Count_distinct; Avg; Min; Max ]

(* Values compared bit for bit: [Value.equal] identifies [0.0] with
   [-0.0]. *)
let same_value a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_range a b =
  match a, b with
  | None, None -> true
  | Some (l, h), Some (l', h') ->
    same_value (Value.Float l) (Value.Float l') && same_value (Value.Float h) (Value.Float h')
  | _ -> false

let arb_agg_column =
  let open QCheck.Gen in
  let float =
    frequency
      [
        (3, oneofl [ 0.0; -0.0; nan; infinity; neg_infinity; 0.1; -2.5; 1e308 ]);
        (3, float_range (-100.) 100.);
      ]
  in
  let cell =
    frequency
      [
        (1, return Value.Null);
        (4, map (fun f -> Value.Float f) float);
      ]
  in
  let int_cell =
    frequency [ (1, return Value.Null); (4, map (fun i -> Value.Int i) small_signed_int) ]
  in
  let column = oneof [ list_size (int_range 0 12) cell; list_size (int_range 0 12) int_cell ] in
  QCheck.make
    ~print:(fun (vs, _) -> Fmt.str "%a" (Fmt.Dump.list Value.pp) vs)
    (pair column (small_list small_nat))

let prop_typed_aggs =
  QCheck.Test.make ~name:"typed agg apply/range = Agg, bit for bit" ~count:500
    arb_agg_column (fun (vs, picks) ->
      let col = (C.of_rows vs).C.row in
      let rows = pick_indices (List.length vs) picks in
      let values = List.map (C.col_get col) (Array.to_list rows) in
      let ones = List.map (fun _ -> Value.Int 1) (Array.to_list rows) in
      List.for_all
        (fun fn ->
          let a = K.agg fn (Some col) "o" and c = K.agg fn None "o" in
          same_value (a.K.apply rows) (Nrab.Agg.apply fn values)
          && same_range (a.K.range rows) (Nrab.Agg.achievable_range fn values)
          && same_value (c.K.apply rows) (Nrab.Agg.apply fn ones)
          && same_range (c.K.range rows) (Nrab.Agg.achievable_range fn ones))
        fns)

(* The reference for [K.groups]: rows per class of [codes], classes in
   first-seen order, members ascending, through a [Hashtbl]. *)
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
  Array.of_list (List.rev_map (fun cell -> Array.of_list (List.rev !cell)) !order)

let prop_groups =
  QCheck.Test.make ~name:"groups = group_indices (eqclasses)" ~count:300
    QCheck.(pair arb_batch (int_range 0 2))
    (fun (b, k) ->
      let n = C.length b in
      let keys =
        match b.C.row with
        | C.CTuple (_, fs, None) -> List.filteri (fun i _ -> i < k) (List.map snd fs)
        | _ -> [ b.C.row ]
      in
      let expected =
        group_indices (match keys with [] -> Array.make n 0 | ks -> C.eqclasses n ks)
      in
      K.groups n keys = expected)

(* Each row's class is the smallest row equal to it on every key. *)
let prop_eqclasses =
  QCheck.Test.make ~name:"eqclasses = smallest equal row" ~count:300
    QCheck.(pair arb_batch (int_range 1 2))
    (fun (b, k) ->
      let n = C.length b in
      let keys =
        match b.C.row with
        | C.CTuple (_, (_ :: _ as fs), None) -> List.filteri (fun i _ -> i < k) (List.map snd fs)
        | _ -> [ b.C.row ]
      in
      let equal i j = List.for_all (fun c -> Value.equal (C.col_get c i) (C.col_get c j)) keys in
      let cls = C.eqclasses n keys in
      List.for_all
        (fun i -> cls.(i) = List.find (fun j -> equal i j) (List.init n Fun.id))
        (List.init n Fun.id))

let prop_hash_pairs =
  QCheck.Test.make ~name:"hash_pairs = nested-loop order" ~count:300
    QCheck.(pair (small_list (int_range (-1) 5)) (small_list (int_range (-1) 5)))
    (fun (build, probe) ->
      let expected =
        List.concat_map
          (fun (pi, c) ->
            List.filter_map
              (fun (bi, c') -> if c >= 0 && c = c' then Some (bi, pi) else None)
              (List.rev (List.mapi (fun bi c' -> (bi, c')) build)))
          (List.mapi (fun pi c -> (pi, c)) probe)
      in
      let bs, ps = K.hash_pairs ~build:(Array.of_list build) ~probe:(Array.of_list probe) in
      List.combine (Array.to_list bs) (Array.to_list ps) = expected)

(* --- ⟦Q⟧_D matching ----------------------------------------------- *)

(* A batch of rows of [ty] in one of the representations the engine and
   tracing leave: typed columns ([of_rows]), a constant or all-Null
   column ([broadcast], per field for a tuple), typed cells under a
   presence bitmap, or two such pieces stacked. *)
let batch_of_type (ty : Vtype.t) : C.t QCheck.Gen.t =
  let open QCheck.Gen in
  let masked xs bits =
    let b = C.of_rows xs in
    match b.C.row with
    | C.CNull _ -> b
    | c -> { b with C.row = with_presence (C.Bitv.init b.C.n (fun i -> bits land (1 lsl i) = 0)) c }
  in
  let piece =
    frequency
      [
        (3, int_bound 3 >>= fun k -> map C.of_rows (rows_of k ty));
        (2, map2 C.broadcast (int_range 0 4) (value_of 1 ty));
        (1, map2 masked (rows_of 0 ty) (int_bound 255));
      ]
  in
  frequency [ (3, piece); (1, map2 (fun a b -> C.vstack [ a; b ]) piece piece) ]

(* ⟦Q⟧_D, an SA's root batch of the same type (some of its rows copied
   from ⟦Q⟧_D, in typed columns) and its surviving flags. *)
let match_case_gen =
  let open QCheck.Gen in
  vtype_gen >>= fun ty ->
  batch_of_type ty >>= fun original ->
  let qs = Array.of_list (C.to_rows original) in
  batch_of_type ty >>= fun other ->
  list_size (int_range 0 4) (int_bound 1000) >>= fun picks ->
  let copies =
    if Array.length qs = 0 then []
    else List.map (fun k -> qs.(k mod Array.length qs)) picks
  in
  let data = C.vstack [ other; C.of_rows copies ] in
  map
    (fun flags -> (original, data, Bytes.of_seq (List.to_seq flags)))
    (list_repeat (C.length data) (map (fun b -> if b then '\001' else '\000') bool))

let arb_match_case =
  QCheck.make
    ~print:(fun (o, d, f) ->
      Fmt.str "%a %a %S" (Fmt.Dump.list Value.pp) (C.to_rows o) (Fmt.Dump.list Value.pp)
        (C.to_rows d) (Bytes.to_string f))
    match_case_gen

(* Row by row, a root row matches exactly when it survives and some row
   of ⟦Q⟧_D is [Value.equal] to it. *)
let prop_matches =
  QCheck.Test.make ~name:"Msr.matches = surviving and Value.equal to a row of ⟦Q⟧_D"
    ~count:500 arb_match_case (fun (original, data, surviving) ->
      let qs = C.to_rows original in
      let m = Whynot.Msr.matches (C.row_index original) data surviving in
      m.Whynot.Msr.q_rows = List.length qs
      && Bytes.length m.Whynot.Msr.flags = C.length data
      && List.for_all
           (fun i ->
             let expected =
               Bytes.get surviving i = '\001'
               && List.exists (Value.equal (C.get_row data i)) qs
             in
             Bool.equal expected (Bytes.get m.Whynot.Msr.flags i = '\001'))
           (List.init (C.length data) Fun.id))

(* [gather] that never compacts a bag store: the rows keep the whole
   store, also the elements of the rows left out. *)
let rec gather_keep (c : C.col) (idx : int array) : C.col =
  let pick p = Option.map (fun p -> C.Bitv.init (Array.length idx) (fun j -> C.Bitv.get p idx.(j))) p in
  match c with
  | C.CTuple (_, fields, p) ->
    C.CTuple
      (Array.length idx, List.map (fun (l, f) -> (l, gather_keep f idx)) fields, pick p)
  | C.CBag bg ->
    C.CBag
      {
        bg with
        C.bn = Array.length idx;
        bstart = Array.map (Array.get bg.C.bstart) idx;
        bstop = Array.map (Array.get bg.C.bstop) idx;
        bpresent = pick bg.C.bpresent;
      }
  | c -> C.col_gather c idx

(* A batch of [ty] as [batch_of_type] builds it, or a slice of one that
   keeps its stores whole. *)
let mixed_batch_of_type ty =
  let open QCheck.Gen in
  batch_of_type ty >>= fun b ->
  if C.length b = 0 then return b
  else
    let slice =
      list_size (int_range 0 6) (int_bound (C.length b - 1)) >|= fun picks ->
      let idx = Array.of_list picks in
      { C.n = Array.length idx; row = gather_keep b.C.row idx }
    in
    frequency [ (1, return b); (1, slice) ]

(* The equality kernel on every pair of rows of two batches of one row
   type, in mixed representations (constant, all-Null, typed, sliced
   over a store with unreferenced elements), the second holding typed
   copies of some rows of the first. *)
let prop_equal_rows =
  QCheck.Test.make ~name:"equal_rows = Value.equal on rebuilt rows" ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Fmt.str "%a %a" (Fmt.Dump.list Value.pp) (C.to_rows a) (Fmt.Dump.list Value.pp)
           (C.to_rows b))
       QCheck.Gen.(
         vtype_gen >>= fun ty ->
         mixed_batch_of_type ty >>= fun a ->
         mixed_batch_of_type ty >>= fun other ->
         list_size (int_range 0 3) (int_bound 1000) >|= fun picks ->
         let rows = Array.of_list (C.to_rows a) in
         let copies =
           if Array.length rows = 0 then []
           else List.map (fun k -> rows.(k mod Array.length rows)) picks
         in
         (a, C.vstack [ other; C.of_rows copies ])))
    (fun (a, b) ->
      let ra = C.to_values a and rb = C.to_values b in
      Array.for_all Fun.id
        (Array.mapi
           (fun i va ->
             Array.for_all Fun.id
               (Array.mapi
                  (fun j vb -> Bool.equal (C.equal_rows a i b j) (Value.equal va vb))
                  rb))
           ra))

(* One row type, two representations: a broadcast row (a float column of
   copies and an all-Null column) on one side, typed float and string
   columns from [of_rows] on the other, either way round; -0.0 matches
   0.0. *)
let test_matches_representations () =
  let row x s = Value.Tuple [ ("x", Value.Float x); ("s", s) ] in
  let const = C.broadcast 3 (row 0.0 Value.Null) in
  let typed =
    C.of_rows
      [ row 0.0 Value.Null; row 0.0 (Value.String "a"); row (-0.0) Value.Null; row 2.0 Value.Null ]
  in
  let matched m = Bytes.to_string m.Whynot.Msr.flags in
  let m =
    Whynot.Msr.matches (C.row_index const) typed (Bytes.of_string "\001\001\001\001")
  in
  Alcotest.(check string) "typed rows against constant columns" "\001\000\001\000" (matched m);
  Alcotest.(check int) "|⟦Q⟧_D|" 3 m.Whynot.Msr.q_rows;
  let m = Whynot.Msr.matches (C.row_index typed) const (Bytes.of_string "\001\000\001") in
  Alcotest.(check string) "constant rows against typed columns" "\001\000\001" (matched m);
  let m = Whynot.Msr.matches (C.row_index C.empty) typed (Bytes.make 4 '\001') in
  Alcotest.(check string) "an empty ⟦Q⟧_D matches nothing" "\000\000\000\000" (matched m)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_roundtrip_printed;
      prop_get_row;
      prop_gather;
      prop_filter_mask;
      prop_vstack;
      prop_hash;
      prop_hash_shapes;
      prop_equal_hash;
      prop_codes;
      prop_matches;
      prop_equal_rows;
      prop_pred_mask;
      prop_pred_mask_contains;
      prop_canonical_bags;
      prop_shared_ops;
      prop_shared_readers;
      prop_cmp_rows;
      prop_cmp_row;
      prop_typed_aggs;
      prop_groups;
      prop_eqclasses;
      prop_hash_pairs;
    ]

(* A relation flatten repeats each parent row once per element, so its
   output keeps the input's bag column over the input's store. *)
let test_flatten_shares_store () =
  let rows =
    List.init 6 (fun i ->
        Value.Tuple
          [
            ("o", Value.Int i);
            ( "items",
              Value.bag_of_list
                (List.init ((i mod 3) + 1) (fun j ->
                     Value.Tuple [ ("l", Value.Int ((10 * i) + j)) ])) );
          ])
  in
  let b = C.of_rows rows in
  let col = Option.get (C.find_col b "items") in
  let flat =
    K.flatten ~outer:false (Vtype.TTuple [ ("l", Vtype.TInt) ]) col b
  in
  match col, C.find_col flat.K.data "items" with
  | C.CBag bg, Some (C.CBag out) ->
    Alcotest.(check int) "one row per element" 12 (C.length flat.K.data);
    Alcotest.(check bool) "elements shared" true (out.C.belems == bg.C.belems);
    Alcotest.(check bool) "multiplicities shared" true (out.C.bmult == bg.C.bmult)
  | _ -> Alcotest.fail "expected bag columns"

(* [col_bytes] counts the elements a bag's rows reference, not its
   store: over fixed-width elements a shared slice counts exactly what
   its compacted copy does, and slices that split a batch count what the
   batch does. *)
let test_bytes_shared () =
  let rows =
    List.init 100 (fun i ->
        Value.Tuple
          [
            ("k", Value.Int i);
            ( "b",
              Value.bag_of_list
                (List.init 10 (fun j -> Value.Tuple [ ("l", Value.Int ((100 * i) + j)) ])) );
          ])
  in
  let b = C.of_rows rows in
  let store c = match C.find_col c "b" with Some (C.CBag bg) -> bg.C.belems | _ -> C.CNull 0 in
  let shared = C.gather b (Array.init 60 (fun i -> i * 3 mod 100)) in
  Alcotest.(check bool) "60 of 100 rows share the store" true (store shared == store b);
  Alcotest.(check int) "shared slice counts like its copy"
    (C.bytes (C.of_rows (C.to_rows shared)))
    (C.bytes shared);
  let parts =
    List.init 4 (fun p -> C.gather b (Array.init 25 (fun i -> (4 * i) + p)))
  in
  Alcotest.(check int) "slices count like the batch" (C.bytes b)
    (List.fold_left (fun acc s -> acc + C.bytes s) 0 parts);
  let one = C.gather b [| 7; 7; 7 |] in
  Alcotest.(check bool) "a small slice compacts" true (store one != store b);
  Alcotest.(check int) "repeated rows keep one copy" 10
    (match C.find_col one "b" with Some (C.CBag bg) -> Array.length bg.C.bmult | _ -> -1)

(* Batches the kernels build, not [of_rows]: every operator's output
   batch in every SA trace of every registry scenario at scale 1.  Its
   [hash_col] must agree with the rebuilt rows' [value_hash] and with
   [hash_row] row by row, and [Msr.matches] must match every row with
   its rebuilt copy, built by [of_rows] in typed columns where the
   kernels may have left constant ones. *)
let test_registry_batches () =
  let rows = ref 0 in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = s.Scenarios.Scenario.make ~scale:1 () in
      let phi = inst.Scenarios.Scenario.question in
      let db = phi.Whynot.Question.db in
      let env = Whynot.Pipeline.schema_env db in
      List.iter
        (fun (sa : Whynot.Alternatives.sa) ->
          let bt =
            Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query
              phi.Whynot.Question.missing
          in
          let tr = Whynot.Tracing.run ~env db sa bt in
          List.iter
            (fun (ot : Whynot.Tracing.op_trace) ->
              let data = ot.Whynot.Tracing.data in
              let n = Whynot.Tracing.n_rows ot in
              let hs = C.hash_col data.C.row and hash = C.hash_row data.C.row in
              let vs = List.init n (C.get_row data) in
              let m =
                Whynot.Msr.matches
                  (C.row_index (C.of_rows vs))
                  data (Bytes.make n '\001')
              in
              List.iteri
                (fun i v ->
                  incr rows;
                  if
                    C.value_hash v <> hs.(i)
                    || hash i <> hs.(i)
                    || Bytes.get m.Whynot.Msr.flags i <> '\001'
                  then
                    Alcotest.failf "%s S%d op %d row %d" s.Scenarios.Scenario.name
                      (sa.Whynot.Alternatives.index + 1) ot.Whynot.Tracing.op_id i)
                vs)
            tr.Whynot.Tracing.ops)
        (Whynot.Alternatives.enumerate ~env phi.Whynot.Question.query
           inst.Scenarios.Scenario.alternatives))
    Scenarios.Registry.all;
  Alcotest.(check bool) "rows were checked" true (!rows > 0)

(* Nullable integer columns code Null as [min_int]: a present [min_int]
   is still its own class, and classes keep their first-seen order. *)
let test_min_int_is_not_null () =
  let col vs = (C.of_rows vs).C.row in
  let m = Value.Int min_int in
  Alcotest.(check (array int)) "classes" [| 0; 1; 0; 1 |]
    (C.eqclasses 4 [ col [ m; Value.Null; m; Value.Null ] ]);
  Alcotest.(check (array int)) "Null first" [| 0; 1; 1 |]
    (C.eqclasses 3 [ col [ Value.Null; m; m ] ]);
  Alcotest.(check (array (array int))) "groups" [| [| 0; 2 |]; [| 1 |] |]
    (K.groups 3 [ col [ m; Value.Null; m ] ])

(* [Value.equal] calls [0.0] and [-0.0] equal, and every NaN equal to
   every other: both hash alike, as values and as cells, and
   [eqclasses] puts each pair in one class. *)
let test_float_classes () =
  let fs = [ 0.0; -0.0; nan; computed_nan; 1.0 ] in
  let h f = C.value_hash (Value.Float f) in
  Alcotest.(check int) "0.0 and -0.0 hash to 0" 0 (h 0.0 lor h (-0.0));
  Alcotest.(check int) "NaNs hash alike" (h nan) (h computed_nan);
  let c = (C.of_rows (List.map (fun f -> Value.Float f) fs)).C.row in
  Alcotest.(check (array int)) "hash_col" (Array.of_list (List.map h fs)) (C.hash_col c);
  Alcotest.(check (array int)) "classes" [| 0; 0; 2; 2; 4 |] (C.eqclasses 5 [ c ])

let () =
  Alcotest.run "columnar"
    [
      ("properties", qsuite);
      ( "zoo",
        [
          Alcotest.test_case "empty partitions" `Quick test_empty;
          Alcotest.test_case "all-null join keys" `Quick test_all_null_column;
          Alcotest.test_case "mixed shapes raise" `Quick test_mixed_shapes_raise;
          Alcotest.test_case "empty pieces take no shape" `Quick
            test_empty_pieces_take_no_shape;
          Alcotest.test_case "dictionary dedup" `Quick test_dict_dedup;
          Alcotest.test_case "nullable tuple flatten" `Quick test_flatten_tuple_presence;
          Alcotest.test_case "min_int key is not Null" `Quick test_min_int_is_not_null;
          Alcotest.test_case "signed zeros and NaNs" `Quick test_float_classes;
          Alcotest.test_case "matches across representations" `Quick
            test_matches_representations;
        ] );
      ( "shared",
        [
          Alcotest.test_case "flatten shares its store" `Quick test_flatten_shares_store;
          Alcotest.test_case "bytes count referenced elements" `Quick test_bytes_shared;
        ] );
      ( "registry",
        [
          Alcotest.test_case "trace batches hash and match their rows" `Quick
            test_registry_batches;
        ] );
    ]
