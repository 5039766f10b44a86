(* Columnar boundary tests: the arena representation must be an exact
   inverse of the tree representation ([to_rows ∘ of_rows = id]), and
   the vectorized kernels must agree with their row-at-a-time
   counterparts on the engine zoo's awkward cases (empty partitions,
   all-Null join keys, shape-mixed columns). *)

open Nested
module C = Engine.Columnar

(* --- Generators ---------------------------------------------------- *)

(* Nested values biased toward the cases that stress the arena: deep
   nesting, empty bags, Null-heavy columns, duplicate strings. *)
let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           frequency
             [
               (2, return Value.Null);
               (1, map (fun b -> Value.Bool b) bool);
               (2, map (fun i -> Value.Int i) small_signed_int);
               (1, map (fun f -> Value.Float f) (float_bound_inclusive 100.));
               (* Floats [Value.equal] and [value_hash] disagree on:
                  0.0 = -0.0 with different bits, nan = nan. *)
               (1, oneofl [ Value.Float 0.0; Value.Float (-0.0); Value.Float nan ]);
               (* Tiny alphabet so duplicate strings hit the dictionary. *)
               (2, map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'c') (return 2)));
             ]
         else
           frequency
             [
               (2, map (fun i -> Value.Int i) small_signed_int);
               (1, return Value.Null);
               ( 2,
                 map
                   (fun vs ->
                     Value.Tuple (List.mapi (fun i v -> (Fmt.str "f%d" i, v)) vs))
                   (list_size (int_range 1 3) (self (n / 2))) );
               ( 2,
                 map
                   (fun vs -> Value.bag_of_list vs)
                   (list_size (int_range 0 4) (self (n / 2))) );
             ])

let arb_rows =
  QCheck.make
    ~print:(fun vs -> Fmt.str "%a" (Fmt.Dump.list Value.pp) vs)
    QCheck.Gen.(list_size (int_range 0 12) value_gen)

(* Uniform tuple rows (the common relational case: typed columns). *)
let arb_uniform_rows =
  let open QCheck.Gen in
  let row =
    map3
      (fun i s b ->
        Value.Tuple
          [
            ("id", Value.Int i);
            ("name", (match s with Some s -> Value.String s | None -> Value.Null));
            ("flag", Value.Bool b);
          ])
      small_signed_int
      (opt (string_size ~gen:(char_range 'a' 'c') (return 2)))
      bool
  in
  QCheck.make
    ~print:(fun vs -> Fmt.str "%a" (Fmt.Dump.list Value.pp) vs)
    (list_size (int_range 0 20) row)

(* Batches in shapes [of_rows] never builds: constant columns
   ([broadcast]), boxed columns from a shape-mixed [vstack], and
   presence bitmaps over cells that still hold values (a kernel's
   outer-join or flatten padding). *)
let with_presence (mask : C.Bitv.t) (c : C.col) : C.col =
  let p = Some mask in
  match c with
  | C.CBool (b, _) -> C.CBool (b, p)
  | C.CInt (a, _) -> C.CInt (a, p)
  | C.CFloat (a, _) -> C.CFloat (a, p)
  | C.CStr (a, _) -> C.CStr (a, p)
  | C.CTuple (n, fields, _) -> C.CTuple (n, fields, p)
  | C.CBag bg -> C.CBag { bg with C.bpresent = p }
  | C.CNull n | C.CConst (n, _) -> C.CTuple (n, [ ("w", c) ], p)
  | C.CBox a -> C.CTuple (Array.length a, [ ("w", c) ], p)

let batch_gen : C.t QCheck.Gen.t =
  let open QCheck.Gen in
  let rows = list_size (int_range 0 8) value_gen in
  (* Typed float columns, where the float kernels run, with one label
   per batch and bags whose elements repeat. *)
  let float_rows =
    let f =
      oneofl
        Value.
          [ Float 0.0; Float (-0.0); Float nan; Float 1.5; Null ]
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
      (2, map C.of_rows rows);
      (2, map C.of_rows float_rows);
      (2, map2 (fun xs ys -> C.vstack [ C.of_rows xs; C.of_rows ys ]) rows rows);
      (1, map2 (fun n v -> C.broadcast n v) (int_range 0 6) value_gen);
      ( 2,
        map2
          (fun xs bits ->
            let b = C.of_rows xs in
            let mask = C.Bitv.init b.C.n (fun i -> bits land (1 lsl i) = 0) in
            { b with C.row = with_presence mask b.C.row })
          rows (int_bound 255) );
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
    (QCheck.pair arb_rows arb_rows) (fun (xs, ys) ->
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

(* Every row of one batch against every row of the other, and of
   itself, so equal pairs are checked as well as unequal ones. *)
let prop_equal_value =
  QCheck.Test.make ~name:"equal_value = Value.equal on col_get" ~count:300
    (QCheck.pair arb_batch arb_batch) (fun (a, b) ->
      let agrees x y =
        List.for_all
          (fun i ->
            List.for_all
              (fun j ->
                let v = C.get_row y j in
                C.equal_value x.C.row i v = Value.equal (C.get_row x i) v)
              (List.init y.C.n Fun.id))
          (List.init x.C.n Fun.id)
      in
      agrees a b && agrees b a && agrees a a)

let prop_codes =
  QCheck.Test.make ~name:"coder codes = structural equality classes"
    ~count:200
    QCheck.(pair arb_rows arb_rows)
    (fun (xs, ys) ->
      (* One coder across two batches: equal codes across batches must
         mean structurally equal values (the join-key requirement), in
         the sense of [Value.equal], which generic [Hashtbl] grouping
         shares: nan equals nan, unlike under [=]. *)
      let coder = C.Coder.create () in
      let ca = C.row_codes coder (C.of_rows xs) in
      let cb = C.row_codes coder (C.of_rows ys) in
      let all =
        Array.to_list (Array.combine (Array.of_list (xs @ ys)) (Array.append ca cb))
      in
      List.for_all
        (fun (v1, c1) ->
          List.for_all
            (fun (v2, c2) -> c1 = c2 = Value.equal v1 v2)
            all)
        all)

let prop_pred_mask =
  QCheck.Test.make ~name:"eval_pred_mask = per-row eval_pred" ~count:200
    arb_uniform_rows (fun rows ->
      let b = C.of_rows rows in
      let preds =
        let open Nrab.Expr.Infix in
        [
          Nrab.Expr.attr "id" > Nrab.Expr.int 3;
          Nrab.Expr.Contains (Nrab.Expr.attr "name", "a");
          Nrab.Expr.IsNull (Nrab.Expr.attr "name");
          (Nrab.Expr.attr "id" >= Nrab.Expr.int 0)
          && Nrab.Expr.IsNotNull (Nrab.Expr.attr "name");
          Nrab.Expr.attr "name" = Nrab.Expr.str "aa";
          Nrab.Expr.attr "id" + Nrab.Expr.int 1 <= Nrab.Expr.int 10;
        ]
      in
      List.for_all
        (fun p ->
          let mask = C.eval_pred_mask b p in
          List.for_all2
            (fun i row -> C.Bitv.get mask i = Nrab.Expr.eval_pred row p)
            (List.init (C.length b) Fun.id)
            rows)
        preds)

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
  (* All-Null join keys: every key codes to null_code, so a hash join
     that excludes nulls must produce no matches. *)
  let coder = C.Coder.create () in
  let codes =
    C.Coder.col_codes coder (Option.get (C.find_col b "k"))
  in
  Alcotest.(check bool) "all codes are null_code" true
    (Array.for_all (fun c -> c = C.Coder.null_code) codes)

let test_mixed_shape_fallback () =
  (* Mixed Int/String column degrades to a boxed column but stays
     semantically exact. *)
  let rows =
    [
      Value.Tuple [ ("x", Value.Int 1) ];
      Value.Tuple [ ("x", Value.String "one") ];
      Value.Tuple [ ("x", Value.Null) ];
    ]
  in
  let b = C.of_rows rows in
  Alcotest.(check bool) "roundtrip" true (eq_rows (C.to_rows b) rows);
  let open Nrab.Expr.Infix in
  let mask = C.eval_pred_mask b (Nrab.Expr.attr "x" = Nrab.Expr.int 1) in
  Alcotest.(check (list bool)) "mixed compare" [ true; false; false ]
    (List.init 3 (C.Bitv.get mask))

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
  (match C.flatten_tuple ty col with
  | Some right ->
    Alcotest.(check bool) "absent row reads Null in every field" true
      (eq_rows (C.to_rows right)
         [ row (Value.Int 1) (Some "a"); row Value.Null None; row (Value.Int 3) (Some "c") ])
  | None -> Alcotest.fail "a CTuple of typed columns flattens column-wise");
  Alcotest.(check bool) "all-Null column pads with the null tuple" true
    (match C.flatten_tuple ty (C.CNull 2) with
    | Some right -> eq_rows (C.to_rows right) [ row Value.Null None; row Value.Null None ]
    | None -> false);
  Alcotest.(check bool) "a constant field cannot carry presence" true
    (C.flatten_tuple ty
       (C.CTuple (3, [ ("x", C.CConst (3, Value.Int 1)); ("t", C.CNull 3) ], Some absent))
    = None)

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

(* Rows with a bag column [b], Null in some rows, next to an int key:
   gathering them with repeated indices makes slices that share the
   element store. *)
let arb_bag_rows =
  let open QCheck.Gen in
  let row =
    map3
      (fun k null es ->
        Value.Tuple
          [ ("k", Value.Int k); ("b", if null then Value.Null else Value.bag_of_list es) ])
      small_nat
      (frequencyl [ (1, true); (4, false) ])
      (list_size (int_range 0 4) value_gen)
  in
  QCheck.make
    ~print:(fun vs -> Fmt.str "%a" (Fmt.Dump.list Value.pp) vs)
    (list_size (int_range 0 10) row)

let pick_indices n picks =
  if n = 0 then [||] else Array.of_list (List.map (fun p -> p mod n) picks)

let prop_shared_ops =
  QCheck.Test.make ~name:"shared stores: gather, filter, vstack" ~count:400
    QCheck.(triple arb_bag_rows arb_bag_rows (small_list small_nat))
    (fun (xs, ys, picks) ->
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
      let coder = C.Coder.create () in
      List.for_all
        (fun i ->
          let v = C.get_row sh i in
          String.equal (Value.to_string v) (Value.to_string (C.get_row cp i))
          && List.for_all
               (fun j ->
                 let w = C.get_row cp j in
                 C.cmp_rows sh i j = C.cmp_rows cp i j
                 && C.equal_value sh.C.row i w = C.equal_value cp.C.row i w
                 && C.cells_equal sh.C.row i cp.C.row j = (v = w))
               rows)
        rows
      && C.hash_col sh.C.row = C.hash_col cp.C.row
      && C.Coder.col_codes coder sh.C.row = C.Coder.col_codes coder cp.C.row)

let prop_cells_equal =
  QCheck.Test.make ~name:"cells_equal = (=) on col_get" ~count:300
    (QCheck.pair arb_batch arb_batch) (fun (a, b) ->
      let agrees x y =
        List.for_all
          (fun i ->
            List.for_all
              (fun j -> C.cells_equal x.C.row i y.C.row j = (C.get_row x i = C.get_row y j))
              (List.init y.C.n Fun.id))
          (List.init x.C.n Fun.id)
      in
      agrees a b && agrees a a)

(* --- Kernels against their boxed definitions --------------------------- *)

module K = Engine.Kernel

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

let prop_groups =
  QCheck.Test.make ~name:"groups = group_indices (eqclasses)" ~count:300
    QCheck.(pair arb_batch (int_range 0 2))
    (fun (b, k) ->
      let n = C.length b in
      let keys =
        match C.cols b with
        | Some fs -> List.filteri (fun i _ -> i < k) (List.map snd fs)
        | None -> [ b.C.row ]
      in
      let expected =
        K.group_indices (match keys with [] -> Array.make n 0 | ks -> C.eqclasses n ks)
      in
      K.groups n keys = expected)

(* Each row's class is the smallest row equal to it on every key. *)
let prop_eqclasses =
  QCheck.Test.make ~name:"eqclasses = smallest equal row" ~count:300
    QCheck.(pair arb_batch (int_range 1 2))
    (fun (b, k) ->
      let n = C.length b in
      let keys =
        match C.cols b with
        | Some fs when fs <> [] -> List.filteri (fun i _ -> i < k) (List.map snd fs)
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
      prop_equal_value;
      prop_codes;
      prop_pred_mask;
      prop_canonical_bags;
      prop_shared_ops;
      prop_shared_readers;
      prop_cells_equal;
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
   batch in every SA trace of every registry scenario at scale 1.  The
   MSR bounds sweep hashes the root batch with [hash_col] and matches it
   with [equal_value], so both must agree with the rebuilt rows. *)
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
              let c = ot.Whynot.Tracing.data.C.row in
              let hs = C.hash_col c in
              for i = 0 to Whynot.Tracing.n_rows ot - 1 do
                incr rows;
                let v = Whynot.Tracing.data_at ot i in
                if C.value_hash v <> hs.(i) || not (C.equal_value c i v) then
                  Alcotest.failf "%s S%d op %d row %d" s.Scenarios.Scenario.name
                    (sa.Whynot.Alternatives.index + 1) ot.Whynot.Tracing.op_id i
              done)
            tr.Whynot.Tracing.ops)
        (Whynot.Alternatives.enumerate ~env phi.Whynot.Question.query
           inst.Scenarios.Scenario.alternatives))
    Scenarios.Registry.all;
  Alcotest.(check bool) "rows were checked" true (!rows > 0)

let () =
  Alcotest.run "columnar"
    [
      ("properties", qsuite);
      ( "zoo",
        [
          Alcotest.test_case "empty partitions" `Quick test_empty;
          Alcotest.test_case "all-null join keys" `Quick test_all_null_column;
          Alcotest.test_case "mixed-shape fallback" `Quick test_mixed_shape_fallback;
          Alcotest.test_case "dictionary dedup" `Quick test_dict_dedup;
          Alcotest.test_case "nullable tuple flatten" `Quick test_flatten_tuple_presence;
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
