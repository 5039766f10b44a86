(* Random well-typed NRAB queries and databases over a small nested
   schema, for the frontend's print/parse fuzzer, the engine's pruning
   property and the trace-structure property. *)

open Nested
open Nrab

let people_schema =
  Vtype.relation
    [
      ("name", Vtype.TString);
      ("age", Vtype.TInt);
      ("score", Vtype.TFloat);
      ("active", Vtype.TBool);
      ("addrs",
       Vtype.TBag
         (Vtype.TTuple [ ("city", Vtype.TString); ("year", Vtype.TInt) ]));
    ]

let orders_schema =
  Vtype.relation
    [ ("oid", Vtype.TInt); ("item", Vtype.TString); ("qty", Vtype.TInt) ]

let env = [ ("people", people_schema); ("orders", orders_schema) ]

let is_primitive = function
  | Vtype.TInt | Vtype.TFloat | Vtype.TString | Vtype.TBool -> true
  | _ -> false

let is_numeric = function Vtype.TInt | Vtype.TFloat -> true | _ -> false

let fields_of_ty = function
  | Vtype.TBag (Vtype.TTuple fs) -> fs
  | _ -> invalid_arg "fields_of_ty: not a relation type"

(* Builds a random well-typed query bottom-up: start from a table and
   apply a handful of random compatible operators, reading the schema
   back from the typechecker after each step.  A candidate operator that
   fails to typecheck is simply skipped, so the generator stays honest
   even where the eligibility precondition below is approximate. *)
let gen_query rs : Query.t =
  let open QCheck.Gen in
  let g = Query.Gen.create () in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "x%d" !counter
  in
  let pick l = List.nth l (int_bound (List.length l - 1) rs) in
  let coin () = bool rs in
  let shuffle l = List.map snd (List.sort compare (List.map (fun x -> (int_bound 10_000 rs, x)) l)) in
  let const_of = function
    | Vtype.TInt -> Expr.int (int_bound 100 rs - 5)
    | Vtype.TFloat -> Expr.flt (pick [ 0.5; -2.25; 3.; 12345.6789 ])
    | Vtype.TString -> Expr.str (pick [ "NY"; "LA"; "O'Hara"; "" ])
    | Vtype.TBool -> Expr.const (Value.Bool (coin ()))
    | _ -> Expr.int 0
  in
  let cmps = [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
  let rec gen_pred depth fields =
    let prims = List.filter (fun (_, t) -> is_primitive t) fields in
    let leaf () =
      if prims = [] then if coin () then Expr.True else Expr.False
      else
        let a, t = pick prims in
        match int_bound 5 rs with
        | 0 | 1 -> Expr.Cmp (pick cmps, Expr.attr a, const_of t)
        | 2 -> (
            (* attr-vs-attr comparison when a same-typed partner exists *)
            match List.filter (fun (b, u) -> b <> a && Vtype.equal t u) prims with
            | [] -> Expr.Cmp (pick cmps, Expr.attr a, const_of t)
            | partners -> Expr.Cmp (pick cmps, Expr.attr a, Expr.attr (fst (pick partners))))
        | 3 -> if coin () then Expr.IsNull (Expr.attr a) else Expr.IsNotNull (Expr.attr a)
        | _ -> (
            match List.filter (fun (_, t) -> t = Vtype.TString) prims with
            | [] -> Expr.Cmp (pick cmps, Expr.attr a, const_of t)
            | strs -> Expr.Contains (Expr.attr (fst (pick strs)), pick [ "N"; "a"; "'" ]))
    in
    if depth = 0 then leaf ()
    else
      match int_bound 5 rs with
      | 0 -> Expr.And (gen_pred (depth - 1) fields, gen_pred (depth - 1) fields)
      | 1 -> Expr.Or (gen_pred (depth - 1) fields, gen_pred (depth - 1) fields)
      | 2 -> Expr.Not (gen_pred (depth - 1) fields)
      | _ -> leaf ()
  in
  let start = pick [ "people"; "orders" ] in
  let q = ref (Query.table g start) in
  let fields = ref (fields_of_ty (List.assoc start env)) in
  let steps = 1 + int_bound 5 rs in
  for _ = 1 to steps do
    let fs = !fields in
    let candidates = ref [] in
    let add c = candidates := c :: !candidates in
    add (fun () -> Query.select g (gen_pred 2 fs) !q);
    add (fun () -> Query.dedup g !q);
    if fs <> [] then begin
      (* project to a random nonempty subset, sometimes with a computed item *)
      add (fun () ->
          let subset =
            let sh = shuffle fs in
            let k = 1 + int_bound (List.length sh - 1) rs in
            List.filteri (fun i _ -> i < k) sh
          in
          let items = List.map (fun (a, _) -> (a, Expr.attr a)) subset in
          let items =
            match List.filter (fun (_, t) -> is_numeric t) subset with
            | (a, _) :: _ when coin () ->
                items @ [ (fresh (), Expr.Add (Expr.attr a, Expr.int 1)) ]
            | _ -> items
          in
          Query.project g items !q);
      add (fun () ->
          let a, _ = pick fs in
          Query.rename g [ (fresh (), a) ] !q);
      (* nest a nonempty subset, keeping the rest as group attributes *)
      add (fun () ->
          let sh = shuffle fs in
          let k = 1 + int_bound (List.length sh - 1) rs in
          let nested = List.filteri (fun i _ -> i < k) sh in
          let pairs =
            List.map (fun (a, _) -> if coin () then (fresh (), a) else (a, a)) nested
          in
          let into = fresh () in
          if coin () then Query.nest_rel_labeled g pairs ~into !q
          else Query.nest_tuple_labeled g pairs ~into !q);
      (* group-by aggregation over a random subset *)
      add (fun () ->
          let sh = shuffle fs in
          let k = 1 + int_bound (min 2 (List.length sh - 1)) rs in
          let group = List.filteri (fun i _ -> i < k) sh in
          let pairs =
            List.map (fun (a, _) -> if coin () then (fresh (), a) else (a, a)) group
          in
          let agg () =
            match List.filter (fun (_, t) -> is_numeric t) fs with
            | (a, _) :: _ when coin () ->
                (pick [ Agg.Sum; Agg.Avg; Agg.Min; Agg.Max ], Some a, fresh ())
            | _ ->
                if coin () then (Agg.Count, None, fresh ())
                else
                  let a, _ = pick fs in
                  (pick [ Agg.Count; Agg.Count_distinct ], Some a, fresh ())
          in
          let aggs = if coin () then [ agg () ] else [ agg (); agg () ] in
          Query.group_agg_labeled g pairs aggs !q)
    end;
    (* flatten an eligible nested attribute *)
    List.iter
      (fun (a, t) ->
        match t with
        | Vtype.TBag (Vtype.TTuple inner)
          when List.for_all (fun (n, _) -> not (List.mem_assoc n fs)) inner ->
            add (fun () ->
                if coin () then Query.flatten_inner g a !q
                else Query.flatten_outer g a !q)
        | _ -> ())
      fs;
    (* per-tuple aggregation over a single-attribute or primitive bag *)
    List.iter
      (fun (a, t) ->
        let eligible_inner =
          match t with
          | Vtype.TBag (Vtype.TTuple [ (_, it) ]) -> Some it
          | Vtype.TBag it when is_primitive it -> Some it
          | _ -> None
        in
        match eligible_inner with
        | Some it ->
            add (fun () ->
                let fn =
                  if is_numeric it then
                    pick [ Agg.Count; Agg.Count_distinct; Agg.Sum; Agg.Avg; Agg.Min; Agg.Max ]
                  else pick [ Agg.Count; Agg.Count_distinct ]
                in
                Query.agg_tuple g fn ~over:a ~into:(fresh ()) !q)
        | None -> ())
      fs;
    (* join against a freshly-renamed copy of orders, on an int or
       float attribute = oid (an Int = Float conjunct is no hash key)
       and sometimes a second conjunct *)
    add (fun () ->
        let o1 = fresh () and o2 = fresh () and o3 = fresh () in
        let r =
          Query.rename g [ (o1, "oid"); (o2, "item"); (o3, "qty") ]
            (Query.table g "orders")
        in
        let eq ok o =
          match List.filter (fun (_, t) -> ok t) fs with
          | [] -> []
          | cands -> [ Expr.Cmp (Expr.Eq, Expr.attr (fst (pick cands)), Expr.attr o) ]
        in
        let second () =
          if coin () then eq is_numeric o3 else eq (fun t -> t = Vtype.TString) o2
        in
        let pred =
          match if coin () then eq is_numeric o1 @ (if coin () then second () else []) else [] with
          | [] -> Expr.True
          | c :: cs -> List.fold_left (fun acc c -> Expr.And (acc, c)) c cs
        in
        Query.join g (pick [ Query.Inner; Query.Left; Query.Right; Query.Full ]) pred !q r);
    (* set operations against a relabeled copy of the query so far *)
    add (fun () ->
        let copy = Query.relabel g !q in
        if coin () then Query.union g !q copy else Query.diff g !q copy);
    let q' = (pick !candidates) () in
    match Typecheck.infer_result env q' with
    | Ok ty ->
        q := q';
        fields := fields_of_ty ty
    | Error _ -> ()
  done;
  !q


(* A small random database over the schema: nullable fields, repeated
   values, and [addrs] bags that are empty, Null or repeat an element. *)
let gen_db rs : Relation.Db.t =
  let open QCheck.Gen in
  let nullable v = if int_bound 4 rs = 0 then Value.Null else v in
  let pick l = List.nth l (int_bound (List.length l - 1) rs) in
  let addr () =
    Value.tuple
      [
        ("city", nullable (Value.String (pick [ "NY"; "LA"; "SF" ])));
        ("year", nullable (Value.Int (2017 + int_bound 3 rs)));
      ]
  in
  let addrs () =
    if int_bound 6 rs = 0 then Value.Null
    else
      let one = addr () in
      Value.bag_of_list
        (List.init (int_bound 3 rs) (fun i -> if i = 2 then one else addr ()))
  in
  let person () =
    Value.tuple
      [
        ("name", nullable (Value.String (pick [ "Sue"; "Peter"; "Ann" ])));
        ("age", nullable (Value.Int (int_bound 4 rs)));
        ("score", nullable (Value.Float (pick [ 0.5; -2.25; 3. ])));
        ("active", nullable (Value.Bool (bool rs)));
        ("addrs", addrs ());
      ]
  in
  let order () =
    Value.tuple
      [
        ("oid", nullable (Value.Int (int_bound 4 rs)));
        ("item", nullable (Value.String (pick [ "tea"; "pen" ])));
        ("qty", nullable (Value.Int (int_bound 3 rs)));
      ]
  in
  let rows f = List.init (int_bound 7 rs) (fun _ -> f ()) in
  Relation.Db.of_list
    [
      ("people", Relation.of_tuples ~schema:people_schema (rows person));
      ("orders", Relation.of_tuples ~schema:orders_schema (rows order));
    ]
