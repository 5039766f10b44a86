(* Surface syntax for NRAB queries, predicates, and expressions, plus
   printers producing the same syntax (round-trip tested).

   Queries are s-expressions:

     (nest (name) nList
       (project (name city)
         (select (>= year 2019)
           (flatten-inner address2 (table person)))))

   See [query_of_sexp] below for the full grammar. *)

open Nested

exception Parse_error = Sexp.Parse_error

let fail = Sexp.fail

(* --- expressions --- *)

let rec expr_of_sexp (s : Sexp.t) : Expr.t =
  match s with
  | Sexp.Atom a -> (
    match int_of_string_opt a with
    | Some i -> Expr.int i
    | None -> (
      match float_of_string_opt a with
      | Some f when String.contains a '.' -> Expr.flt f
      | _ ->
        if String.length a >= 1 && a.[0] = '\'' then
          (* 'quoted atoms are string constants *)
          Expr.str (String.sub a 1 (String.length a - 1))
        else Expr.attr a))
  | Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ] -> Expr.str s
  | Sexp.List [ Sexp.Atom "bool"; Sexp.Atom (("true" | "false") as b) ] ->
    Expr.const (Value.Bool (String.equal b "true"))
  | Sexp.List [ Sexp.Atom op; a; b ] -> (
    let ea = expr_of_sexp a and eb = expr_of_sexp b in
    match op with
    | "+" -> Expr.Add (ea, eb)
    | "-" -> Expr.Sub (ea, eb)
    | "*" -> Expr.Mul (ea, eb)
    | "/" -> Expr.Div (ea, eb)
    | other -> fail "unknown expression operator %s" other)
  | other -> fail "invalid expression %s" (Sexp.to_string other)

let rec expr_to_sexp (e : Expr.t) : Sexp.t =
  match e with
  | Expr.Const (Value.Int i) -> Sexp.Atom (string_of_int i)
  | Expr.Const (Value.Float f) -> Sexp.Atom (Fmt.str "%F" f)
  | Expr.Const (Value.String s) -> Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ]
  | Expr.Const (Value.Bool b) ->
    Sexp.List [ Sexp.Atom "bool"; Sexp.Atom (string_of_bool b) ]
  | Expr.Const v -> fail "cannot print constant %a" Value.pp v
  | Expr.Attr a -> Sexp.Atom a
  | Expr.Add (a, b) -> Sexp.List [ Sexp.Atom "+"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Sub (a, b) -> Sexp.List [ Sexp.Atom "-"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Mul (a, b) -> Sexp.List [ Sexp.Atom "*"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Div (a, b) -> Sexp.List [ Sexp.Atom "/"; expr_to_sexp a; expr_to_sexp b ]

(* --- predicates --- *)

let cmp_of_string = function
  | "=" -> Some Expr.Eq
  | "!=" -> Some Expr.Neq
  | "<" -> Some Expr.Lt
  | "<=" -> Some Expr.Le
  | ">" -> Some Expr.Gt
  | ">=" -> Some Expr.Ge
  | _ -> None

let cmp_to_string = function
  | Expr.Eq -> "="
  | Expr.Neq -> "!="
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="

let rec pred_of_sexp (s : Sexp.t) : Expr.pred =
  match s with
  | Sexp.Atom "true" -> Expr.True
  | Sexp.Atom "false" -> Expr.False
  | Sexp.List [ Sexp.Atom "and"; a; b ] -> Expr.And (pred_of_sexp a, pred_of_sexp b)
  | Sexp.List [ Sexp.Atom "or"; a; b ] -> Expr.Or (pred_of_sexp a, pred_of_sexp b)
  | Sexp.List [ Sexp.Atom "not"; a ] -> Expr.Not (pred_of_sexp a)
  | Sexp.List [ Sexp.Atom "is-null"; e ] -> Expr.IsNull (expr_of_sexp e)
  | Sexp.List [ Sexp.Atom "not-null"; e ] -> Expr.IsNotNull (expr_of_sexp e)
  | Sexp.List [ Sexp.Atom "contains"; e; Sexp.Atom needle ] ->
    Expr.Contains (expr_of_sexp e, needle)
  | Sexp.List [ Sexp.Atom op; a; b ] -> (
    match cmp_of_string op with
    | Some c -> Expr.Cmp (c, expr_of_sexp a, expr_of_sexp b)
    | None -> fail "unknown predicate operator %s" op)
  | other -> fail "invalid predicate %s" (Sexp.to_string other)

let rec pred_to_sexp (p : Expr.pred) : Sexp.t =
  match p with
  | Expr.True -> Sexp.Atom "true"
  | Expr.False -> Sexp.Atom "false"
  | Expr.And (a, b) -> Sexp.List [ Sexp.Atom "and"; pred_to_sexp a; pred_to_sexp b ]
  | Expr.Or (a, b) -> Sexp.List [ Sexp.Atom "or"; pred_to_sexp a; pred_to_sexp b ]
  | Expr.Not a -> Sexp.List [ Sexp.Atom "not"; pred_to_sexp a ]
  | Expr.IsNull e -> Sexp.List [ Sexp.Atom "is-null"; expr_to_sexp e ]
  | Expr.IsNotNull e -> Sexp.List [ Sexp.Atom "not-null"; expr_to_sexp e ]
  | Expr.Contains (e, needle) ->
    Sexp.List [ Sexp.Atom "contains"; expr_to_sexp e; Sexp.Atom needle ]
  | Expr.Cmp (c, a, b) ->
    Sexp.List [ Sexp.Atom (cmp_to_string c); expr_to_sexp a; expr_to_sexp b ]

(* --- queries --- *)

(* (label, attr) pairs for nest/groupby attribute lists: a bare NAME
   stands for (NAME NAME); a (LABEL NAME) pair relabels the attribute in
   the output — the printable form of [Query.nest_rel_labeled] and
   friends. *)
let pairs_of_sexp (s : Sexp.t) : (string * string) list =
  let item = function
    | Sexp.Atom a -> (a, a)
    | Sexp.List [ Sexp.Atom label; Sexp.Atom attr ] -> (label, attr)
    | other -> fail "expected name or (label name), got %s" (Sexp.to_string other)
  in
  match s with Sexp.List els -> List.map item els | atom -> [ item atom ]

let pairs_to_sexp (pairs : (string * string) list) : Sexp.t =
  Sexp.List
    (List.map
       (fun (label, attr) ->
         if String.equal label attr then Sexp.Atom attr
         else Sexp.List [ Sexp.Atom label; Sexp.Atom attr ])
       pairs)

let agg_fn_of_string = function
  | "sum" -> Agg.Sum
  | "count" -> Agg.Count
  | "count-distinct" -> Agg.Count_distinct
  | "avg" -> Agg.Avg
  | "min" -> Agg.Min
  | "max" -> Agg.Max
  | other -> fail "unknown aggregation function %s" other

let agg_fn_to_string = function
  | Agg.Sum -> "sum"
  | Agg.Count -> "count"
  | Agg.Count_distinct -> "count-distinct"
  | Agg.Avg -> "avg"
  | Agg.Min -> "min"
  | Agg.Max -> "max"

let join_kind_of_string = function
  | "inner" -> Query.Inner
  | "left" -> Query.Left
  | "right" -> Query.Right
  | "full" -> Query.Full
  | other -> fail "unknown join kind %s" other

let join_kind_to_string = function
  | Query.Inner -> "inner"
  | Query.Left -> "left"
  | Query.Right -> "right"
  | Query.Full -> "full"

let query_of_sexp ?(gen = Query.Gen.create ()) (s : Sexp.t) : Query.t =
  let rec go (s : Sexp.t) : Query.t =
    match s with
    | Sexp.List [ Sexp.Atom "table"; Sexp.Atom name ] -> Query.table gen name
    | Sexp.List [ Sexp.Atom "select"; p; q ] ->
      Query.select gen (pred_of_sexp p) (go q)
    | Sexp.List [ Sexp.Atom "project"; Sexp.List cols; q ] ->
      let col = function
        | Sexp.Atom a -> (a, Expr.attr a)
        | Sexp.List [ Sexp.Atom name; e ] -> (name, expr_of_sexp e)
        | other -> fail "invalid projection column %s" (Sexp.to_string other)
      in
      Query.project gen (List.map col cols) (go q)
    | Sexp.List [ Sexp.Atom "rename"; Sexp.List pairs; q ] ->
      let pair = function
        | Sexp.List [ Sexp.Atom fresh; Sexp.Atom old ] -> (fresh, old)
        | other -> fail "invalid rename pair %s" (Sexp.to_string other)
      in
      Query.rename gen (List.map pair pairs) (go q)
    | Sexp.List [ Sexp.Atom "join"; Sexp.Atom kind; p; l; r ] ->
      Query.join gen (join_kind_of_string kind) (pred_of_sexp p) (go l) (go r)
    | Sexp.List [ Sexp.Atom "product"; l; r ] -> Query.product gen (go l) (go r)
    | Sexp.List [ Sexp.Atom "union"; l; r ] -> Query.union gen (go l) (go r)
    | Sexp.List [ Sexp.Atom "diff"; l; r ] -> Query.diff gen (go l) (go r)
    | Sexp.List [ Sexp.Atom "dedup"; q ] -> Query.dedup gen (go q)
    | Sexp.List [ Sexp.Atom "flatten-tuple"; Sexp.Atom a; q ] ->
      Query.flatten_tuple gen a (go q)
    | Sexp.List [ Sexp.Atom "flatten-inner"; Sexp.Atom a; q ] ->
      Query.flatten_inner gen a (go q)
    | Sexp.List [ Sexp.Atom "flatten-outer"; Sexp.Atom a; q ] ->
      Query.flatten_outer gen a (go q)
    | Sexp.List [ Sexp.Atom "nest-tuple"; attrs; Sexp.Atom into; q ] ->
      Query.nest_tuple_labeled gen (pairs_of_sexp attrs) ~into (go q)
    | Sexp.List [ Sexp.Atom "nest"; attrs; Sexp.Atom into; q ] ->
      Query.nest_rel_labeled gen (pairs_of_sexp attrs) ~into (go q)
    | Sexp.List [ Sexp.Atom "agg"; Sexp.Atom fn; Sexp.Atom over; Sexp.Atom into; q ]
      ->
      Query.agg_tuple gen (agg_fn_of_string fn) ~over ~into (go q)
    | Sexp.List [ Sexp.Atom "groupby"; group; Sexp.List aggs; q ] ->
      let agg = function
        | Sexp.List [ Sexp.Atom fn; Sexp.Atom "*"; Sexp.Atom out ] ->
          (agg_fn_of_string fn, None, out)
        | Sexp.List [ Sexp.Atom fn; Sexp.Atom attr; Sexp.Atom out ] ->
          (agg_fn_of_string fn, Some attr, out)
        | other -> fail "invalid aggregate %s" (Sexp.to_string other)
      in
      Query.group_agg_labeled gen (pairs_of_sexp group) (List.map agg aggs) (go q)
    | other -> fail "invalid query %s" (Sexp.to_string other)
  in
  go s

let query_to_sexp (q : Query.t) : Sexp.t =
  let atom a = Sexp.Atom a in
  let rec go (q : Query.t) : Sexp.t =
    match q.Query.node, q.Query.children with
    | Query.Table name, [] -> Sexp.List [ atom "table"; atom name ]
    | Query.Select p, [ c ] -> Sexp.List [ atom "select"; pred_to_sexp p; go c ]
    | Query.Project cols, [ c ] ->
      let col (name, e) =
        match e with
        | Expr.Attr a when String.equal a name -> atom name
        | _ -> Sexp.List [ atom name; expr_to_sexp e ]
      in
      Sexp.List [ atom "project"; Sexp.List (List.map col cols); go c ]
    | Query.Rename pairs, [ c ] ->
      Sexp.List
        [
          atom "rename";
          Sexp.List (List.map (fun (f, o) -> Sexp.List [ atom f; atom o ]) pairs);
          go c;
        ]
    | Query.Join (kind, p), [ l; r ] ->
      Sexp.List
        [ atom "join"; atom (join_kind_to_string kind); pred_to_sexp p; go l; go r ]
    | Query.Product, [ l; r ] -> Sexp.List [ atom "product"; go l; go r ]
    | Query.Union, [ l; r ] -> Sexp.List [ atom "union"; go l; go r ]
    | Query.Diff, [ l; r ] -> Sexp.List [ atom "diff"; go l; go r ]
    | Query.Dedup, [ c ] -> Sexp.List [ atom "dedup"; go c ]
    | Query.Flatten_tuple a, [ c ] -> Sexp.List [ atom "flatten-tuple"; atom a; go c ]
    | Query.Flatten (Query.Flat_inner, a), [ c ] ->
      Sexp.List [ atom "flatten-inner"; atom a; go c ]
    | Query.Flatten (Query.Flat_outer, a), [ c ] ->
      Sexp.List [ atom "flatten-outer"; atom a; go c ]
    | Query.Nest_tuple (pairs, into), [ c ] ->
      Sexp.List [ atom "nest-tuple"; pairs_to_sexp pairs; atom into; go c ]
    | Query.Nest_rel (pairs, into), [ c ] ->
      Sexp.List [ atom "nest"; pairs_to_sexp pairs; atom into; go c ]
    | Query.Agg_tuple (fn, over, into), [ c ] ->
      Sexp.List [ atom "agg"; atom (agg_fn_to_string fn); atom over; atom into; go c ]
    | Query.Group_agg (group, aggs), [ c ] ->
      let agg (fn, a, out) =
        Sexp.List
          [
            atom (agg_fn_to_string fn);
            atom (match a with Some a -> a | None -> "*");
            atom out;
          ]
      in
      Sexp.List
        [ atom "groupby"; pairs_to_sexp group; Sexp.List (List.map agg aggs); go c ]
    | _ -> fail "malformed query"
  in
  go q

(* --- entry points --- *)

let query_of_string ?gen (s : string) : Query.t =
  query_of_sexp ?gen (Sexp.of_string s)

let query_to_string (q : Query.t) : string = Sexp.to_string (query_to_sexp q)
