(** Surface syntax for NRAB queries, predicates, and expressions.

    Queries are s-expressions, e.g. the paper's running example:

    {v
 (nest (name) nList
   (project (name city)
     (select (>= year 2019)
       (flatten-inner address2 (table person)))))
    v}

    Grammar (see {!query_of_sexp}):
    - [(table NAME)]
    - [(select PRED Q)]
    - [(project (COL ...) Q)] where [COL := NAME | (NAME EXPR)]
    - [(rename ((NEW OLD) ...) Q)]
    - [(join KIND PRED Q Q)] with [KIND ∈ inner|left|right|full]
    - [(product Q Q)], [(union Q Q)], [(diff Q Q)], [(dedup Q)]
    - [(flatten-tuple A Q)], [(flatten-inner A Q)], [(flatten-outer A Q)]
    - [(nest-tuple (N ...) C Q)], [(nest (N ...) C Q)] where
      [N := A | (LABEL A)] relabels the nested attribute in the output
    - [(agg FN A B Q)] — per-tuple aggregation
    - [(groupby (N ...) ((FN A OUT) ...) Q)] with [A = *] for count(·)

    Predicates: [true], [false], [(and P P)], [(or P P)], [(not P)],
    [(= E E)] (and [!=] [<] [<=] [>] [>=]), [(is-null E)], [(not-null E)],
    [(contains E TEXT)].  Expressions: attribute names, integer and float
    literals, [(str TEXT)], [(bool true)], [(bool false)], [(+ E E)]
    (and [-] [*] [/]). *)

exception Parse_error of string

val expr_of_sexp : Sexp.t -> Expr.t
val expr_to_sexp : Expr.t -> Sexp.t
val pred_of_sexp : Sexp.t -> Expr.pred
val pred_to_sexp : Expr.pred -> Sexp.t

(** Parse a query; operator ids come from [gen] (fresh by default). *)
val query_of_sexp : ?gen:Query.Gen.t -> Sexp.t -> Query.t

(** Print a query back to the surface syntax.  Relabeled
    nests/group-bys print their [(LABEL A)] pairs, so every checked
    query round-trips. *)
val query_to_sexp : Query.t -> Sexp.t

val query_of_string : ?gen:Query.Gen.t -> string -> Query.t
val query_to_string : Query.t -> string
