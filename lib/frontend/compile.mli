(** End-to-end frontend: text → tokens → surface AST → typed
    [Nrab.Query].

    [text] auto-detects the concrete syntax: input whose first
    non-whitespace character is ['('] or [';'] is parsed as the legacy
    s-expression syntax ([Nrab.Parser]), anything else as SQL-ish.
    Both paths end in the same place — a query that type-checked
    against [env] — and both report failures as {!Diagnostic.t}. *)

open Nrab

type syntax = [ `Sql | `Sexp ]

val detect : string -> syntax

(** Schema environment of a database: table name → relation type
    ({!Nrab.Eval.schema_env}). *)
val env_of_db : Nested.Relation.Db.t -> Typecheck.env

(** Compile SQL-ish text.  Fresh operator ids come from [gen]
    (default: a new generator starting at 1). *)
val sql :
  env:Typecheck.env ->
  ?gen:Query.Gen.t ->
  string ->
  (Query.t * Nested.Vtype.t, Diagnostic.t) result

(** Compile s-expression text through [Nrab.Parser] + [Nrab.Typecheck],
    wrapping failures as diagnostics. *)
val sexp :
  env:Typecheck.env ->
  ?gen:Query.Gen.t ->
  string ->
  (Query.t * Nested.Vtype.t, Diagnostic.t) result

(** [sql] or [sexp] according to {!detect}. *)
val text :
  env:Typecheck.env ->
  ?gen:Query.Gen.t ->
  string ->
  (Query.t * Nested.Vtype.t, Diagnostic.t) result
