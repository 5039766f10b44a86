open Nrab

type syntax = [ `Sql | `Sexp ]

let detect (s : string) : syntax =
  let n = String.length s in
  let rec first i =
    if i >= n then None
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first (i + 1)
      | c -> Some c
  in
  match first 0 with Some ('(' | ';') -> `Sexp | _ -> `Sql

let env_of_db = Eval.schema_env

let fresh_gen = function Some g -> g | None -> Query.Gen.create ()

let sql ~env ?gen text =
  let gen = fresh_gen gen in
  match Parse.statement text with
  | Error d -> Error d
  | Ok ast -> Lower.statement ~env ~gen ast

let sexp ~env ?gen text =
  let gen = fresh_gen gen in
  try
    let q = Parser.query_of_sexp ~gen (Sexp.of_string_spanned text |> Sexp.strip) in
    match Typecheck.infer_result env q with
    | Ok ty -> Ok (q, ty)
    | Error e ->
        let where =
          match Query.find_op q e.Typecheck.op_id with
          | Some op -> Fmt.str "%s^%d" (Query.op_symbol op.Query.node) e.Typecheck.op_id
          | None -> Fmt.str "operator %d" e.Typecheck.op_id
        in
        Error
          (Diagnostic.makef `Type "ill-typed query at %s: %s" where
             e.Typecheck.message)
  with
  | Sexp.Parse_error_at { offset; message } ->
      Error
        (Diagnostic.make
           ~span:{ Diagnostic.left = offset; right = offset + 1 }
           `Parse message)
  | Sexp.Parse_error message -> Error (Diagnostic.make `Parse message)

let text ~env ?gen t =
  match detect t with `Sql -> sql ~env ?gen t | `Sexp -> sexp ~env ?gen t
