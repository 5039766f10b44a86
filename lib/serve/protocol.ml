(* Line-delimited JSON wire protocol: request parsing and response
   serialization.  Queries and why-not patterns are embedded in their
   existing s-expression surface syntaxes; the JSON layer reuses
   Nested.Json (no external dependency). *)

open Nested
open Nrab

type explain_options = {
  use_sas : bool;
  max_sas : int;
  revalidate : bool;
  sample_stride : int option;
  top_k : int option;
}

let default_options =
  {
    use_sas = true;
    max_sas = 16;
    revalidate = true;
    sample_stride = None;
    top_k = None;
  }

type query_text = [ `Ast of Query.t | `Sql of string ]

type request =
  | Register of { dataset : string; scale : int; seed : int; refresh : bool }
  | Explain of {
      dataset : string;
      scale : int;
      seed : int;
      query : query_text option;
      query_name : string option;
      pattern : Whynot.Nip.t option;
      options : explain_options;
      deadline_ms : float option;
      budget_ms : float option;
    }
  | Parse of {
      dataset : string;
      scale : int;
      seed : int;
      query : string option;
      pattern : string option;
    }
  | Register_query of {
      name : string;
      dataset : string;
      scale : int;
      seed : int;
      query : string;
      pattern : string option;
    }
  | List_queries of { dataset : string option; scale : int; seed : int }
  | Stats
  | Telemetry of { format : [ `Prometheus | `Json ] }
  | Evict of { dataset : string option; scale : int; seed : int; cache : bool }
  | Shutdown

type envelope = { req : request; trace_id : string option }

(* -- request parsing ----------------------------------------------------- *)

exception Bad of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad m)) fmt

let member name = function
  | Json.J_object fields -> List.assoc_opt name fields
  | _ -> None

let get_string name j =
  match member name j with
  | Some (Json.J_string s) -> Some s
  | Some _ -> bad "field %S must be a string" name
  | None -> None

let get_int ?default name j =
  match member name j with
  | Some (Json.J_int n) -> n
  | Some _ -> bad "field %S must be an integer" name
  | None -> ( match default with Some d -> d | None -> bad "missing field %S" name)

let get_bool ~default name j =
  match member name j with
  | Some (Json.J_bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name
  | None -> default

let get_float_opt name j =
  match member name j with
  | Some (Json.J_float f) -> Some f
  | Some (Json.J_int n) -> Some (float_of_int n)
  | Some _ -> bad "field %S must be a number" name
  | None -> None

let get_int_opt name j =
  match member name j with
  | Some (Json.J_int n) -> Some n
  | Some _ -> bad "field %S must be an integer" name
  | None -> None

let required_string name j =
  match get_string name j with
  | Some s -> s
  | None -> bad "missing field %S" name

(* An s-expression query is parsed right here (it needs no schema, and a
   malformed one should fail the request before any handler runs); SQL
   text is deferred to the handler, where the dataset's schema
   environment is available for typechecking. *)
let parse_query j =
  match get_string "query" j with
  | None -> None
  | Some text -> (
    match Frontend.Compile.detect text with
    | `Sql -> Some (`Sql text)
    | `Sexp -> (
      try Some (`Ast (Parser.query_of_string text))
      with Parser.Parse_error m | Sexp.Parse_error m ->
        bad "cannot parse \"query\": %s" m))

let parse_pattern j =
  match get_string "whynot" j with
  | None -> None
  | Some text -> (
    try Some (Whynot.Nip_syntax.of_string text)
    with Whynot.Nip_syntax.Parse_error m | Sexp.Parse_error m ->
      bad "cannot parse \"whynot\": %s" m)

let positive name = function
  | Some n when n < 1 -> bad "field %S must be >= 1" name
  | v -> v

let parse_options j =
  {
    use_sas = get_bool ~default:default_options.use_sas "use_sas" j;
    max_sas = get_int ~default:default_options.max_sas "max_sas" j;
    revalidate = get_bool ~default:default_options.revalidate "revalidate" j;
    sample_stride = positive "sample_stride" (get_int_opt "sample_stride" j);
    top_k = positive "top_k" (get_int_opt "top_k" j);
  }

let request_of_json (j : Json.json) : (request, string) result =
  try
    match get_string "op" j with
    | None -> Error "missing field \"op\""
    | Some "register" ->
      Ok
        (Register
           {
             dataset = required_string "dataset" j;
             scale = get_int ~default:1 "scale" j;
             seed = get_int ~default:0 "seed" j;
             refresh = get_bool ~default:false "refresh" j;
           })
    | Some "explain" ->
      Ok
        (Explain
           {
             dataset = required_string "dataset" j;
             scale = get_int ~default:1 "scale" j;
             seed = get_int ~default:0 "seed" j;
             query = parse_query j;
             query_name = get_string "query_name" j;
             pattern = parse_pattern j;
             options = parse_options j;
             deadline_ms = get_float_opt "deadline_ms" j;
             budget_ms = get_float_opt "budget_ms" j;
           })
    | Some "parse" ->
      let query = get_string "query" j and pattern = get_string "whynot" j in
      if query = None && pattern = None then
        Error "a parse request needs a \"query\" or a \"whynot\" pattern"
      else
        Ok
          (Parse
             {
               dataset = required_string "dataset" j;
               scale = get_int ~default:1 "scale" j;
               seed = get_int ~default:0 "seed" j;
               query;
               pattern;
             })
    | Some "register_query" ->
      Ok
        (Register_query
           {
             name = required_string "name" j;
             dataset = required_string "dataset" j;
             scale = get_int ~default:1 "scale" j;
             seed = get_int ~default:0 "seed" j;
             query = required_string "query" j;
             pattern = get_string "whynot" j;
           })
    | Some "list_queries" ->
      Ok
        (List_queries
           {
             dataset = get_string "dataset" j;
             scale = get_int ~default:1 "scale" j;
             seed = get_int ~default:0 "seed" j;
           })
    | Some "stats" -> Ok Stats
    | Some "telemetry" ->
      let format =
        match get_string "format" j with
        | None | Some "prometheus" -> `Prometheus
        | Some "json" -> `Json
        | Some f -> bad "unknown telemetry format %S (prometheus|json)" f
      in
      Ok (Telemetry { format })
    | Some "evict" ->
      Ok
        (Evict
           {
             dataset = get_string "dataset" j;
             scale = get_int ~default:1 "scale" j;
             seed = get_int ~default:0 "seed" j;
             cache = get_bool ~default:false "cache" j;
           })
    | Some "shutdown" -> Ok Shutdown
    | Some op -> Error (Fmt.str "unknown op %S" op)
  with Bad m -> Error m

let request_of_string line =
  match Json.of_string line with
  | exception Json.Parse_error m -> Error ("invalid JSON: " ^ m)
  | j -> request_of_json j

(* A client-supplied trace id rides in the optional "trace_id" field —
   validated (so a hostile id cannot smuggle spaces or quotes into log
   lines) and echoed verbatim on the response. *)
let envelope_of_json (j : Json.json) : (envelope, string) result =
  match
    match get_string "trace_id" j with
    | None -> Ok None
    | Some t when Obs.Trace_context.is_valid t -> Ok (Some t)
    | Some t ->
      Error
        (Fmt.str "invalid \"trace_id\" %S (1-64 chars of [A-Za-z0-9._:-])" t)
  with
  | exception Bad m -> Error m
  | Error m -> Error m
  | Ok trace_id -> (
    match request_of_json j with
    | Ok req -> Ok { req; trace_id }
    | Error m -> Error m)

let envelope_of_string line =
  match Json.of_string line with
  | exception Json.Parse_error m -> Error ("invalid JSON: " ^ m)
  | j -> envelope_of_json j

(* -- responses ----------------------------------------------------------- *)

type query_info = {
  q_name : string;
  q_dataset : string;
  q_fingerprint : string;
  q_sql : string option;
  q_sexp : string;
}

type error_code =
  | Bad_request
  | Invalid_query
  | Not_found
  | Overloaded
  | Deadline_exceeded
  | Task_failed
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Invalid_query -> "invalid_query"
  | Not_found -> "not_found"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Task_failed -> "task_failed"
  | Internal -> "internal"

type response =
  | Registered of {
      dataset : string;
      scale : int;
      seed : int;
      version : int;
      fresh : bool;
      rows : int;
      tables : (string * int) list;
    }
  | Explained of {
      dataset : string;
      version : int;
      cache : [ `Hit | `Miss | `Handle | `Coalesced ];
      result : Json.json;
    }
  | Parsed of {
      dataset : string;
      sql : string option;
      sexp : string option;
      fingerprint : string option;
      output_type : string option;
      pattern : string option;
    }
  | Query_registered of {
      name : string;
      dataset : string;
      fingerprint : string;
      sql : string option;
      sexp : string;
      replaced : bool;
    }
  | Queries of { dataset : string option; queries : query_info list }
  | Stats_reply of (string * Json.json) list
  | Telemetry_reply of { format : [ `Prometheus | `Json ]; metrics : Json.json }
  | Evicted of { datasets : int; cache_entries : int; queries : int }
  | Error of {
      code : error_code;
      message : string;
      details : Json.json option;  (** diagnostic payload, when there is one *)
    }
  | Goodbye

let response_to_json = function
  | Registered { dataset; scale; seed; version; fresh; rows; tables } ->
    Json.J_object
      [
        ("ok", Json.J_bool true);
        ("type", Json.J_string "registered");
        ("dataset", Json.J_string dataset);
        ("scale", Json.J_int scale);
        ("seed", Json.J_int seed);
        ("version", Json.J_int version);
        ("fresh", Json.J_bool fresh);
        ("rows", Json.J_int rows);
        ( "tables",
          Json.J_object (List.map (fun (n, c) -> (n, Json.J_int c)) tables) );
      ]
  | Explained { dataset; version; cache; result } ->
    Json.J_object
      [
        ("ok", Json.J_bool true);
        ("type", Json.J_string "explained");
        ("dataset", Json.J_string dataset);
        ("version", Json.J_int version);
        ( "cache",
          Json.J_string
            (match cache with
            | `Hit -> "hit"
            | `Miss -> "miss"
            | `Handle -> "handle"
            | `Coalesced -> "coalesced") );
        ("result", result);
      ]
  | Stats_reply sections ->
    Json.J_object
      (("ok", Json.J_bool true) :: ("type", Json.J_string "stats") :: sections)
  | Telemetry_reply { format; metrics } ->
    Json.J_object
      [
        ("ok", Json.J_bool true);
        ("type", Json.J_string "telemetry");
        ( "format",
          Json.J_string
            (match format with `Prometheus -> "prometheus" | `Json -> "json") );
        ("metrics", metrics);
      ]
  | Evicted { datasets; cache_entries; queries } ->
    Json.J_object
      [
        ("ok", Json.J_bool true);
        ("type", Json.J_string "evicted");
        ("datasets", Json.J_int datasets);
        ("cache_entries", Json.J_int cache_entries);
        ("queries", Json.J_int queries);
      ]
  | Parsed { dataset; sql; sexp; fingerprint; output_type; pattern } ->
    let opt name = function
      | None -> []
      | Some s -> [ (name, Json.J_string s) ]
    in
    Json.J_object
      ([
         ("ok", Json.J_bool true);
         ("type", Json.J_string "parsed");
         ("dataset", Json.J_string dataset);
       ]
      @ opt "sql" sql @ opt "sexp" sexp
      @ opt "fingerprint" fingerprint
      @ opt "output_type" output_type
      @ opt "whynot" pattern)
  | Query_registered { name; dataset; fingerprint; sql; sexp; replaced } ->
    Json.J_object
      ([
         ("ok", Json.J_bool true);
         ("type", Json.J_string "query_registered");
         ("name", Json.J_string name);
         ("dataset", Json.J_string dataset);
         ("fingerprint", Json.J_string fingerprint);
       ]
      @ (match sql with None -> [] | Some s -> [ ("sql", Json.J_string s) ])
      @ [ ("sexp", Json.J_string sexp); ("replaced", Json.J_bool replaced) ])
  | Queries { dataset; queries } ->
    let info q =
      Json.J_object
        ([
           ("name", Json.J_string q.q_name);
           ("dataset", Json.J_string q.q_dataset);
           ("fingerprint", Json.J_string q.q_fingerprint);
         ]
        @ (match q.q_sql with
          | None -> []
          | Some s -> [ ("sql", Json.J_string s) ])
        @ [ ("sexp", Json.J_string q.q_sexp) ])
    in
    Json.J_object
      ([ ("ok", Json.J_bool true); ("type", Json.J_string "queries") ]
      @ (match dataset with
        | None -> []
        | Some d -> [ ("dataset", Json.J_string d) ])
      @ [
          ("count", Json.J_int (List.length queries));
          ("queries", Json.J_array (List.map info queries));
        ])
  | Error { code; message; details } ->
    Json.J_object
      ([
         ("ok", Json.J_bool false);
         ("type", Json.J_string "error");
         ("code", Json.J_string (error_code_to_string code));
         ("message", Json.J_string message);
       ]
      @ match details with None -> [] | Some d -> [ ("details", d) ])
  | Goodbye ->
    Json.J_object [ ("ok", Json.J_bool true); ("type", Json.J_string "goodbye") ]

(* [?trace_id] (the client-supplied id, when there was one) is echoed as
   a trailing "trace_id" field — last, so transcripts without ids are
   byte-identical to the pre-telemetry protocol. *)
let response_to_json ?trace_id r =
  let j = response_to_json r in
  match (trace_id, j) with
  | Some t, Json.J_object fields ->
    Json.J_object (fields @ [ ("trace_id", Json.J_string t) ])
  | _ -> j

let response_to_string ?trace_id r = Json.to_line (response_to_json ?trace_id r)

let bad_request message = Error { code = Bad_request; message; details = None }
let not_found message = Error { code = Not_found; message; details = None }

(* A frontend diagnostic as a typed error response: the one-line message
   plus the structured payload (stage, span, snippet, hint) under
   "details". *)
let invalid_query ~source (d : Frontend.Diagnostic.t) =
  Error
    {
      code = Invalid_query;
      message = Frontend.Diagnostic.one_line ~source d;
      details = Some (Frontend.Diagnostic.to_json ~source d);
    }
