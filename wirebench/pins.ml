(* Pinned explanations.  [expected/<workload>.json] holds one entry per
   (scenario, scale, options) key — the ranked explanation list, compared
   by its canonical encoding so that timings, cache disposition and
   presentation fields never matter — plus the fingerprint the [parse]
   request must answer.  Only [main.exe pin] rewrites these files. *)

open Nested

let dir = Filename.concat "wirebench" "expected"
let path workload = Filename.concat dir (workload ^ ".json")

(* The comparison form: decoded and re-encoded, so only the fields of
   [Whynot.Explanation.t] take part (rank and pretty are dropped). *)
let canonical es = Json.to_line (Serve.Codec.explanations_to_json es)

let canonical_of_json j = canonical (Serve.Codec.explanations_of_json j)

let member name = function
  | Json.J_object fields -> List.assoc_opt name fields
  | _ -> None

(* pin id → canonical explanations, or the expected fingerprint *)
type t = (string, string) Hashtbl.t

let load workload : t =
  let p = path workload in
  if not (Sys.file_exists p) then
    failwith (Fmt.str "no pinned explanations at %s (run main.exe pin)" p);
  let j = Json.of_string (In_channel.with_open_bin p In_channel.input_all) in
  let t = Hashtbl.create 256 in
  let add pin =
    match (member "key" pin, member "explanations" pin, member "fingerprint" pin) with
    | Some (Json.J_string k), Some es, None -> Hashtbl.replace t k (canonical_of_json es)
    | Some (Json.J_string k), None, Some (Json.J_string fp) -> Hashtbl.replace t k fp
    | _ -> failwith (Fmt.str "%s: malformed pin %s" p (Json.to_line pin))
  in
  (match member "pins" j with
  | Some (Json.J_array pins) -> List.iter add pins
  | _ -> failwith (Fmt.str "%s: no \"pins\" array" p));
  t

let find (t : t) id =
  match Hashtbl.find_opt t id with
  | Some v -> v
  | None -> failwith (Fmt.str "no pin for %s (run main.exe pin)" id)

type entry =
  | Explanations of string * Whynot.Explanation.t list
  | Fingerprint of string * string

(* One pin per line, so a re-pin diffs key by key. *)
let save workload entries =
  let pin = function
    | Explanations (k, es) ->
      Json.J_object
        [ ("key", Json.J_string k); ("explanations", Serve.Codec.explanations_to_json es) ]
    | Fingerprint (k, fp) ->
      Json.J_object [ ("key", Json.J_string k); ("fingerprint", Json.J_string fp) ]
  in
  Out_channel.with_open_bin (path workload) (fun oc ->
      Printf.fprintf oc "{\"workload\": %s,\n \"pins\": [\n"
        (Json.to_line (Json.J_string workload));
      List.iteri
        (fun i e ->
          if i > 0 then output_string oc ",\n";
          output_string oc ("  " ^ Json.to_line (pin e)))
        entries;
      output_string oc "\n ]}\n")
