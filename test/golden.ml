(* The golden explanation corpus: every registry scenario at scale 1,
   explained exactly and with a stride-3 sampled trace.  Each explanation
   renders as its operator set plus side-effect bounds and schema
   alternative (and, for the sampled run, its confidence).  The corpus is
   pinned in [explanations.expected]; see the diff rule in [dune]. *)

let render_exact (q : Nrab.Query.t) (e : Whynot.Explanation.t) =
  Fmt.str "%s lb=%d ub=%d sa=%d"
    (Whynot.Explanation.to_string_with_query q e)
    e.Whynot.Explanation.side_effect_lb e.Whynot.Explanation.side_effect_ub
    e.Whynot.Explanation.sa

let render_sampled q (e : Whynot.Explanation.t) =
  Fmt.str "%s conf=%s" (render_exact q e)
    (match e.Whynot.Explanation.confidence with
    | None -> "-"
    | Some c -> Fmt.str "%.4f" c)

let header name = Fmt.str "== %s ==" name

(* One scenario's block: header, exact run, sampled run. *)
let block (s : Scenarios.Scenario.t) : string =
  let inst = s.Scenarios.Scenario.make ~scale:1 () in
  let phi = inst.Scenarios.Scenario.question in
  let q = phi.Whynot.Question.query in
  let explain ?approx () =
    (Whynot.Pipeline.explain ?approx
       ~alternatives:inst.Scenarios.Scenario.alternatives phi)
      .Whynot.Pipeline.explanations
  in
  let sampled =
    Whynot.Approx.start
      { Whynot.Approx.exact with Whynot.Approx.sample_stride = Some 3 }
  in
  String.concat "\n"
    ([ header s.Scenarios.Scenario.name; "-- exact" ]
    @ List.map (render_exact q) (explain ())
    @ [ "-- sampled stride 3" ]
    @ List.map (render_sampled q) (explain ~approx:sampled ()))
  ^ "\n"

let corpus () = String.concat "" (List.map block Scenarios.Registry.all)

(* Split a corpus back into [(scenario name, block)] pairs. *)
let parse (text : string) : (string * string) list =
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> List.rev rest
    | all -> List.rev all
  in
  let name_of l =
    let n = String.length l in
    if n > 6 && String.sub l 0 3 = "== " && String.sub l (n - 3) 3 = " ==" then
      Some (String.sub l 3 (n - 6))
    else None
  in
  let close acc = function
    | None -> acc
    | Some (name, ls) -> (name, String.concat "\n" (List.rev ("" :: ls))) :: acc
  in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) l ->
        match (name_of l, cur) with
        | Some name, _ -> (close acc cur, Some (name, [ l ]))
        | None, Some (name, ls) -> (acc, Some (name, l :: ls))
        | None, None -> (acc, None))
      ([], None) lines
  in
  List.rev (close acc cur)
