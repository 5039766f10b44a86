(* The full output of the reparameterization search, in order, pinned in
   [search_pins.expected] (see the diff rule in [dune]):

   - [Repair.suggest ~max_suggestions:max_int] on every RP explanation of
     the running example [RE] at scale 1: each suggestion's changed
     operator ids, replacement nodes and side effects;
   - [Exact.successful ~max_ops:2 ~depth:1] on the crime scenario [C2]:
     each successful reparameterization's changed operators and tree
     edit distance.

   The other search tests check properties; these pins also fix the
   enumeration order and the tie-breaking among equal side effects. *)

let instance name =
  let s = Option.get (Scenarios.Registry.find name) in
  s.Scenarios.Scenario.make ~scale:1 ()

let ids set = String.concat "," (List.map string_of_int (Whynot.Msr.Int_set.elements set))

let repairs () =
  let inst = instance "RE" in
  let phi = inst.Scenarios.Scenario.question in
  let q = phi.Whynot.Question.query in
  let rp =
    Whynot.Pipeline.explain ~alternatives:inst.Scenarios.Scenario.alternatives
      phi
  in
  Fmt.pr "== RE repairs ==@.";
  List.iter
    (fun e ->
      Fmt.pr "-- %s@." (Whynot.Explanation.to_string_with_query q e);
      List.iter
        (fun (s : Whynot.Repair.suggestion) ->
          Fmt.pr "side_effects=%d %s@." s.Whynot.Repair.side_effects
            (String.concat " ; "
               (List.map
                  (fun (id, node) -> Fmt.str "%d:%a" id Nrab.Query.pp_node node)
                  s.Whynot.Repair.changes)))
        (Whynot.Repair.suggest ~max_suggestions:max_int phi e))
    rp.Whynot.Pipeline.explanations

let exact () =
  let phi = (instance "C2").Scenarios.Scenario.question in
  Fmt.pr "== C2 exact successful ==@.";
  List.iter
    (fun (sr : Whynot.Exact.sr) ->
      Fmt.pr "{%s} distance=%d@." (ids sr.Whynot.Exact.changed)
        sr.Whynot.Exact.distance)
    (Whynot.Exact.successful ~max_ops:2 ~depth:1 phi)

let () =
  repairs ();
  exact ()
