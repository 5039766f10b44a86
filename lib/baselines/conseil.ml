(* Conseil — the hybrid lineage-based baseline [Herschel, JDIQ 2015].

   Unlike Why-Not, Conseil keeps tracing past a picky operator (as if it
   were repaired) and returns the *combined* set of operators that prune
   successors of a compatible on its way to the output.  Like Why-Not it
   performs no re-validation downstream of flattening and no content check
   on what the repaired operators would actually produce — in scenario C3
   it reports a join that could only be "fixed" by a cross product. *)

module Int_set = Set.Make (Int)

let explanations ?parent (phi : Whynot.Question.t) : Explanation_set.t list =
  Obs.Span.with_ ?parent "conseil.explain" @@ fun root ->
  let info =
    Obs.Span.with_ ~parent:root "tracing" (fun _ ->
        Lineage.original_trace phi)
  in
  Obs.Span.with_ ~parent:root "failure-sets" @@ fun _ ->
  let q = info.Lineage.query in
  (* follow successors also through rows that only a repair admits *)
  let successor = Lineage.successor_rids ~surviving_only:false info in
  let fs = Whynot.Msr.failure_sets info.Lineage.trace in
  (* the sets of the successor root rows, each prepended in turn *)
  let sets =
    let tr = info.Lineage.trace in
    match Whynot.Tracing.op_trace tr tr.Whynot.Tracing.root_op with
    | None -> []
    | Some ot ->
      let r0 = Whynot.Tracing.rid0 ot in
      let acc = ref [] in
      for i = 0 to Whynot.Tracing.n_rows ot - 1 do
        if Hashtbl.mem successor (r0 + i) then
          acc :=
            Whynot.Msr.Set_set.fold
              (fun s acc -> if Int_set.is_empty s then acc else s :: acc)
              (fs (r0 + i)) !acc
      done;
      !acc
  in
  match
    List.sort (fun a b -> compare (Int_set.cardinal a) (Int_set.cardinal b)) sets
  with
  | smallest :: _ ->
    (* the smallest operator set along a compatible's derivation *)
    [ Explanation_set.make q smallest ]
  | [] -> (
    (* no compatible derivation reaches the output even under relaxation:
       report the operators where the successors die *)
    match Lineage.picky_ops ~surviving_only:false info successor with
    | [] -> []
    | picky -> [ Explanation_set.make q (Int_set.of_list picky) ])
