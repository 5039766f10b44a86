(* Partitioned datasets — the engine's unit of distribution.

   A dataset is an array of partitions.  Each partition holds tuples
   already expanded to their multiplicities (like rows of a Spark
   DataFrame), stored as a columnar {!Columnar.t} batch; operators move
   contiguous column slices. *)

type t = Columnar.t array

let cardinal d = Array.fold_left (fun acc b -> acc + Columnar.length b) 0 d

(* Round-robin distribution of a columnar batch: partition [i] takes
   rows [i, i+n, ...], in order. *)
let distribute_batch ~partitions:n (b : Columnar.t) : t =
  let n = max 1 n in
  let total = Columnar.length b in
  Array.init n (fun i ->
      let m = if total <= i then 0 else 1 + ((total - i - 1) / n) in
      Columnar.gather b (Array.init m (fun j -> i + (j * n))))

(* Repartition by a per-row destination hash (a shuffle): [hash_of]
   produces one destination hash per row of a batch; moved rows travel
   as contiguous gathered column slices, and the bytes shipped are
   reported on the [engine.columnar.bytes_moved] counter. *)
let shuffle_hashed ~partitions:n (hash_of : Columnar.t -> int array) (d : t) :
    t * int =
  let n = max 1 n in
  let moved = ref 0 and bytes = ref 0 in
  let dests = Array.make n [] in
  Array.iteri
    (fun src b ->
      let h = hash_of b in
      let idxs = Array.make n [] in
      Array.iteri
        (fun i hv ->
          (* [land max_int] rather than [abs]: [abs min_int] is negative
             (it overflows), which would make [dst] out of bounds. *)
          let dst = hv land max_int mod n in
          if dst <> src then incr moved;
          idxs.(dst) <- i :: idxs.(dst))
        h;
      for dst = 0 to n - 1 do
        match idxs.(dst) with
        | [] -> ()
        | l ->
          let slice = Columnar.gather b (Array.of_list (List.rev l)) in
          if dst <> src then bytes := !bytes + Columnar.bytes slice;
          dests.(dst) <- slice :: dests.(dst)
      done)
    d;
  Columnar.note_bytes_moved !bytes;
  (Array.map (fun l -> Columnar.vstack (List.rev l)) dests, !moved)

(* Collapse to a single partition (a gather). *)
let gather (d : t) : t * int =
  let b = Columnar.vstack (Array.to_list d) in
  Columnar.note_bytes_moved (Columnar.bytes b);
  ([| b |], Columnar.length b)
