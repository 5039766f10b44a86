(* Partitioned datasets — the engine's unit of distribution.

   A dataset is an array of partitions.  Each partition holds tuples
   already expanded to their multiplicities (like rows of a Spark
   DataFrame), stored as a columnar {!Columnar.t} batch — in memory or
   behind a checkpoint file.  [to_list] reconstructs rows on demand, so
   callers that think in trees keep working while operators move
   contiguous column slices. *)

open Nested

(* A checkpointed partition: durable on disk at [ck_path], usually also
   cached in memory.  [ck_state] says why the cache is empty — [Lost]
   (a recovery dropped it, so the next fetch is a replay-from-
   checkpoint) or [Spilled] (the memory watermark evicted it) — which
   is exactly the attribution the recover/spill counters need.
   [ck_recompute] is the lineage fallback: re-derive this partition
   from upstream when the file fails its CRC. *)
type ck_state = Live | Spilled | Lost

type ckpt = {
  ck_path : string;
  ck_rows : int;
  mutable ck_cache : Columnar.t option;
  mutable ck_state : ck_state;
  ck_recompute : (unit -> Columnar.t) option;
}

type part = Cols of Columnar.t | Ckpt of ckpt

type t = { parts : part array }

(* A spilled partition's file was its only copy (no lineage fallback)
   and failed its CRC on restore.  Spill files are verified at write
   time, so this means on-disk corruption or an external delete after
   the spill — a hard failure of the query, deliberately not
   [Fault.Transient]: re-reading the same bad file cannot succeed. *)
exception Spill_lost of string

let site_partition = Obs.Faultinject.register_site "engine.partition"
let site_shuffle_write = Obs.Faultinject.register_site "engine.shuffle.write"
let site_shuffle_read = Obs.Faultinject.register_site "engine.shuffle.read"
let m_from_ckpt = lazy (Obs.Metrics.counter "engine.recover.from_checkpoint")
let m_from_source = lazy (Obs.Metrics.counter "engine.recover.from_source")

let m_replayed =
  lazy (Obs.Metrics.counter "engine.recover.replayed_partitions")

let m_spill_bytes = lazy (Obs.Metrics.counter "engine.spill.bytes")
let m_spill_batches = lazy (Obs.Metrics.counter "engine.spill.batches")
let m_spill_restores = lazy (Obs.Metrics.counter "engine.spill.restores")

let m_write_failures =
  lazy (Obs.Metrics.counter "engine.checkpoint.write_failures")

let bump m = Obs.Metrics.Counter.incr (Lazy.force m)

(* Bring a checkpointed partition back into memory.  A CRC failure
   falls back to the lineage recompute (and best-effort re-writes the
   file); transient faults from the chaos site propagate so the
   enclosing task retry recovers them. *)
let ckpt_fetch (c : ckpt) : Columnar.t =
  match c.ck_cache with
  | Some b -> b
  | None ->
    let b =
      match
        Obs.Faultinject.fire site_shuffle_read;
        Checkpoint.read ~path:c.ck_path
      with
      | b ->
        (match c.ck_state with
        | Lost -> bump m_from_ckpt
        | Spilled -> bump m_spill_restores
        | Live -> ());
        b
      | exception Checkpoint.Corrupt msg -> (
        match c.ck_recompute with
        | None ->
          raise
            (Spill_lost
               (Fmt.str "spilled partition %s unreadable: %s" c.ck_path msg))
        | Some recompute ->
          bump m_from_source;
          let b = recompute () in
          (try ignore (Checkpoint.write ~path:c.ck_path b)
           with _ -> bump m_write_failures);
          b)
    in
    c.ck_cache <- Some b;
    c.ck_state <- Live;
    b

let part_cols = function
  | Cols b -> b
  | Ckpt c -> ckpt_fetch c

let part_length = function
  | Cols b -> Columnar.length b
  | Ckpt c -> c.ck_rows

let of_cpartitions batches = { parts = Array.map (fun b -> Cols b) batches }
let cpartitions d = Array.map part_cols d.parts
let cpartition d i = part_cols d.parts.(i)
let partition_count d = Array.length d.parts
let cardinal d = Array.fold_left (fun acc p -> acc + part_length p) 0 d.parts

let to_list (d : t) : Value.t list =
  List.concat_map
    (fun p -> Columnar.to_rows (part_cols p))
    (Array.to_list d.parts)

(* Hash of a value, stable across runs (no use of OCaml's randomized
   hashing).  {!Columnar.hash_col} vectorizes the identical function
   for shuffles. *)
let value_hash = Columnar.value_hash

(* Round-robin distribution of a columnar batch: partition [i] takes
   rows [i, i+n, ...], in order. *)
let distribute_cols ~partitions:n (b : Columnar.t) : t =
  let n = max 1 n in
  let total = Columnar.length b in
  { parts =
      Array.init n (fun i ->
          let m = if total <= i then 0 else 1 + ((total - i - 1) / n) in
          Cols (Columnar.gather b (Array.init m (fun j -> i + (j * n)))));
  }

(* Round-robin distribution of a list of tuples. *)
let distribute ~partitions rows =
  distribute_cols ~partitions (Columnar.of_rows rows)

(* Shuffle body, shared with the barrier recompute closures:
   [hash_of] produces one destination hash per row of a batch; moved
   rows travel as contiguous gathered column slices, and the bytes
   shipped are reported on the [engine.columnar.bytes_moved] counter. *)
let shuffle_hashed_raw ~partitions:n (hash_of : Columnar.t -> int array)
    (d : t) : Columnar.t array * int =
  let n = max 1 n in
  let bs = cpartitions d in
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
    bs;
  Columnar.note_bytes_moved !bytes;
  (Array.map (fun l -> Columnar.vstack (List.rev l)) dests, !moved)

(* Make one post-shuffle partition a durable recovery root.  Any
   failure — the armed chaos site or real IO trouble — degrades
   gracefully: the in-memory partition is kept and only the recovery
   shortcut is lost. *)
let checkpoint_part ~label ~index ~recompute (b : Columnar.t) : part =
  try
    Obs.Faultinject.fire site_shuffle_write;
    let path = Checkpoint.fresh_path ~label:(Fmt.str "%s-p%d" label index) in
    ignore (Checkpoint.write ~path b);
    Ckpt
      {
        ck_path = path;
        ck_rows = Columnar.length b;
        ck_cache = Some b;
        ck_state = Live;
        ck_recompute = recompute;
      }
  with _ ->
    bump m_write_failures;
    Cols b

(* One memoized re-shuffle shared by every partition's recompute
   closure: recovering k lost partitions of the same barrier costs one
   upstream shuffle, not k.  Mutex-guarded — the closures run from pool
   worker domains, where an OCaml [Lazy.t] would not be safe.  The
   closures still pin the upstream dataset [d] (the memo's input) for
   the checkpointed dataset's lifetime; that is the price of CRC
   fallback and is invisible to [memory_bytes] — see DESIGN.md. *)
let memo_shuffle (run : unit -> 'a) : unit -> 'a =
  let mu = Mutex.create () in
  let memo = ref None in
  fun () ->
    Mutex.protect mu (fun () ->
        match !memo with
        | Some ps -> ps
        | None ->
          let ps = run () in
          memo := Some ps;
          ps)

(* Repartition by a per-row destination hash (a shuffle).  With
   [barrier], every output partition is checkpointed under that label —
   lineage downstream of this point is truncated here. *)
let shuffle_hashed ?barrier ~partitions:n (hash_of : Columnar.t -> int array)
    (d : t) : t * int =
  let batches, moved = shuffle_hashed_raw ~partitions:n hash_of d in
  match barrier with
  | None -> ({ parts = Array.map (fun b -> Cols b) batches }, moved)
  | Some label ->
    let recomputed =
      memo_shuffle (fun () -> fst (shuffle_hashed_raw ~partitions:n hash_of d))
    in
    ( {
        parts =
          Array.mapi
            (fun i b ->
              let recompute () = (recomputed ()).(i) in
              checkpoint_part ~label ~index:i ~recompute:(Some recompute) b)
            batches;
      },
      moved )

(* Collapse to a single partition (a gather). *)
let gather (d : t) : t * int =
  let b = Columnar.vstack (Array.to_list (cpartitions d)) in
  Columnar.note_bytes_moved (Columnar.bytes b);
  ({ parts = [| Cols b |] }, Columnar.length b)

(* Simulate losing a partition before a task re-attempt: a checkpointed
   partition drops its in-memory cache so the replay re-reads the
   recovery root; an in-memory partition has only its immutable source
   input as lineage, so its replay is a recompute from source. *)
let recover_part (p : part) =
  bump m_replayed;
  match p with
  | Ckpt c ->
    c.ck_cache <- None;
    c.ck_state <- Lost
  | Cols _ -> bump m_from_source

let recover_partition (d : t) i = recover_part d.parts.(i)

(* [parallel] fans the partitions out over the shared domain {!Pool}
   (the engine's stand-in for a DISC system's task parallelism) instead
   of spawning a fresh domain per partition per operator, which cost
   more than it bought.  [f] must be pure.

   Every partition is a *task attempt*: under [retry], a task that
   raises [Fault.Transient] is recomputed — from its immutable input
   partition (our lineage is the closure plus the input, so
   recomputation is exact — the Spark task-retry model), or, when the
   input is a checkpointed shuffle partition, from the checkpoint file
   ({!recover_part} drops the cache before the re-attempt, truncating
   the replay at the barrier).  The ["engine.partition"] chaos site
   fires once per attempt, inside the retry scope, so an armed fault on
   one attempt is survived by the next. *)
let map_cpartitions ?(parallel = false) ?pool ?(retry = Fault.no_retry)
    ?(label = "partition") ?on_retry (f : Columnar.t -> Columnar.t) (d : t) :
    t =
  let task _i (p : part) () =
    Obs.Faultinject.fire site_partition;
    Cols (f (part_cols p))
  and fault_retry i p =
    Some
      (fun ~attempt e ->
        recover_part p;
        match on_retry with
        | Some cb -> cb ~partition:i ~attempt e
        | None -> ())
  in
  let run i p =
    Fault.protect ~policy:retry
      ~task:(Fmt.str "%s/p%d" label i)
      ~task_id:i ?on_retry:(fault_retry i p) (task i p)
  in
  if (not parallel) || Array.length d.parts <= 1 then
    { parts = Array.mapi run d.parts }
  else
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let indexed = Array.mapi (fun i p -> (i, p)) d.parts in
    { parts = Pool.map_array pool (fun (i, p) -> run i p) indexed }

(* --- Spill ---------------------------------------------------------

   The watermark bounds the dataset's *resident* footprint: every
   resident partition reports its arena size exactly. *)

let part_mem_bytes = function
  | Cols b -> Columnar.bytes b
  | Ckpt { ck_cache = Some b; _ } -> Columnar.bytes b
  | Ckpt { ck_cache = None; _ } -> 0

let memory_bytes (d : t) =
  Array.fold_left (fun acc p -> acc + part_mem_bytes p) 0 d.parts

(* Evict partitions largest-first until the dataset fits under the
   watermark.  Checkpointed partitions just drop their cache (the disk
   copy is the spill); in-memory partitions are written to the
   checkpoint store first.  A failed write keeps the partition resident
   — degraded, never wrong.  Returns the bytes freed. *)
let spill_over ~watermark (d : t) : int =
  let sizes = Array.map part_mem_bytes d.parts in
  let total = Array.fold_left ( + ) 0 sizes in
  if total <= watermark then 0
  else begin
    let order = Array.init (Array.length sizes) Fun.id in
    Array.sort (fun a b -> compare sizes.(b) sizes.(a)) order;
    let freed = ref 0 in
    (try
       Array.iter
         (fun i ->
           if total - !freed <= watermark then raise Exit;
           match d.parts.(i) with
           | Ckpt ({ ck_cache = Some _; _ } as c) ->
             c.ck_cache <- None;
             c.ck_state <- Spilled;
             freed := !freed + sizes.(i);
             bump m_spill_batches;
             Obs.Metrics.Counter.incr ~by:sizes.(i) (Lazy.force m_spill_bytes)
           | Ckpt _ -> ()
           | Cols b -> (
             try
               let path = Checkpoint.fresh_path ~label:"spill" in
               ignore (Checkpoint.write ~path b);
               (* The file is about to become the *only* copy of this
                  partition (no lineage fallback), so verify the frame
                  before dropping the resident data: a garbled write
                  keeps the partition in memory — degraded, never
                  lost. *)
               if not (Checkpoint.verify ~path) then begin
                 (try Sys.remove path with Sys_error _ -> ());
                 bump m_write_failures
               end
               else begin
                 d.parts.(i) <-
                   Ckpt
                     {
                       ck_path = path;
                       ck_rows = Columnar.length b;
                       ck_cache = None;
                       ck_state = Spilled;
                       ck_recompute = None;
                     };
                 freed := !freed + sizes.(i);
                 bump m_spill_batches;
                 Obs.Metrics.Counter.incr ~by:sizes.(i)
                   (Lazy.force m_spill_bytes)
               end
             with _ -> bump m_write_failures))
         order
     with Exit -> ());
    !freed
  end

let of_relation ~partitions (r : Relation.t) : t =
  distribute_cols ~partitions (Columnar.of_relation r)

let to_relation ~schema (d : t) : Relation.t =
  Relation.of_tuples ~schema (to_list d)
