(** Partitioned datasets — the engine's unit of distribution.

    A dataset is an array of partitions, each holding tuples already
    expanded to their multiplicities (like rows of a Spark DataFrame) as
    one {!Columnar.t} batch. *)

open Nested

type t

(** A spilled partition whose checkpoint file was its {e only} copy (no
    lineage fallback) failed its CRC on restore.  Spill verifies every
    such file at write time, so this means on-disk corruption or an
    external delete after the spill — a hard failure of the query,
    deliberately not {!Fault.Transient} (re-reading the same bad file
    cannot succeed).  Spill mode therefore makes healthy disk a hard
    dependency; barrier checkpoints never raise this (they fall back to
    their recompute closure). *)
exception Spill_lost of string

(** Every partition's batch. *)
val cpartitions : t -> Columnar.t array

(** One partition's batch — prefer this inside a retry scope:
    a checkpointed or spilled partition performs its disk read here, so
    fetching inside {!Fault.protect} makes the read recoverable. *)
val cpartition : t -> int -> Columnar.t

val of_cpartitions : Columnar.t array -> t
val partition_count : t -> int
val cardinal : t -> int

(** Every row, partition by partition (reconstructed from the batches). *)
val to_list : t -> Value.t list

(** Deterministic, run-stable value hash (partitioning must not depend on
    OCaml's randomized hashing). *)
val value_hash : Value.t -> int

(** Round-robin distribution of a list of tuples over [partitions]
    partitions (≥ 1), built as batches. *)
val distribute : partitions:int -> Value.t list -> t

(** Hash-repartition — a shuffle: [hash_of] yields one destination hash
    per batch row (e.g. {!Columnar.hash_col} over the key columns, or
    {!value_hash} of each row's key).  Also returns the number of rows
    that crossed partitions.  Moved rows travel as contiguous gathered
    column slices; shipped bytes land on [engine.columnar.bytes_moved].

    With [barrier], every output partition is checkpointed to the
    {!Checkpoint} store under that label and becomes a durable recovery
    root: a downstream task fault replays from the checkpoint file
    instead of re-deriving the upstream chain (lineage is truncated at
    the barrier).  A checkpoint write that fails — chaos site
    ["engine.shuffle.write"] or real IO trouble — degrades to the plain
    in-memory partition ([engine.checkpoint.write_failures]). *)
val shuffle_hashed :
  ?barrier:string ->
  partitions:int ->
  (Columnar.t -> int array) ->
  t ->
  t * int

(** Simulate losing partition [i] before a replay: a checkpointed
    partition drops its in-memory cache (the next fetch re-reads the
    recovery root, counted on [engine.recover.from_checkpoint]); an
    in-memory partition can only replay from its source input
    ([engine.recover.from_source]).  Bumps
    [engine.recover.replayed_partitions].  {!map_cpartitions} calls this
    automatically before every task re-attempt; executors running their
    own {!Fault.protect} scopes (joins) call it from their retry
    hooks. *)
val recover_partition : t -> int -> unit

(** Resident in-memory footprint in arena bytes (spilled partitions
    count 0). *)
val memory_bytes : t -> int

(** [spill_over ~watermark d] evicts partitions largest-first until the
    resident footprint fits under [watermark] bytes, writing in-memory
    partitions to the {!Checkpoint} store (checkpointed ones just drop
    their cache).  Spilled partitions transparently re-map on access
    ([engine.spill.restores]).  A plain in-memory partition has no
    lineage fallback, so its spill file is verified (frame + CRC)
    before the resident copy is dropped: a garbled write keeps the
    partition in memory ([engine.checkpoint.write_failures]) — degraded,
    never lost.  A verified file that later fails to read raises
    {!Spill_lost}.  Returns the bytes freed; counters
    [engine.spill.bytes] / [engine.spill.batches]. *)
val spill_over : watermark:int -> t -> int

(** Collapse to a single partition; returns the rows moved. *)
val gather : t -> t * int

(** Transform every partition's batch; with [parallel] the partitions are
    processed concurrently on [pool] (default {!Pool.default} — the
    engine's task parallelism).  [f] must be pure.

    Each partition is a retryable task attempt: under [retry], a run of
    [f] that raises {!Fault.Transient} is recomputed from its input
    partition (exact — the input is immutable and [f] pure) until the
    policy's attempt budget runs out, then {!Fault.Exhausted} propagates
    with the task attributed as ["<label>/p<i>"].  The
    ["engine.partition"] chaos site fires once per attempt inside the
    retry scope.  [on_retry] fires before each re-attempt (for span
    attribution).  Batch-in/batch-out: no per-row tree
    materialization. *)
val map_cpartitions :
  ?parallel:bool ->
  ?pool:Pool.t ->
  ?retry:Fault.policy ->
  ?label:string ->
  ?on_retry:(partition:int -> attempt:int -> exn -> unit) ->
  (Columnar.t -> Columnar.t) ->
  t ->
  t

(** Cached arena build of the relation, split into round-robin column
    slices. *)
val of_relation : partitions:int -> Relation.t -> t
val to_relation : schema:Vtype.t -> t -> Relation.t
