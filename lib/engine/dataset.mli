(** Partitioned datasets — the engine's unit of distribution.

    A dataset is an array of partitions, each holding tuples already
    expanded to their multiplicities (like rows of a Spark DataFrame) as
    one {!Columnar.t} batch.  Partitions live in memory and are never
    mutated, so a faulted partition task recovers by recomputing its
    output from its input partition. *)

open Nested

type t = Columnar.t array

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
    column slices; shipped bytes land on [engine.columnar.bytes_moved]. *)
val shuffle_hashed :
  partitions:int -> (Columnar.t -> int array) -> t -> t * int

(** Collapse to a single partition; returns the rows moved. *)
val gather : t -> t * int

(** [task ~retry ~label ~on_retry i f] runs partition [i]'s task [f] as
    a retryable attempt: under [retry], an attempt that raises
    {!Fault.Transient} is replayed — [f] recomputes the partition from
    its immutable input — until the policy's attempt budget runs out,
    then {!Fault.Exhausted} propagates with the task attributed as
    ["<label>/p<i>"].  The ["engine.partition"] chaos site fires once
    per attempt inside the retry scope, and every replay bumps
    [engine.recover.replayed_partitions].  [on_retry] fires before each
    re-attempt (for span attribution). *)
val task :
  ?retry:Fault.policy ->
  ?label:string ->
  ?on_retry:(partition:int -> attempt:int -> exn -> unit) ->
  int ->
  (unit -> 'a) ->
  'a

(** Transform every partition's batch, one partition after the other,
    each as a {!task}.  [f] must be pure, so a replay is exact.
    Batch-in/batch-out: no per-row tree materialization. *)
val map_cpartitions :
  ?retry:Fault.policy ->
  ?label:string ->
  ?on_retry:(partition:int -> attempt:int -> exn -> unit) ->
  (Columnar.t -> Columnar.t) ->
  t ->
  t

(** Cached arena build of the relation, split into round-robin column
    slices. *)
val of_relation : partitions:int -> Relation.t -> t
