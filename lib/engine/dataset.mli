(** Partitioned datasets — the engine's unit of distribution.

    A dataset is an array of partitions, each holding tuples already
    expanded to their multiplicities (like rows of a Spark DataFrame) as
    one {!Columnar.t} batch.  Partitions live in memory and are never
    mutated. *)

type t = Columnar.t array

val cardinal : t -> int

(** Round-robin distribution of a batch's rows over [partitions]
    partitions (≥ 1), as gathered column slices. *)
val distribute_batch : partitions:int -> Columnar.t -> t

(** Hash-repartition — a shuffle: [hash_of] yields one destination hash
    per batch row (e.g. {!Columnar.hash_col} over the key columns, or
    {!Columnar.value_hash} of each row's key).  Also returns the number of rows
    that crossed partitions.  Moved rows travel as contiguous gathered
    column slices; shipped bytes land on [engine.columnar.bytes_moved]. *)
val shuffle_hashed :
  partitions:int -> (Columnar.t -> int array) -> t -> t * int

(** Collapse to a single partition; returns the rows moved. *)
val gather : t -> t * int

