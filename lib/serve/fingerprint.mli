(** Canonical, structure-stable fingerprints for queries and why-not
    patterns — the cache keys of the serving layer.

    Operator identifiers are deliberately {e excluded} from the query
    fingerprint: two queries that differ only in operator-id labeling
    (alpha-equivalent parameterizations, e.g. a parsed query vs. the same
    query relabeled with {!Nrab.Query.relabel}) fingerprint identically,
    while any change to structure or parameters — a constant, a predicate
    shape, an attribute name, a join kind — changes the fingerprint.

    Hashes are 64-bit FNV-1a over a length-prefixed token stream of the
    AST, so they are stable across processes and runs (no dependence on
    OCaml's randomized [Hashtbl.hash]). *)

open Nested
open Nrab

val value : Value.t -> int64
val expr : Expr.t -> int64
val pred : Expr.pred -> int64

(** Structure + parameters, operator ids excluded. *)
val query : Query.t -> int64

val nip : Whynot.Nip.t -> int64
val alternatives : Whynot.Alternatives.alternatives -> int64

(** The explain options that affect the {e result} (and therefore belong
    in the cache key).  The approximation
    knobs ([sample_stride], [top_k], [budget_ms]) {e are} present — an
    approximate result must never be served from (or alias) an exact
    cache entry; [None] mixes a sentinel distinct from every [Some]. *)
type options = {
  use_sas : bool;
  max_sas : int;
  revalidate : bool;
  sample_stride : int option;
  top_k : int option;
  budget_ms : float option;
}

val default_options : options
val options : options -> int64

(** Order-sensitive combination of component hashes. *)
val combine : int64 list -> int64

(** 16-digit lowercase hex rendering. *)
val to_hex : int64 -> string

(** Cache key of a full explain request:
    ⟨query, dataset name + version, why-not pattern, options⟩. *)
val explain_key :
  dataset:string ->
  version:int ->
  options:options ->
  alternatives:Whynot.Alternatives.alternatives ->
  Query.t ->
  Whynot.Nip.t ->
  string

(** Pattern-free key of the reusable traced-run handle:
    ⟨query, dataset name + version, SA cap⟩ — shared by every why-not
    pattern and every option variant on the same prepared run; [max_sas]
    is the only knob a handle depends on. *)
val prepare_key :
  dataset:string ->
  version:int ->
  max_sas:int ->
  alternatives:Whynot.Alternatives.alternatives ->
  Query.t ->
  string
