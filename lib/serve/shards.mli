(** Sharded execution engine: one structure instance per shard, all built
    over a {e single} timestamp provider.

    Provider sharing is the load-bearing invariant.  Functor generativity
    in {!Workload.Targets} is per [instance] call, not per [create]: one
    call yields one provider module, and the [shards] structure instances
    created from it label against that one clock.  Labels from different
    shards are therefore mutually comparable — the Strict_sharded-style
    slot-id discipline extends across the whole fleet, so a cross-shard
    range response can report one (maximal) label its parts agree under.

    Keys live in [1, key_space], partitioned contiguously: shard [i] owns
    [[i*span + 1, (i+1)*span]].  Each shard runs one worker domain that
    drains its queue in arrival order; point operations keep per-shard
    FIFO semantics, and all range sub-queries and MultiGets drained
    together execute — when coalescing is on — under a single
    {!Hwts_snapshot.t} acquisition.  That is the paper's amortization kernel at
    service scale: the batcher pays one timestamp advance (and, for the
    lock-based techniques, one snapshot critical section) for every range
    in the drain. *)

type t

val create :
  ?reclaim:Workload.Targets.reclaim ->
  structure:string ->
  provider:Workload.Targets.ts ->
  shards:int ->
  key_space:int ->
  coalesce:bool ->
  unit ->
  t
(** Builds [shards] instances of the named structure over one shared
    provider and the given reclamation backend (default [`Ebr]), and
    spawns one worker domain per shard.  Shard workers announce a
    quiescence point after each drained batch and go offline on stop.
    Raises [Invalid_argument] on an unknown structure, an unsupported
    structure/provider combination, or non-positive [shards]/[key_space]. *)

val structure_name : t -> string
val provider : t -> string

(** Canonical name of the reclamation backend the shards were built over. *)
val reclaim : t -> string
val shard_count : t -> int
val key_space : t -> int
val coalesce : t -> bool

val now : t -> int
(** A read of the fleet's shared clock (labels are comparable with it). *)

val submit : t -> Wire.request -> (Wire.response -> unit) -> unit
(** Route a request.  The completion runs on a worker domain (or inline
    for [Ping], out-of-range keys and empty batches) exactly once.
    Cross-shard ranges fan out to every owning shard and complete when
    the last part does, with the maximal part label, their keys merged
    into one array of exactly the answer's length.  After {!stop},
    completes with [Err]; so does a request split across shards when a
    stopping shard refuses any part of it, never a partial answer.

    A [Batch]'s in-range Get/Insert/Delete ops reach each owning shard
    as one task, run in batch order; if a stopping shard refuses one,
    every point position answers [Err].  Its other sub-requests are
    routed one at a time after those tasks, so each read in a batch sees
    every point op of the batch. *)

val exec : t -> Wire.request -> Wire.response
(** Blocking {!submit}, for tests and simple clients. *)

val stop : t -> unit
(** Drain: workers finish every queued task, then exit; joins all worker
    domains.  Idempotent. *)
