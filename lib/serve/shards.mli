(** Sharded execution engine: one structure instance per shard, all built
    over a {e single} timestamp provider.

    Provider sharing is the load-bearing invariant.  Functor generativity
    in {!Workload.Targets} is per [instance] call, not per [create]: one
    call yields one provider module, and the [shards] structure instances
    created from it label against that one clock.  Labels from different
    shards are therefore mutually comparable — the Strict_sharded-style
    slot-id discipline extends across the whole fleet.  A cross-shard
    read does not yet take one label, though: each part reads under its
    own shard's snapshot, at its own time, and the answer reports the
    largest part label.  No single moment need have had the union of the
    parts (ROADMAP item 2, one label per request, is the fix).

    Keys live in [1, key_space], partitioned contiguously: shard [i] owns
    [[i*span + 1, (i+1)*span]].  Each shard drains its queue in arrival
    order; point operations keep per-shard FIFO semantics, and all range
    sub-queries and MultiGets drained together execute — when coalescing
    is on — under a single {!Hwts_snapshot.t} acquisition.  That is the
    paper's amortization kernel at service scale: the batcher pays one
    timestamp advance (and, for the lock-based techniques, one snapshot
    critical section) for every range in the drain.

    Who drains is the executor.  With more than one CPU to run on, each
    shard has a worker domain.  When the process may use only one CPU
    ([Domain.recommended_domain_count () = 1], which OCaml reads from
    the affinity mask), no worker is spawned: a shard's tasks run on the
    thread that routes them, and the process keeps one domain, so no
    minor collection stops a second one and no task is handed between
    threads.  Both executors share the queue, the drain and its
    quiescence point; only who drains differs.  Inline drains run under
    one process-wide lock, since structure operations keep per-domain
    state that assumes one thread per domain: a second systhread that
    submits while a drain runs waits for it. *)

type t

val create :
  ?reclaim:Workload.Targets.reclaim ->
  ?executor:[ `Inline | `Domains ] ->
  structure:string ->
  provider:Workload.Targets.ts ->
  shards:int ->
  key_space:int ->
  coalesce:bool ->
  unit ->
  t
(** Builds [shards] instances of the named structure over one shared
    provider and the given reclamation backend (default [`Ebr]).  The
    executor defaults to [`Inline] when
    [Domain.recommended_domain_count () = 1] and to [`Domains] (one
    worker domain per shard) otherwise; tests pass it to force either.
    A drainer announces a quiescence point after each drain; a worker
    goes offline on stop, an inline drainer after each drain.  Raises
    [Invalid_argument] on an unknown structure, an unsupported
    structure/provider combination, or non-positive
    [shards]/[key_space]. *)

val structure_name : t -> string
val provider : t -> string

(** Canonical name of the reclamation backend the shards were built over. *)
val reclaim : t -> string
val shard_count : t -> int
val key_space : t -> int

val shard_minor_heap_words : int
(** Minor heap words each worker domain sets at spawn.  Inline, [create]
    leaves the routing domain's to its caller ([hwts-serve] sets this). *)

val worker_domains : t -> int
(** Worker domains spawned: the shard count, or 0 under the inline
    executor. *)

val worker_minor_words : t -> int -> int
(** [worker_minor_words t i]: the words shard [i]'s worker domain had
    allocated in its minor heap ([Gc.minor_words] there) when its last
    drain ended, for [i] below {!worker_domains}. *)

val now : t -> int
(** A read of the fleet's shared clock (labels are comparable with it). *)

val sized : Wire.answer -> int * Wire.answer
(** An answer with its payload size ({!Wire.answer_size}), computed
    once; one above {!Wire.max_payload} becomes an [Err] saying so
    (counted in [serve.oversized]).  {!serve} and {!submit} answer
    through it. *)

val serve : t -> Wire.incoming -> (int * Wire.answer -> unit) -> unit
(** Route a decoded frame, answering it in pieces, {!sized}: a point
    batch as [Marks] (one answer byte per op), a [Range] as [Parts] (one
    key run per owning shard, each the part's own, filled by its read
    and sorted in place if its pushes did not ascend, under the maximal
    part label), anything else [Whole].  [hwts-serve]'s entry point;
    otherwise as {!submit}. *)

val submit : t -> Wire.request -> (Wire.response -> unit) -> unit
(** Route a request: {!serve}, its answer read back from the frame a
    client would get ({!Wire.read_back}).  The completion runs exactly
    once: on a worker domain, or under the inline executor on the
    submitting thread before [submit] returns (at the end of the
    {!round} when called inside one); and inline for [Ping],
    out-of-range keys and empty batches.  A submit made from inside a
    completion enqueues, and the drain in progress runs it.
    Cross-shard ranges fan out to every owning shard and complete when
    the last part does, with the maximal part label.  After {!stop},
    completes with [Err]; so does a request split across shards when a
    stopping shard refuses any part of it, never a partial answer.

    A [Batch] is packed ({!Wire.pack}); its in-range Get/Insert/Delete
    ops reach each owning shard as one task, run in batch order; if a
    stopping shard refuses one, every point position answers [Err].
    Its other sub-requests are routed one at a time after those tasks,
    each answer read back as {!submit} reads it, so each read in a batch
    sees every point op of the batch. *)

val round : t -> (unit -> 'a) -> 'a
(** [round t f] runs [f], whose submits form one drain unit: under the
    inline executor they only enqueue, and each shard with tasks drains
    once as [f] returns, so the reads of the round share one snapshot
    per shard.  [f] runs holding the executor lock, so it must not block
    on a completion (no {!exec}).  With worker domains it is [f ()]. *)

val exec : t -> Wire.request -> Wire.response
(** Blocking {!submit}, for tests and simple clients.  Not from inside a
    completion or a {!round}. *)

val stop : t -> unit
(** Drain, then refuse: every task queued before the stop runs, and
    later submits complete with [Err "server stopping"].  Joins the
    worker domains; inline, waits for a drain in progress.  Idempotent. *)
