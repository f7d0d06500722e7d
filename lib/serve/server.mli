(** TCP front end for the sharded range-query engine.

    One accept thread; per connection a reader thread (decode, route) and
    a writer thread (responses in request order, so clients may pipeline
    arbitrarily deep).  All request execution happens on the shard worker
    domains — connection threads only move bytes — which is what lets a
    deep pipeline pile many range queries into one shard drain, the
    precondition for snapshot coalescing to pay off.

    The writer encodes each answer once, into one frame of exactly its
    wire size, and writes that frame as it is; no output buffer outlives
    the answer it carried.  An answer whose payload would exceed
    {!Wire.max_payload} is answered, in its place in the order, with an
    [Err] saying so, and the connection keeps serving.

    {!stop} is the graceful path wired to SIGINT in [hwts-serve]: stop
    accepting, shut down the read side of every connection, let writers
    flush every in-flight response, join connection threads, then drain
    and join the shard workers.  No accepted request is dropped for a
    client that keeps reading.  A client that has stopped reading would
    block its writer forever, so once stop has begun, a connection whose
    writer has been inside one write for a fixed grace (2 s) with no
    byte taken by its client is shut down; its remaining answers are
    discarded.

    Only {!stop} ends accepting.  A failed [accept] is retried: at once
    after [EINTR] or [ECONNABORTED], after a few milliseconds otherwise
    (out of descriptors, the connection waits in the listen backlog
    until some close). *)

type t

val start : ?host:string -> port:int -> Shards.t -> t
(** Bind and listen ([host] defaults to ["127.0.0.1"]; [port] 0 picks a
    free port), then serve in background threads.  The [Shards.t] is
    owned by the server from here on: {!stop} stops it.

    Sets [Sys.sigpipe] to ignore, for the whole process: a client that
    resets its connection mid-answer makes that connection's write fail
    with [EPIPE] (the writer then discards the rest of its answers)
    instead of killing the process. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val router : t -> Shards.t

val stop : t -> unit
(** Graceful shutdown as described above.  Blocks until every connection
    is flushed (or, for a client that stopped reading, shut down after
    the grace) and every worker domain joined.  Idempotent. *)
