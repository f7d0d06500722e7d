(** TCP front end for the sharded range-query engine.

    One loop thread owns the listener and every connection: a
    [Unix.select] loop over non-blocking sockets that decodes and routes
    requests, and writes answers in request order, so clients may
    pipeline arbitrarily deep.  The loop routes every request it read in
    one [select] round as one {!Shards.round}.  With worker domains, all
    request execution happens on them — the loop only moves bytes — and
    a shard completion fills its request's cell and wakes the loop
    through a pipe.  Under the inline executor (one CPU) the loop drains
    each shard once at the end of the round and fills the cells itself,
    with no wake.  Either way a deep pipeline piles many range queries
    into one shard drain, the precondition for snapshot coalescing to
    pay off.

    Requests are decoded by {!Wire.next_incoming} and routed by
    {!Shards.serve}, so answers come as pieces ({!Wire.answer}): a point
    batch's mark bytes, a cross-shard range's parts.  Each answer is
    sized once, when its shard completes it.  Each connection has one
    16 KiB write buffer, made at accept: a write carries the fulfilled
    head answers encoded into it in order, and an answer larger than the
    buffer is streamed through it from a byte offset and the
    connection's cursor ({!Wire.blit_answer}), so no answer is copied
    into a frame, or merged, on its way out.  A write the client does not take at once resumes at its
    offset when the socket is writable again.  An answer whose payload
    would exceed {!Wire.max_payload} is answered, in its place in the
    order, with an [Err] saying so ({!Shards.sized}), and the connection
    keeps serving.

    A turn of the loop that leaves no request in flight (every request's
    cell popped, or dropped with its connection) calls [Gc.minor] once
    the loop's domain or a shard worker's has allocated half its minor
    heap since the loop last collected.  Every request and answer is
    dead then, so the collection promotes only data that survives
    anyway, instead of the answers in flight that a collection started
    mid-round would move to the major heap.  The registry gauge
    [serve.in_flight] reads the count of requests in flight of the
    server started last.

    {!stop} is the graceful path wired to SIGINT in [hwts-serve]: stop
    accepting and reading, flush every in-flight response, then drain
    the shards and join their worker domains, if any.  No accepted
    request is dropped for a client that keeps reading.  A client that
    has stopped reading would hold its answers forever, so once stop has
    begun, a connection whose client has taken no byte of a pending
    write for a fixed grace (2 s) is closed; its remaining answers are
    discarded.

    Only {!stop} ends accepting.  A failed [accept] is retried: at once
    after [EINTR] or [ECONNABORTED], after a few milliseconds otherwise
    (out of descriptors, the connection waits in the listen backlog
    until some close).  [select] cannot watch a descriptor at or above
    FD_SETSIZE (1024): a connection accepted on one is closed at once. *)

type t

val start : ?host:string -> port:int -> Shards.t -> t
(** Bind and listen ([host] defaults to ["127.0.0.1"]; [port] 0 picks a
    free port), then serve from one background thread.  The [Shards.t] is
    owned by the server from here on: {!stop} stops it.

    Sets [Sys.sigpipe] to ignore, for the whole process: a client that
    resets its connection mid-answer makes that connection's write fail
    with [EPIPE] (the loop then closes it and discards the rest of its
    answers) instead of killing the process. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val stop : t -> unit
(** Graceful shutdown as described above.  Blocks until every connection
    is flushed (or, for a client that stopped reading, closed after the
    grace) and the shards drained, their worker domains (if any)
    joined.  Idempotent. *)
