let m_conns = Hwts_obs.Registry.counter "serve.connections"
let m_requests = Hwts_obs.Registry.counter "serve.requests"
let m_malformed = Hwts_obs.Registry.counter "serve.malformed"
let m_oversized = Hwts_obs.Registry.counter "serve.oversized"

(* Once {!stop} has begun, a connection with a pending write that its
   client has taken no byte of for this long (ns) has stopped reading:
   the loop closes it and discards its remaining answers. *)
let stop_grace = 2_000_000_000

(* After [EMFILE]/[ENFILE] the connection stays queued in the backlog;
   the listener is left unwatched this long (ns) instead of spinning. *)
let accept_backoff = 5_000_000

(* The loop collects the minor heaps at the end of a turn that leaves no
   request in flight, once a domain that serves (the loop's, or a shard
   worker's) has allocated this share of its own since the loop last
   collected: every request and answer is dead then, so the collection
   promotes only what would survive anyway. *)
let idle_fill = 0.5

(* Bytes of each connection's write buffer, made at accept: of 16, 32
   and 64 KiB, 16 kept the served benchmark's resident set lowest. *)
let out_size = 16384

(* A pipelined connection: one cell per decoded request, in request
   order, filled by the shard drain that answers it with the answer and
   its payload size, computed once.  [out] bytes [off, len) are still to
   be written; [sent] bytes of the head answer's frame are in [out], and
   [cursor] is where among its members they end. *)
type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  cells : (int * Wire.answer) option Atomic.t Queue.t;
  cursor : Wire.cursor;
  mutable reading : bool; (* false after EOF, error, malformed or stop *)
  out : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable sent : int;
  mutable since : int; (* ns of the last progress of the write in progress *)
}

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  shards : Shards.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  woken : bool Atomic.t; (* a wake byte is in the pipe, or on its way *)
  workers : bool;
      (* completions come from worker domains; inline, the loop's own
         round runs them, and nothing needs waking *)
  stopping : bool Atomic.t;
  in_flight : int Atomic.t;
      (* cells queued on any connection and not yet popped: written or
         dropped with their connection.  Only the loop writes it. *)
  mutable loop : Thread.t option;
}

(* Called by shard workers after filling a cell, and by {!stop}.  The
   loop clears [woken] before it scans the cells, so a fill it misses
   sends a byte. *)
let wake t =
  if not (Atomic.exchange t.woken true) then
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()

(* The answer at its exact size.  An answer too large for one frame is
   sized before anything is allocated, and answered with [Err]. *)
let sized a =
  let n = Wire.answer_size a in
  if n <= Wire.max_payload then (n, a)
  else begin
    Hwts_obs.Counter.incr m_oversized;
    let e = Wire.Err (Printf.sprintf "answer of %d bytes exceeds max_payload" n) in
    (Wire.response_size e, Wire.Whole e)
  end

(* Decode and route every complete request in one read's bytes. *)
let read_requests t buf conn =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> conn.reading <- false
  | 0 -> conn.reading <- false
  | n -> (
    Wire.feed conn.dec buf 0 n;
    try
      let rec route () =
        match Wire.next_incoming conn.dec with
        | None -> ()
        | Some req ->
          Hwts_obs.Counter.incr m_requests;
          let cell = Atomic.make None in
          Queue.push cell conn.cells;
          Atomic.incr t.in_flight;
          Shards.serve t.shards req (fun r ->
              Atomic.set cell (Some (sized r));
              if t.workers then wake t);
          route ()
      in
      route ()
    with Wire.Malformed msg ->
      (* answer the offense in order, then stop reading: the connection
         closes once everything before it and the error are out *)
      Hwts_obs.Counter.incr m_malformed;
      Queue.push (Atomic.make (Some (sized (Wire.Whole (Wire.Err msg))))) conn.cells;
      Atomic.incr t.in_flight;
      conn.reading <- false)

(* Encode the fulfilled head answers into [out] after its [len] bytes,
   in order, while it has room; pop each once its frame is all in. *)
let rec fill t conn =
  if not (Queue.is_empty conn.cells) then
    match Atomic.get (Queue.peek conn.cells) with
    | Some ((n, _) as a) when conn.len < Bytes.length conn.out ->
      let k = min (4 + n - conn.sent) (Bytes.length conn.out - conn.len) in
      Wire.blit_answer conn.cursor a ~src:conn.sent conn.out conn.len k;
      conn.len <- conn.len + k;
      conn.sent <- conn.sent + k;
      if conn.sent = 4 + n then begin
        ignore (Queue.pop conn.cells);
        Atomic.decr t.in_flight;
        conn.sent <- 0;
        fill t conn
      end
    | _ -> ()

let writing conn = conn.off < conn.len

(* Write what the client takes without blocking, refilling [out] once
   it is all out.  [false] once the client has gone. *)
let rec flush t conn now =
  if writing conn then
    match Unix.single_write conn.fd conn.out conn.off (conn.len - conn.off) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> false
    | n ->
      conn.off <- conn.off + n;
      conn.since <- now;
      flush t conn now
  else begin
    conn.off <- 0;
    conn.len <- 0;
    conn.since <- now;
    fill t conn;
    (not (writing conn)) || flush t conn now
  end

(* Accept every queued connection; the result is when to watch the
   listener again.  Only {!stop} ends accepting: an aborted handshake or
   a signal is retried at once; out of descriptors, the listener is left
   unwatched for [accept_backoff].  [select] fails with [EINVAL] on a
   descriptor at or above FD_SETSIZE, so such a connection is closed. *)
let rec accept_all t conns now =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    accept_all t conns now
  | exception Unix.Unix_error _ -> now + accept_backoff
  | fd, _ ->
    (match Unix.select [ fd ] [] [] 0. with
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> Unix.close fd
    | _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      Hwts_obs.Counter.incr m_conns;
      Hashtbl.replace conns fd
        {
          fd;
          dec = Wire.decoder ();
          cells = Queue.create ();
          cursor = Wire.cursor ();
          reading = true;
          out = Bytes.create out_size;
          off = 0;
          len = 0;
          sent = 0;
          since = now;
        });
    accept_all t conns now

(* The loop: owns the listener and every connection until {!stop} has
   begun and the last connection has closed.  Its state and the closures
   over it are made once, not per turn, and its clock is an int: what
   the loop allocates per turn widens the part of the domain's minor
   heap it touches, and brings its idle collections closer together.
   The minor heap's size is read once: [hwts-serve] sets it before
   {!start}. *)
let run t =
  let buf = Bytes.create 65536 and conns = Hashtbl.create 16 in
  let listening = ref true and paused_until = ref 0 in
  let now = ref (Tsc.monotonic_ns ()) in
  let rd = ref [] and wr = ref [] and next = ref max_int in
  let readable = ref [] and closed = ref [] in
  let share words = int_of_float (idle_fill *. float_of_int words) in
  let idle_words = share (Gc.get ()).Gc.minor_heap_size in
  let worker_idle_words = share Shards.shard_minor_heap_words in
  let workers = Shards.worker_domains t.shards in
  let collected = ref (int_of_float (Gc.minor_words ())) in
  let worker_collected = Array.make workers 0 in
  (* whether a serving domain has filled [idle_fill] of its minor heap
     since the loop last collected; [words] is the loop domain's count *)
  let nursery_due words =
    let due = ref (words - !collected >= idle_words) in
    for i = 0 to workers - 1 do
      if Shards.worker_minor_words t.shards i - worker_collected.(i) >= worker_idle_words
      then due := true
    done;
    !due
  in
  let watch _ c =
    if c.reading then rd := c.fd :: !rd;
    if writing c then begin
      wr := c.fd :: !wr;
      if not !listening then next := Int.min !next (c.since + stop_grace)
    end
  in
  let serve fd =
    if fd = t.wake_r then begin
      (try ignore (Unix.read t.wake_r buf 0 64) with Unix.Unix_error _ -> ());
      Atomic.set t.woken false
    end
    else if fd = t.listen_fd && !listening then
      paused_until := accept_all t conns !now
    else
      match Hashtbl.find conns fd with
      | c when c.reading -> read_requests t buf c
      | _ | (exception Not_found) -> ()
  in
  (* one drain unit: what every readable connection sent this turn *)
  let serve_readable () = List.iter serve !readable in
  let stop_reading _ c =
    c.reading <- false;
    c.since <- !now
  in
  (* closes a connection that is done, or whose client has gone or
     stopped reading past the grace; its unwritten answers are dropped *)
  let keep fd c =
    if
      not
        (flush t c !now
        && (c.reading || writing c || not (Queue.is_empty c.cells))
        && (!listening || (not (writing c)) || !now - c.since < stop_grace))
    then begin
      (try Unix.close c.fd with _ -> ());
      ignore (Atomic.fetch_and_add t.in_flight (-Queue.length c.cells));
      closed := fd :: !closed
    end
  in
  while !listening || Hashtbl.length conns > 0 do
    rd := [ t.wake_r ];
    wr := [];
    next := max_int;
    if !listening then
      if !now >= !paused_until then rd := t.listen_fd :: !rd
      else next := !paused_until;
    Hashtbl.iter watch conns;
    let timeout =
      if !next = max_int then -1. else float_of_int (Int.max 0 (!next - !now)) *. 1e-9
    in
    (readable :=
       try
         let r, _, _ = Unix.select !rd !wr [] timeout in
         r
       with Unix.Unix_error (Unix.EINTR, _, _) -> []);
    now := Tsc.monotonic_ns ();
    Shards.round t.shards serve_readable;
    if !listening && Atomic.get t.stopping then begin
      listening := false;
      (try Unix.close t.listen_fd with _ -> ());
      Hashtbl.iter stop_reading conns
    end;
    Hashtbl.iter keep conns;
    (match !closed with
    | [] -> ()
    | fds ->
      List.iter (Hashtbl.remove conns) fds;
      closed := []);
    if Atomic.get t.in_flight = 0 then begin
      let words = int_of_float (Gc.minor_words ()) in
      if nursery_due words then begin
        Gc.minor ();
        collected := words;
        for i = 0 to workers - 1 do
          worker_collected.(i) <- Shards.worker_minor_words t.shards i
        done
      end
    end
  done

let start ?(host = "127.0.0.1") ~port shards =
  (* a client that resets mid-answer must cost its own connection an
     EPIPE, not the process a SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (* at most one byte is ever in the pipe, so neither end blocks *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      listen_fd = fd;
      port;
      shards;
      wake_r;
      wake_w;
      woken = Atomic.make false;
      workers = Shards.worker_domains shards > 0;
      stopping = Atomic.make false;
      in_flight = Atomic.make 0;
      loop = None;
    }
  in
  let in_flight = t.in_flight in
  Hwts_obs.Registry.gauge "serve.in_flight" (fun () ->
      float_of_int (Atomic.get in_flight));
  t.loop <- Some (Thread.create run t);
  t

let port t = t.port
let router t = t.shards

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    wake t;
    Option.iter Thread.join t.loop;
    (* every answer is out or its connection closed: drain the shard
       queues and join the workers (if any), whose completions may still
       wake the loop, so the pipe closes last *)
    Shards.stop t.shards;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end
