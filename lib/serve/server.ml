let m_conns = Hwts_obs.Registry.counter "serve.connections"
let m_requests = Hwts_obs.Registry.counter "serve.requests"
let m_malformed = Hwts_obs.Registry.counter "serve.malformed"
let m_oversized = Hwts_obs.Registry.counter "serve.oversized"

(* Once {!stop} has begun, a connection with a pending write that its
   client has taken no byte of for this long has stopped reading: the
   loop closes it and discards its remaining answers. *)
let stop_grace = 2.0

(* After [EMFILE]/[ENFILE] the connection stays queued in the backlog;
   the listener is left unwatched this long instead of spinning. *)
let accept_backoff = 0.005

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
  mutable since : float; (* last progress of the write in progress *)
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
      conn.reading <- false)

(* Encode the fulfilled head answers into [out] after its [len] bytes,
   in order, while it has room; pop each once its frame is all in. *)
let rec fill conn =
  if not (Queue.is_empty conn.cells) then
    match Atomic.get (Queue.peek conn.cells) with
    | Some ((n, _) as a) when conn.len < Bytes.length conn.out ->
      let k = min (4 + n - conn.sent) (Bytes.length conn.out - conn.len) in
      Wire.blit_answer conn.cursor a ~src:conn.sent conn.out conn.len k;
      conn.len <- conn.len + k;
      conn.sent <- conn.sent + k;
      if conn.sent = 4 + n then begin
        ignore (Queue.pop conn.cells);
        conn.sent <- 0;
        fill conn
      end
    | _ -> ()

let writing conn = conn.off < conn.len

(* Write what the client takes without blocking, refilling [out] once
   it is all out.  [false] once the client has gone. *)
let rec flush conn now =
  if writing conn then
    match Unix.single_write conn.fd conn.out conn.off (conn.len - conn.off) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> false
    | n ->
      conn.off <- conn.off + n;
      conn.since <- now;
      flush conn now
  else begin
    conn.off <- 0;
    conn.len <- 0;
    conn.since <- now;
    fill conn;
    (not (writing conn)) || flush conn now
  end

(* Accept every queued connection; the result is when to watch the
   listener again.  Only {!stop} ends accepting: an aborted handshake or
   a signal is retried at once; out of descriptors, the listener is left
   unwatched for [accept_backoff].  [select] fails with [EINVAL] on a
   descriptor at or above FD_SETSIZE, so such a connection is closed. *)
let rec accept_all t conns now =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0.
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    accept_all t conns now
  | exception Unix.Unix_error _ -> now +. accept_backoff
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
   over it are made once, not per turn: what the loop allocates per turn
   widens the part of the domain's minor heap it touches. *)
let run t =
  let buf = Bytes.create 65536 and conns = Hashtbl.create 16 in
  let listening = ref true and paused_until = ref 0. and now = ref 0. in
  let rd = ref [] and wr = ref [] and next = ref infinity in
  let readable = ref [] in
  let watch _ c =
    if c.reading then rd := c.fd :: !rd;
    if writing c then begin
      wr := c.fd :: !wr;
      if not !listening then next := Float.min !next (c.since +. stop_grace)
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
      match Hashtbl.find_opt conns fd with
      | Some c when c.reading -> read_requests t buf c
      | _ -> ()
  in
  (* one drain unit: what every readable connection sent this turn *)
  let serve_readable () = List.iter serve !readable in
  let stop_reading _ c =
    c.reading <- false;
    c.since <- !now
  in
  let keep _ c =
    if
      flush c !now
      && (c.reading || writing c || not (Queue.is_empty c.cells))
      && (!listening || (not (writing c)) || !now -. c.since < stop_grace)
    then Some c
    else begin
      (try Unix.close c.fd with _ -> ());
      None
    end
  in
  while !listening || Hashtbl.length conns > 0 do
    rd := [ t.wake_r ];
    wr := [];
    next := infinity;
    if !listening then
      if !now >= !paused_until then rd := t.listen_fd :: !rd
      else next := !paused_until;
    Hashtbl.iter watch conns;
    let timeout = if !next = infinity then -1. else Float.max 0. (!next -. !now) in
    (readable :=
       try
         let r, _, _ = Unix.select !rd !wr [] timeout in
         r
       with Unix.Unix_error (Unix.EINTR, _, _) -> []);
    now := Unix.gettimeofday ();
    Shards.round t.shards serve_readable;
    if !listening && Atomic.get t.stopping then begin
      listening := false;
      (try Unix.close t.listen_fd with _ -> ());
      Hashtbl.iter stop_reading conns
    end;
    Hashtbl.filter_map_inplace keep conns
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
      loop = None;
    }
  in
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
