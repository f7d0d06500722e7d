let m_conns = Hwts_obs.Registry.counter "serve.connections"
let m_requests = Hwts_obs.Registry.counter "serve.requests"
let m_malformed = Hwts_obs.Registry.counter "serve.malformed"
let m_oversized = Hwts_obs.Registry.counter "serve.oversized"

(* Once {!stop} has shut the read sides, a writer that has been blocked
   in one write this long, with no byte taken by its client, is writing
   to a client that stopped reading: stop shuts that connection down. *)
let stop_grace = 2.0

(* How often stop checks the writers' progress. *)
let stop_tick = 0.05

(* After [EMFILE]/[ENFILE] the connection stays queued in the backlog;
   accept retries after this pause instead of spinning. *)
let accept_backoff = 0.005

(* A pipelined connection: the reader decodes frames and routes them,
   pushing one pending cell per request onto [out]; shard workers fill
   the cells; the writer flushes fulfilled cells strictly in FIFO order.
   One mutex/condition pair covers both the queue and cell fulfillment —
   contention is per-connection, not global. *)
type conn = {
  fd : Unix.file_descr;
  m : Mutex.t;
  c : Condition.t;
  out : Wire.response option ref Queue.t;
  mutable eof : bool; (* reader finished (EOF, error or malformed) *)
  mutable closed : bool; (* the writer closed [fd]; set under [m] *)
  mutable reader : Thread.t option;
  mutable writer : Thread.t option;
  sent : int Atomic.t; (* bytes written; grows while the client reads *)
  writing : bool Atomic.t; (* the writer is inside a frame's write *)
}

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  shards : Shards.t;
  conns : conn list ref;
  conns_m : Mutex.t;
  stopping : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  stop_m : Mutex.t;
  mutable stopped : bool;
}

let locked conn f =
  Mutex.lock conn.m;
  f ();
  Mutex.unlock conn.m

let wake conn f =
  locked conn (fun () ->
      f ();
      Condition.broadcast conn.c)

let reader_loop t conn =
  let buf = Bytes.create 65536 in
  let dec = Wire.decoder () in
  let running = ref true in
  while !running do
    let n = try Unix.read conn.fd buf 0 (Bytes.length buf) with _ -> 0 in
    if n = 0 then running := false
    else begin
      Wire.feed dec buf 0 n;
      try
        let more = ref true in
        while !more do
          match Wire.next_request dec with
          | None -> more := false
          | Some req ->
            Hwts_obs.Counter.incr m_requests;
            let cell = ref None in
            locked conn (fun () -> Queue.push cell conn.out);
            Shards.submit t.shards req (fun r ->
                wake conn (fun () -> cell := Some r))
        done
      with Wire.Malformed msg ->
        (* answer the offense in-order, then stop reading: the writer
           flushes everything (including the error) before closing *)
        Hwts_obs.Counter.incr m_malformed;
        locked conn (fun () -> Queue.push (ref (Some (Wire.Err msg))) conn.out);
        running := false
    end
  done;
  wake conn (fun () -> conn.eof <- true)

(* The answer's frame, at its exact size.  An answer too large for one
   frame is sized before anything is allocated, and answered with [Err]. *)
let frame_of r =
  let n = Wire.response_size r in
  if n <= Wire.max_payload then Wire.response_frame r
  else begin
    Hwts_obs.Counter.incr m_oversized;
    Wire.response_frame
      (Wire.Err (Printf.sprintf "answer of %d bytes exceeds max_payload" n))
  end

(* Write all of [b], counting each chunk the kernel takes into [sent]. *)
let rec write_from conn b off =
  if off < Bytes.length b then begin
    let n = Unix.single_write conn.fd b off (Bytes.length b - off) in
    Atomic.set conn.sent (Atomic.get conn.sent + n);
    write_from conn b (off + n)
  end

(* [Unix.shutdown] of a connection whose writer has not closed its fd
   yet: once closed, the descriptor number may name another file. *)
let shutdown_conn conn how =
  locked conn (fun () ->
      if not conn.closed then try Unix.shutdown conn.fd how with _ -> ())

let writer_loop conn =
  let running = ref true and gone = ref false in
  while !running do
    Mutex.lock conn.m;
    (* wait until the FIFO head is fulfilled (order is the contract) or
       the stream is over *)
    let rec await () =
      match Queue.peek_opt conn.out with
      | Some { contents = Some _ } -> `Write
      | None when conn.eof -> `Done
      | _ ->
        Condition.wait conn.c conn.m;
        await ()
    in
    match await () with
    | `Done ->
      Mutex.unlock conn.m;
      running := false
    | `Write ->
      let r = Option.get !(Queue.pop conn.out) in
      Mutex.unlock conn.m;
      (* The write returns once the whole frame is out.  Once the
         client has gone away, keep draining cells so shard completions
         have somewhere to land, but build and write nothing. *)
      if not !gone then begin
        let b = frame_of r in
        Atomic.set conn.writing true;
        (try write_from conn b 0 with Unix.Unix_error _ -> gone := true);
        Atomic.set conn.writing false
      end
  done;
  locked conn (fun () ->
      conn.closed <- true;
      try Unix.close conn.fd with _ -> ())

(* Only {!stop} ends accepting.  Any other failure leaves the listener
   open: an aborted handshake or a signal is retried at once; out of
   descriptors, the connection waits in the backlog until some close. *)
let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
    | exception _ ->
      if not (Atomic.get t.stopping) then Thread.delay accept_backoff
    | fd, _ ->
      if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
      else begin
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
        Hwts_obs.Counter.incr m_conns;
        let conn =
          {
            fd;
            m = Mutex.create ();
            c = Condition.create ();
            out = Queue.create ();
            eof = false;
            closed = false;
            reader = None;
            writer = None;
            sent = Atomic.make 0;
            writing = Atomic.make false;
          }
        in
        conn.reader <- Some (Thread.create (fun () -> reader_loop t conn) ());
        conn.writer <- Some (Thread.create (fun () -> writer_loop conn) ());
        Mutex.lock t.conns_m;
        t.conns := conn :: !(t.conns);
        Mutex.unlock t.conns_m
      end
  done

let start ?(host = "127.0.0.1") ~port shards =
  (* a client that resets mid-answer must cost its own connection an
     EPIPE, not the process a SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.listen fd 128;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      listen_fd = fd;
      port;
      shards;
      conns = ref [];
      conns_m = Mutex.create ();
      stopping = Atomic.make false;
      accept_thread = None;
      stop_m = Mutex.create ();
      stopped = false;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let port t = t.port
let router t = t.shards

(* Watch the writers until every one has closed its connection (a stale
   read of [closed] costs one more tick).  A writer's clock restarts
   whenever its client takes bytes or it is not inside a write (it waits
   for shard answers, not for the client). *)
let cut_stalled conns =
  let rec watch live =
    let live = List.filter (fun (conn, _, _) -> not conn.closed) live in
    if live <> [] then begin
      Thread.delay stop_tick;
      let now = Unix.gettimeofday () in
      watch
        (List.map
           (fun ((conn, sent, since) as w) ->
             let s = Atomic.get conn.sent in
             if s <> sent || not (Atomic.get conn.writing) then (conn, s, now)
             else begin
               if now -. since >= stop_grace then
                 shutdown_conn conn Unix.SHUTDOWN_ALL;
               w
             end)
           live)
    end
  in
  let now = Unix.gettimeofday () in
  watch (List.map (fun conn -> (conn, Atomic.get conn.sent, now)) conns)

let stop t =
  Mutex.lock t.stop_m;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_m;
  if first then begin
    Atomic.set t.stopping true;
    (* 1. no new connections: shutdown wakes a thread parked in
       [accept] (closing the fd alone does not, on Linux); close only
       after the accept thread is gone *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* 2. unblock every reader: shutdown (not close) reliably wakes a
       thread parked in [read]; writers then flush all in-flight
       responses and close the fds themselves *)
    Mutex.lock t.conns_m;
    let conns = !(t.conns) in
    Mutex.unlock t.conns_m;
    List.iter (fun conn -> shutdown_conn conn Unix.SHUTDOWN_RECEIVE) conns;
    (* 2b. a writer stuck behind a client that stopped reading would hold
       the join below forever: shut its connection down after
       [stop_grace] without progress, so its write fails and it drains *)
    cut_stalled conns;
    List.iter
      (fun conn ->
        (match conn.reader with Some th -> Thread.join th | None -> ());
        match conn.writer with Some th -> Thread.join th | None -> ())
      conns;
    (* 3. all responses are out, so the shard queues are empty: drain
       formally and join the worker domains *)
    Shards.stop t.shards
  end
