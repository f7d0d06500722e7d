let m_conns = Hwts_obs.Registry.counter "serve.connections"
let m_requests = Hwts_obs.Registry.counter "serve.requests"
let m_malformed = Hwts_obs.Registry.counter "serve.malformed"
let m_oversized = Hwts_obs.Registry.counter "serve.oversized"

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
  mutable reader : Thread.t option;
  mutable writer : Thread.t option;
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
      (* [Unix.write] returns once the whole frame is out.  Once the
         client has gone away, keep draining cells so shard completions
         have somewhere to land, but build and write nothing. *)
      if not !gone then begin
        let b = frame_of r in
        try ignore (Unix.write conn.fd b 0 (Bytes.length b))
        with Unix.Unix_error _ -> gone := true
      end
  done;
  (try Unix.close conn.fd with _ -> ())

let accept_loop t =
  let running = ref true in
  while !running do
    match Unix.accept t.listen_fd with
    | exception _ -> running := false (* listener closed by stop *)
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
            reader = None;
            writer = None;
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
    List.iter
      (fun conn ->
        try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      conns;
    List.iter
      (fun conn ->
        (match conn.reader with Some th -> Thread.join th | None -> ());
        match conn.writer with Some th -> Thread.join th | None -> ())
      conns;
    (* 3. all responses are out, so the shard queues are empty: drain
       formally and join the worker domains *)
    Shards.stop t.shards
  end
