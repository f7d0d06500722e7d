(* The load generator: one thread, [Unix.select] over non-blocking
   connections.  Each connection's frames are encoded before the clock
   starts into one contiguous buffer, and every loop sends all frames that
   are due (open loop) or fit the window (closed loop) with a single write
   per connection, so the generator spends its time on the server's
   answers, not on its own syscalls.  Request [i] goes to connection
   [i mod connections]; answers come back in order per connection. *)

type phase = {
  reqs : Serve.Wire.request array;
  due : int array option;
      (** open loop: ns from the phase start at which request [i] is due *)
  window : int;  (** closed loop: requests in flight per connection *)
}

type result = {
  start : int;  (** monotonic ns at the phase start *)
  sent : int array;  (** per request: monotonic ns of the write that sent it *)
  answered : int array;  (** per request: monotonic ns its answer was read *)
  elapsed_ns : int;  (** phase start to last answer *)
  bytes_in : int;
  cpu_s : float;  (** generator CPU time, user + system *)
}

let connect ~port n =
  Array.init n (fun _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd;
      fd)

let close fds = Array.iter (fun fd -> try Unix.close fd with _ -> ()) fds

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A connection's share of the phase: its requests' global indices and
   their frames, back to back; [ends.(j)] is the byte after frame [j]. *)
type stream = { ids : int array; bytes : Bytes.t; ends : int array }

let encode reqs ~conns c =
  let ids =
    Array.init
      ((Array.length reqs - c + conns - 1) / conns)
      (fun j -> (j * conns) + c)
  in
  let b = Buffer.create (24 * Array.length ids) in
  let ends =
    Array.map
      (fun i ->
        Serve.Wire.encode_request b reqs.(i);
        Buffer.length b)
      ids
  in
  { ids; bytes = Buffer.to_bytes b; ends }

let stall_ns = 30_000_000_000

let run fds ph ~on_answer =
  let nc = Array.length fds in
  let n = Array.length ph.reqs in
  let streams = Array.init nc (encode ph.reqs ~conns:nc) in
  let decs = Array.init nc (fun _ -> Serve.Wire.decoder ()) in
  let queued = Array.make nc 0 and written = Array.make nc 0 in
  let got = Array.make nc 0 in
  let sent = Array.make n 0 and answered = Array.make n 0 in
  let total = ref 0 and bytes_in = ref 0 in
  let rbuf = Bytes.create 65536 in
  let cpu0 = cpu_time () in
  let start = Tsc.monotonic_ns () in
  let last_progress = ref start in
  while !total < n do
    let now = Tsc.monotonic_ns () in
    let blocked = ref [] in
    let next_due = ref max_int in
    for c = 0 to nc - 1 do
      let s = streams.(c) in
      let m = Array.length s.ids in
      let limit = min m (got.(c) + ph.window) in
      let q = ref queued.(c) in
      (match ph.due with
      | None ->
        while !q < limit do
          sent.(s.ids.(!q)) <- now;
          incr q
        done
      | Some due ->
        while !q < limit && start + due.(s.ids.(!q)) <= now do
          sent.(s.ids.(!q)) <- now;
          incr q
        done;
        if !q < limit then next_due := min !next_due (start + due.(s.ids.(!q))));
      queued.(c) <- !q;
      let upto = if !q = 0 then 0 else s.ends.(!q - 1) in
      if written.(c) < upto then begin
        (match Unix.single_write fds.(c) s.bytes written.(c) (upto - written.(c)) with
        | k -> written.(c) <- written.(c) + k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
        if written.(c) < upto then blocked := fds.(c) :: !blocked
      end
    done;
    let timeout =
      if !next_due = max_int then 1.0
      else Float.max 0. (float_of_int (!next_due - now) /. 1e9)
    in
    let waiting =
      List.filter_map
        (fun c -> if got.(c) < queued.(c) then Some fds.(c) else None)
        (List.init nc Fun.id)
    in
    let readable =
      if waiting = [] && !blocked = [] && timeout = 0. then []
      else
        match Unix.select waiting !blocked [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c =
          let rec idx i = if fds.(i) == fd then i else idx (i + 1) in
          idx 0
        in
        match Unix.read fd rbuf 0 (Bytes.length rbuf) with
        | 0 -> failwith "server closed a connection mid-stream"
        | k ->
          let t = Tsc.monotonic_ns () in
          bytes_in := !bytes_in + k;
          Serve.Wire.feed decs.(c) rbuf 0 k;
          let rec drain () =
            match Serve.Wire.next_response decs.(c) with
            | None -> ()
            | Some resp ->
              if got.(c) >= queued.(c) then
                failwith "server answered a request that was not sent";
              let i = streams.(c).ids.(got.(c)) in
              answered.(i) <- t;
              got.(c) <- got.(c) + 1;
              incr total;
              on_answer i resp;
              drain ()
          in
          drain ();
          last_progress := t
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
      readable;
    if readable = [] && Tsc.monotonic_ns () - !last_progress > stall_ns then
      failwith "no answer from the server for 30 s"
  done;
  let elapsed_ns = Array.fold_left max start answered - start in
  { start; sent; answered; elapsed_ns; bytes_in = !bytes_in; cpu_s = cpu_time () -. cpu0 }
