let hc_get = Hwts_obs.Registry.histogram "serve.client.latency.get"
let hc_insert = Hwts_obs.Registry.histogram "serve.client.latency.insert"
let hc_delete = Hwts_obs.Registry.histogram "serve.client.latency.delete"
let hc_range = Hwts_obs.Registry.histogram "serve.client.latency.range"
let hc_batch = Hwts_obs.Registry.histogram "serve.client.latency.batch"
let hc_ping = Hwts_obs.Registry.histogram "serve.client.latency.ping"
let hc_multiget = Hwts_obs.Registry.histogram "serve.client.latency.multiget"

let hc_multirange =
  Hwts_obs.Registry.histogram "serve.client.latency.multirange"

type config = {
  host : string;
  port : int;
  connections : int;
  pipeline : int;
  ops : int;
  key_space : int;
  mix : Workload.Mix.t;
  rq_len : int;
  theta : float;
  batch : int;
  multiget : int;
  seed : int;
}

let default =
  {
    host = "127.0.0.1";
    port = 7621;
    connections = 4;
    pipeline = 8;
    ops = 10_000;
    key_space = 16_384;
    mix = Workload.Mix.make ~u:20 ~rq:10 ~c:70;
    rq_len = 64;
    theta = 0.;
    batch = 1;
    multiget = 1;
    seed = 1;
  }

type result = {
  ops_sent : int;
  responses : int;
  errors : int;
  elapsed : float;
}

let hist_of = function
  | Wire.Get _ -> hc_get
  | Wire.Insert _ -> hc_insert
  | Wire.Delete _ -> hc_delete
  | Wire.Range _ -> hc_range
  | Wire.Batch _ -> hc_batch
  | Wire.Ping -> hc_ping
  | Wire.MultiGet _ -> hc_multiget
  | Wire.MultiRange _ -> hc_multirange

(* Individual operations a request stands for, for ops accounting:
   batch members, multiget keys and multirange ranges all count. *)
let op_count = function
  | Wire.MultiGet ks -> Array.length ks
  | Wire.MultiRange rs -> Array.length rs
  | _ -> 1

(* With [multiget > 1], membership probes ship as one MultiGet frame of
   that many keys (the picked key plus fresh draws) — the client-side
   form of the reads-per-acquisition lever. *)
let op_to_request cfg ~key = function
  | Workload.Mix.Insert k -> Wire.Insert k
  | Workload.Mix.Delete k -> Wire.Delete k
  | Workload.Mix.Contains k ->
    if cfg.multiget > 1 then
      Wire.MultiGet
        (Array.init cfg.multiget (fun i -> if i = 0 then k else key ()))
    else Wire.Get k
  | Workload.Mix.Range k ->
    Wire.Range (k, min cfg.key_space (k + cfg.rq_len - 1))

(* One connection's drive loop: send until [pipeline] frames are in
   flight, then block on the socket until at least one response lands.
   [inflight] remembers each frame's class histogram and send time; the
   FIFO discipline mirrors the server's ordering contract. *)
let drive cfg conn_id =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port)
  in
  Unix.connect fd addr;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  let rng = Dstruct.Prng.make ~seed:(cfg.seed + (1000 * (conn_id + 1))) in
  let zipf =
    if cfg.theta > 0. then
      Some
        (Workload.Zipf.scrambled ~seed:cfg.seed
           (Workload.Zipf.make ~n:cfg.key_space ~theta:cfg.theta))
    else None
  in
  let key () =
    match zipf with
    | Some z -> Workload.Zipf.sample z rng
    | None -> 1 + Dstruct.Prng.below rng cfg.key_space
  in
  let next_op () =
    op_to_request cfg ~key (Workload.Mix.pick_with cfg.mix rng ~key)
  in
  let next_request () =
    if cfg.batch <= 1 then
      let r = next_op () in
      (r, op_count r)
    else
      let n = min cfg.batch cfg.ops in
      (* seeded with the immediate [Ping]: [Array.init]'s young seed
         would force a minor collection above 256 requests *)
      let reqs = Array.make n Wire.Ping in
      for i = 0 to n - 1 do
        reqs.(i) <- next_op ()
      done;
      (Wire.Batch reqs, Array.fold_left (fun a r -> a + op_count r) 0 reqs)
  in
  let dec = Wire.decoder () in
  let rbuf = Bytes.create 65536 in
  let inflight = Queue.create () in
  let ops_sent = ref 0 and responses = ref 0 and errors = ref 0 in
  let rec count_errors = function
    | Wire.Err _ -> incr errors
    | Wire.Rbatch rs -> Array.iter count_errors rs
    | _ -> ()
  in
  let recv_one () =
    let got = ref false in
    while not !got do
      (match Wire.next_response dec with
      | Some r ->
        let h, t0 = Queue.pop inflight in
        Hwts_obs.Histogram.record h (Tsc.monotonic_ns () - t0);
        count_errors r;
        incr responses;
        got := true
      | None ->
        let n = Unix.read fd rbuf 0 (Bytes.length rbuf) in
        if n = 0 then failwith "serve client: connection closed mid-stream";
        Wire.feed dec rbuf 0 n)
    done
  in
  while !ops_sent < cfg.ops do
    (* top the window up *)
    while Queue.length inflight < cfg.pipeline && !ops_sent < cfg.ops do
      let req, n = next_request () in
      let b = Wire.request_frame req in
      Queue.push (hist_of req, Tsc.monotonic_ns ()) inflight;
      (* a blocking [Unix.write] writes every byte *)
      ignore (Unix.write fd b 0 (Bytes.length b));
      ops_sent := !ops_sent + n
    done;
    recv_one ()
  done;
  while not (Queue.is_empty inflight) do
    recv_one ()
  done;
  (try Unix.close fd with _ -> ());
  (!ops_sent, !responses, !errors)

let run cfg =
  if cfg.pipeline < 1 then invalid_arg "Client.run: pipeline must be >= 1";
  if cfg.connections < 1 then
    invalid_arg "Client.run: connections must be >= 1";
  let t0 = Unix.gettimeofday () in
  let results = Array.make cfg.connections (0, 0, 0) in
  let failure = Atomic.make None in
  let threads =
    List.init cfg.connections (fun i ->
        Thread.create
          (fun () ->
            try results.(i) <- drive cfg i
            with e -> Atomic.set failure (Some e))
          ())
  in
  List.iter Thread.join threads;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  let ops_sent, responses, errors =
    Array.fold_left
      (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
      (0, 0, 0) results
  in
  { ops_sent; responses; errors; elapsed }
