(* Loopback end-to-end tests for the serving stack: spawn the sharded
   server in-process, drive it over a real TCP socket with the wire
   codec, and verify responses against a sequential oracle.

   Oracle exactness relies on phasing: all writes are sent and their
   responses read before any range/get is sent, so every read observes
   exactly the model set (per-shard FIFO makes the write phase itself
   sequentially exact per key).  The matrix covers both coalesce arms
   over the two providers the served workloads run (logical and
   rdtscp-strict), per the serving experiment's A/B switch.

   The server-level cases run under both executors: worker domains, and
   (named "inline: ...") the shards' tasks run by the server loop
   itself, as on a one-CPU box.  Cases that hold a shard inside a
   completion force worker domains: a held inline completion holds the
   router too.

   A subprocess test exercises the deployed binary: parse the listening
   port, drive mixed ops, SIGINT, and require exit 0 with the metrics
   registry flushed to --metrics-out.  Two more start it with and
   without an affinity of one CPU and read which executor it chose. *)

module Wire = Serve.Wire
module ISet = Set.Make (Int)

let c_snapshots = Hwts_obs.Registry.counter "serve.rq.snapshots"
let c_rq_ops = Hwts_obs.Registry.counter "serve.rq.ops"
let c_mget_frames = Hwts_obs.Registry.counter "serve.mget.frames"

(* A registry gauge's value, as an int. *)
let gauge name =
  match Hwts_obs.Registry.find name with
  | Some (Hwts_obs.Registry.Gauge f) -> int_of_float (f ())
  | _ -> Alcotest.failf "no %s gauge" name

(* ---------- a tiny blocking client ---------- *)

let connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  (* a lost answer fails the test instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  fd

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* one frame, as the encoders append it *)
let framed encode v =
  let b = Buffer.create 64 in
  encode b v;
  Buffer.to_bytes b

let request_bytes = framed Wire.encode_request
let response_bytes = framed Wire.encode_response
let send fd req = write_all fd (request_bytes req)

type client = { fd : Unix.file_descr; dec : Wire.decoder; rbuf : Bytes.t }

let client ?rcvbuf ?(slice = 65536) port =
  { fd = connect ?rcvbuf port; dec = Wire.decoder (); rbuf = Bytes.create slice }

(* next response, or None on orderly EOF *)
let recv cl =
  let rec go () =
    match Wire.next_response cl.dec with
    | Some r -> Some r
    | None ->
      let n = Unix.read cl.fd cl.rbuf 0 (Bytes.length cl.rbuf) in
      if n = 0 then None
      else begin
        Wire.feed cl.dec cl.rbuf 0 n;
        go ()
      end
  in
  go ()

let recv_exn cl =
  match recv cl with
  | Some r -> r
  | None -> Alcotest.fail "unexpected EOF from server"

let with_server ~provider ~coalesce ?(executor = `Domains)
    ?(structure = "bst-vcas") ?(shards = 3) ?(key_space = 512) f =
  let router =
    Serve.Shards.create ~executor ~structure ~provider ~shards ~key_space
      ~coalesce ()
  in
  let server = Serve.Server.start ~port:0 router in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () -> f (Serve.Server.port server))

(* ---------- sequential oracle over a phased mixed load ---------- *)

let expect_bool what expected = function
  | Wire.Bool b -> Alcotest.(check bool) what expected b
  | r ->
    Alcotest.failf "%s: expected Bool, got %s" what
      (match r with
      | Wire.Err m -> "Err " ^ m
      | Wire.Keys _ -> "Keys"
      | Wire.Rbatch _ -> "Rbatch"
      | Wire.Pong -> "Pong"
      | Wire.Bools _ -> "Bools"
      | Wire.Keyss _ -> "Keyss"
      | Wire.Bool _ -> assert false)

let expect_keys what expected = function
  | Wire.Keys (_, keys) ->
    Alcotest.(check (array int)) what expected keys
  | Wire.Err m -> Alcotest.failf "%s: Err %s" what m
  | _ -> Alcotest.failf "%s: expected Keys" what

let expect_bools what expected = function
  | Wire.Bools (_, bs) -> Alcotest.(check (array bool)) what expected bs
  | Wire.Err m -> Alcotest.failf "%s: Err %s" what m
  | _ -> Alcotest.failf "%s: expected Bools" what

let expect_keyss what expected = function
  | Wire.Keyss (_, kss) ->
    Alcotest.(check (array (array int))) what expected kss
  | Wire.Err m -> Alcotest.failf "%s: Err %s" what m
  | _ -> Alcotest.failf "%s: expected Keyss" what

let model_range model ~key_space lo hi =
  let lo = max lo 1 and hi = min hi key_space in
  ISet.elements model
  |> List.filter (fun k -> k >= lo && k <= hi)
  |> Array.of_list

let oracle_run ~executor ~provider ~coalesce () =
  let key_space = 512 in
  with_server ~executor ~provider ~coalesce ~shards:3 ~key_space (fun port ->
      let cl = client port in
      let rng = Dstruct.Prng.make ~seed:42 in
      let model = ref ISet.empty in
      (* phase 1: pipelined writes; expectations recorded in submission
         order, responses read back FIFO *)
      let expected = Queue.create () in
      for _ = 1 to 800 do
        let key = 1 + Dstruct.Prng.below rng key_space in
        if Dstruct.Prng.below rng 3 = 0 then begin
          send cl.fd (Wire.Delete key);
          Queue.push (ISet.mem key !model) expected;
          model := ISet.remove key !model
        end
        else begin
          send cl.fd (Wire.Insert key);
          Queue.push (not (ISet.mem key !model)) expected;
          model := ISet.add key !model
        end
      done;
      Queue.iter
        (fun want -> expect_bool "write result" want (recv_exn cl))
        expected;
      (* phase 2: gets and ranges against the settled model, pipelined *)
      let checks = Queue.create () in
      for _ = 1 to 60 do
        let key = 1 + Dstruct.Prng.below rng key_space in
        send cl.fd (Wire.Get key);
        Queue.push (`Bool (ISet.mem key !model)) checks
      done;
      for _ = 1 to 60 do
        let lo = 1 + Dstruct.Prng.below rng key_space in
        let hi = lo + Dstruct.Prng.below rng 256 in
        send cl.fd (Wire.Range (lo, hi));
        Queue.push (`Keys (model_range !model ~key_space lo hi)) checks
      done;
      (* edge spans: the full key space (crosses every shard), clamping
         below 1 and above key_space, and an empty range *)
      List.iter
        (fun (lo, hi) ->
          send cl.fd (Wire.Range (lo, hi));
          Queue.push (`Keys (model_range !model ~key_space lo hi)) checks)
        [ (1, key_space); (-50, key_space + 50); (40, 39); (key_space, key_space) ];
      (* multi-point frames: membership and range sets answered against
         one snapshot cut per frame; keys straddle shard boundaries and
         include out-of-range probes (which answer false inline) *)
      for _ = 1 to 30 do
        let n = 1 + Dstruct.Prng.below rng 8 in
        let keys =
          Array.init n (fun _ -> Dstruct.Prng.below rng (key_space + 40) - 19)
        in
        send cl.fd (Wire.MultiGet keys);
        Queue.push (`Bools (Array.map (fun k -> ISet.mem k !model) keys)) checks
      done;
      for _ = 1 to 20 do
        let n = 1 + Dstruct.Prng.below rng 4 in
        let ranges =
          Array.init n (fun _ ->
              let lo = 1 + Dstruct.Prng.below rng key_space in
              (lo, lo + Dstruct.Prng.below rng 128))
        in
        send cl.fd (Wire.MultiRange ranges);
        Queue.push
          (`Keyss
            (Array.map
               (fun (lo, hi) -> model_range !model ~key_space lo hi)
               ranges))
          checks
      done;
      (* degenerate multi-point frames answer inline *)
      send cl.fd (Wire.MultiGet [||]);
      Queue.push (`Bools [||]) checks;
      send cl.fd (Wire.MultiRange [||]);
      Queue.push (`Keyss [||]) checks;
      send cl.fd (Wire.MultiGet [| -4; key_space + 9 |]);
      Queue.push (`Bools [| false; false |]) checks;
      Queue.iter
        (fun want ->
          match want with
          | `Bool b -> expect_bool "get" b (recv_exn cl)
          | `Keys keys -> expect_keys "range" keys (recv_exn cl)
          | `Bools bs -> expect_bools "multiget" bs (recv_exn cl)
          | `Keyss kss -> expect_keyss "multirange" kss (recv_exn cl))
        checks;
      (* a mixed batch frame: members answered in order inside Rbatch;
         fresh_key stays outside the queried span so the member range is
         deterministic *)
      let fresh = 1 in
      send cl.fd (Wire.Delete fresh);
      ignore (recv_exn cl);
      model := ISet.remove fresh !model;
      send cl.fd
        (Wire.Batch
           [|
             Wire.Insert fresh;
             Wire.Get fresh;
             Wire.Range (100, 140);
             Wire.Ping;
             Wire.MultiGet [| 100; 120 |];
             Wire.MultiRange [| (100, 110); (130, 140) |];
             Wire.Delete fresh;
           |]);
      (match recv_exn cl with
      | Wire.Rbatch rs ->
        Alcotest.(check int) "batch arity" 7 (Array.length rs);
        expect_bool "batch insert" true rs.(0);
        expect_bool "batch get" true rs.(1);
        expect_keys "batch range"
          (model_range !model ~key_space 100 140)
          rs.(2);
        (match rs.(3) with
        | Wire.Pong -> ()
        | _ -> Alcotest.fail "batch ping: expected Pong");
        expect_bools "batch multiget"
          [| ISet.mem 100 !model; ISet.mem 120 !model |]
          rs.(4);
        expect_keyss "batch multirange"
          [|
            model_range !model ~key_space 100 110;
            model_range !model ~key_space 130 140;
          |]
          rs.(5);
        expect_bool "batch delete" true rs.(6)
      | _ -> Alcotest.fail "expected Rbatch");
      Unix.close cl.fd)

(* the acquisition-accounting invariant: per-RQ mode acquires exactly
   once per subrange and once per multiget slice; coalesced mode never
   more, usually fewer *)
let oracle ~executor ~provider ~coalesce () =
  Hwts_obs.Counter.reset c_snapshots;
  Hwts_obs.Counter.reset c_rq_ops;
  Hwts_obs.Counter.reset c_mget_frames;
  oracle_run ~executor ~provider ~coalesce ();
  let snapshots = Hwts_obs.Counter.sum c_snapshots in
  let rq_ops = Hwts_obs.Counter.sum c_rq_ops in
  let mget_frames = Hwts_obs.Counter.sum c_mget_frames in
  Alcotest.(check bool) "ranges exercised" true (rq_ops > 0);
  Alcotest.(check bool) "multigets exercised" true (mget_frames > 0);
  if coalesce then
    Alcotest.(check bool)
      (Printf.sprintf "snapshots (%d) <= read tasks (%d)" snapshots
         (rq_ops + mget_frames))
      true
      (snapshots <= rq_ops + mget_frames)
  else
    Alcotest.(check int) "one acquisition per read task"
      (rq_ops + mget_frames) snapshots

(* ---------- protocol errors over the socket ---------- *)

let error_frames ~executor () =
  with_server ~executor ~provider:`Logical ~coalesce:true ~key_space:128
    (fun port ->
      let cl = client port in
      send cl.fd (Wire.Get 129);
      expect_bool "get out of range is absent" false (recv_exn cl);
      send cl.fd (Wire.Insert 0);
      (match recv_exn cl with
      | Wire.Err _ -> ()
      | _ -> Alcotest.fail "insert 0: expected Err");
      send cl.fd (Wire.Delete 1_000_000);
      (match recv_exn cl with
      | Wire.Err _ -> ()
      | _ -> Alcotest.fail "delete out of range: expected Err");
      send cl.fd Wire.Ping;
      (match recv_exn cl with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected Pong");
      (* an Err ahead of other members of a batch answer *)
      send cl.fd (Wire.Batch [| Wire.Insert 0; Wire.Ping |]);
      (match recv_exn cl with
      | Wire.Rbatch [| Wire.Err _; Wire.Pong |] -> ()
      | _ -> Alcotest.fail "expected Rbatch [| Err; Pong |]");
      Unix.close cl.fd)

let malformed_frame_closes ~executor () =
  with_server ~executor ~provider:`Logical ~coalesce:true ~key_space:128
    (fun port ->
      let cl = client port in
      (* a healthy request, then garbage: the server must answer both in
         order — the second with Err — then close *)
      send cl.fd (Wire.Insert 5);
      write_all cl.fd (Bytes.of_string "\x00\x00\x00\x01\x7f");
      expect_bool "pre-garbage insert" true (recv_exn cl);
      (match recv_exn cl with
      | Wire.Err _ -> ()
      | _ -> Alcotest.fail "expected Err for malformed frame");
      Alcotest.(check bool) "connection closed" true (recv cl = None);
      Unix.close cl.fd)

(* ---------- answers too large for a frame, clients that reset ---------- *)

(* Inserts [1, n] in a shuffled order: bst-vcas does not balance, so
   ascending inserts would build a path of [n] nodes. *)
let inserts n =
  let keys = Array.init n (fun i -> i + 1) in
  Util.shuffle (Util.rng n) keys;
  Wire.Batch (Array.map (fun k -> Wire.Insert k) keys)

let prefill cl n =
  send cl.fd (inserts n);
  match recv_exn cl with
  | Wire.Rbatch rs ->
    Alcotest.(check int) "prefill answered" n (Array.length rs)
  | _ -> Alcotest.fail "prefill: expected Rbatch"

(* 101 full ranges over 21,000 keys need ~17 MB, above max_payload: the
   answer is an Err in its place, and the connection keeps serving *)
let oversized_answer ~executor () =
  let key_space = 21_000 in
  with_server ~executor ~provider:`Logical ~coalesce:true ~shards:2 ~key_space
    (fun port ->
      let cl = client port in
      prefill cl key_space;
      send cl.fd (Wire.MultiRange (Array.make 101 (1, key_space)));
      send cl.fd Wire.Ping;
      send cl.fd (Wire.Range (1, 3));
      (match recv_exn cl with
      | Wire.Err _ -> ()
      | _ -> Alcotest.fail "oversized answer: expected Err");
      (match recv_exn cl with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected Pong after the oversized answer");
      expect_keys "range after the oversized answer" [| 1; 2; 3 |]
        (recv_exn cl);
      Unix.close cl.fd)

(* a client resets (SO_LINGER 0) while large answers are still being
   written: only its connection fails, never the process (SIGPIPE) *)
let client_reset_mid_answer () =
  let key_space = 50_000 in
  with_server ~provider:`Logical ~coalesce:true ~shards:2 ~key_space
    (fun port ->
      let cl = client port in
      prefill cl key_space;
      for _ = 1 to 20 do
        send cl.fd (Wire.Range (1, key_space))
      done;
      (* the first answer has started to arrive: the writer is mid-answer
         with ~8 MB still to go *)
      ignore (Unix.read cl.fd cl.rbuf 0 (Bytes.length cl.rbuf));
      Unix.setsockopt_optint cl.fd Unix.SO_LINGER (Some 0);
      Unix.close cl.fd;
      let cl = client port in
      send cl.fd Wire.Ping;
      (match recv_exn cl with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected Pong on a new connection");
      Unix.close cl.fd)

(* ---------- cross-shard answers ---------- *)

let with_router ?(executor = `Domains) ?(shards = 2) ~key_space f =
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards ~key_space ~coalesce:true ()
  in
  Fun.protect ~finally:(fun () -> Serve.Shards.stop router) (fun () -> f router)

(* Holds the worker of the shard owning [key] inside a Get's completion
   until the returned release is called.  Worker domains only: an inline
   completion runs on the submitting thread, so it would never return. *)
let hold_shard router key =
  let held = Atomic.make false and release = Atomic.make false in
  Serve.Shards.submit router (Wire.Get key) (fun _ ->
      Atomic.set held true;
      while not (Atomic.get release) do
        Unix.sleepf 0.001
      done);
  while not (Atomic.get held) do
    Unix.sleepf 0.001
  done;
  fun () -> Atomic.set release true

let await what cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
    Unix.sleepf 0.001
  done

(* Two shards of [1, 50] and [51, 100].  The answer is the sorted union
   of the parts, in one array, under the larger part label: part 0 is
   held back until shard 1 has answered a later snapshot, so its label
   is the larger one, and it completes last. *)
let cross_shard_range () =
  with_router ~key_space:100 (fun router ->
      let exec = Serve.Shards.exec router in
      List.iter (fun k -> ignore (exec (Wire.Insert k))) [ 10; 20; 60; 70 ];
      List.iter
        (fun (what, lo, hi, want) ->
          expect_keys what want (exec (Wire.Range (lo, hi))))
        [
          ("both parts", 5, 80, [| 10; 20; 60; 70 |]);
          ("part 0 empty", 30, 65, [| 60 |]);
          ("part 1 empty", 15, 55, [| 20 |]);
          ("clamped at both ends", -5, 1000, [| 10; 20; 60; 70 |]);
        ];
      let release = hold_shard router 1 in
      Fun.protect ~finally:release @@ fun () ->
      let answer = Atomic.make None in
      Serve.Shards.submit router (Wire.Range (5, 80)) (fun r ->
          Atomic.set answer (Some r));
      (* FIFO: shard 1 answers this after part 1, under a later label *)
      let later =
        match exec (Wire.Range (51, 100)) with
        | Wire.Keys (label, _) -> label
        | _ -> Alcotest.fail "expected Keys"
      in
      release ();
      await "the held range" (fun () -> Atomic.get answer <> None);
      match Atomic.get answer with
      | Some (Wire.Keys (label, keys)) ->
        Alcotest.(check (array int)) "union" [| 10; 20; 60; 70 |] keys;
        Alcotest.(check bool)
          (Printf.sprintf "label %d is the held part's, above %d" label later)
          true (label > later && label <= Serve.Shards.now router)
      | _ -> Alcotest.fail "expected Keys")

(* Answers longer than one collection-buffer segment (64 keys): a
   cross-shard range whose parts hold 500 keys each, and ranges inside
   one shard, with and without a shared snapshot. *)
let long_range_answers ~executor ~coalesce () =
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space:1_000 ~coalesce ()
  in
  Fun.protect ~finally:(fun () -> Serve.Shards.stop router) @@ fun () ->
  let exec = Serve.Shards.exec router in
  ignore (exec (Wire.Batch (Array.init 1_000 (fun i -> Wire.Insert (i + 1)))));
  let span lo hi = Array.init (hi - lo + 1) (fun i -> lo + i) in
  List.iter
    (fun (what, lo, hi) -> expect_keys what (span lo hi) (exec (Wire.Range (lo, hi))))
    [
      ("cross-shard, 500 keys a part", 1, 1_000);
      ("cross-shard, 436 + 64 keys", 65, 564);
      ("one shard", 101, 400);
      ("one shard, second half", 501, 1_000);
    ]

(* A request split across shards whose second part a stopping shard
   refuses completes with Err, not with the first part's answer.  The
   submitter parks between the two enqueues (the fan-out's pause point);
   shard 0 is held so its part completes after the refusal. *)
let stopping what = function
  | Wire.Err msg -> Alcotest.(check string) what "server stopping" msg
  | _ -> Alcotest.failf "%s: a partial answer was reported as success" what

let refused_part_fails_request ?(expect = stopping "error") req () =
  with_router ~key_space:100 (fun router ->
      List.iter
        (fun k -> ignore (Serve.Shards.exec router (Wire.Insert k)))
        [ 10; 60 ];
      let release = hold_shard router 1 in
      (* a failed step must not leave the point armed or the shard held *)
      Fun.protect ~finally:(fun () ->
          Sync.Pause.disable ();
          Sync.Pause.unpark ();
          release ())
      @@ fun () ->
      let answer = Atomic.make None in
      Sync.Pause.park_at 1;
      let submitter =
        Domain.spawn (fun () ->
            Serve.Shards.submit router req (fun r ->
                Atomic.set answer (Some r)))
      in
      await "the submitter to park" Sync.Pause.parked;
      let stopper = Domain.spawn (fun () -> Serve.Shards.stop router) in
      (* shard 1 refuses work once the stop has reached it *)
      let refused = Atomic.make false in
      await "shard 1 to refuse" (fun () ->
          Serve.Shards.submit router (Wire.Get 60) (function
            | Wire.Err _ -> Atomic.set refused true
            | _ -> ());
          Atomic.get refused);
      Sync.Pause.unpark ();
      Domain.join submitter;
      release ();
      Domain.join stopper;
      match Atomic.get answer with
      | Some r -> expect r
      | None -> Alcotest.fail "no answer")

(* every position of a batch's answer is refused *)
let all_stopping = function
  | Wire.Rbatch rs ->
    Array.iteri (fun i r -> stopping (Printf.sprintf "position %d" i) r) rs
  | _ -> Alcotest.fail "expected Rbatch"

(* ---------- batches: point ops as one task per shard ---------- *)

let rec show = function
  | Wire.Bool b -> Printf.sprintf "Bool %b" b
  | Wire.Keys (_, ks) ->
    "Keys " ^ String.concat "," (Array.to_list (Array.map string_of_int ks))
  | Wire.Bools (_, bs) ->
    "Bools " ^ String.concat "," (Array.to_list (Array.map string_of_bool bs))
  | Wire.Keyss (_, kss) -> "Keyss " ^ string_of_int (Array.length kss)
  | Wire.Rbatch rs -> "Rbatch " ^ String.concat ";" (Array.to_list (Array.map show rs))
  | Wire.Pong -> "Pong"
  | Wire.Err m -> "Err " ^ m

let hist_count name = Hwts_obs.Histogram.count (Hwts_obs.Registry.histogram name)

(* A batch mixing in-range ops on both shards of [1, 50] and [51, 100],
   out-of-range ops, a Ping and cross-shard reads answers, position by
   position, what its sub-requests get sent one at a time to a twin
   router (labels aside).  The reads in the middle cover keys no op of
   the batch writes; the ones at the end see every write.  Each in-range
   sub-op is one [serve.point.ops], and every point sub-op one sample of
   its class's latency histogram.  Over [tcp], the batch is sent to a
   server on the router, then a batch of only its point ops (decoded
   packed), answered beside the twin's one-at-a-time answers to them.
   With three [shards] the last shard's span, [69, 102], runs past the
   key space: Insert 101 and Delete 102 still answer Err, with in-range
   ops of that shard in the same batch. *)
let batch_matches_one_at_a_time ~tcp ~shards ~executor () =
  let open Wire in
  let reqs =
    [|
      Insert 10; Insert 60; Get 10; Get 61; Insert 0; Get 101; Range (25, 58);
      Insert 101; Delete 10; Insert 61; Ping; Get 60; Delete 102; Get 102;
      MultiGet [| 30; 55; 57; 200 |];
      Delete 0; Insert 10; Insert 10; Delete 99; Get 61; Delete 60; Get 60;
      Insert 20; Get 30; Range (1, 100); MultiGet [| 10; 20; 60; 61 |];
      MultiRange [| (1, 50); (55, 70) |];
    |]
  in
  let count f = Array.fold_left (fun n r -> if f r then n + 1 else n) 0 reqs in
  let in_range = function
    | Get k | Insert k | Delete k -> k >= 1 && k <= 100
    | _ -> false
  in
  let classes =
    [
      ("serve.latency.get", function Get _ -> true | _ -> false);
      ("serve.latency.insert", function Insert _ -> true | _ -> false);
      ("serve.latency.delete", function Delete _ -> true | _ -> false);
    ]
  in
  with_router ~executor ~shards ~key_space:100 @@ fun batched ->
  with_router ~executor ~shards ~key_space:100 @@ fun twin ->
  List.iter
    (fun router ->
      ignore (Serve.Shards.exec router (Batch [| Insert 30; Insert 55 |])))
    [ batched; twin ];
  let points =
    Array.of_list
      (List.filter (function Get _ | Insert _ | Delete _ -> true | _ -> false) (Array.to_list reqs))
  in
  let batches = if tcp then [ reqs; points ] else [ reqs ] in
  let ops0 = Option.get (Hwts_obs.Registry.counter_value "serve.point.ops") in
  let samples0 = List.map (fun (h, _) -> hist_count h) classes in
  let got =
    if not tcp then [ Serve.Shards.exec batched (Batch reqs) ]
    else begin
      let server = Serve.Server.start ~port:0 batched in
      Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
      let cl = client (Serve.Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
      List.map
        (fun b ->
          send cl.fd (Batch b);
          recv_exn cl)
        batches
    end
  in
  let ops1 = Option.get (Hwts_obs.Registry.counter_value "serve.point.ops") in
  let samples1 = List.map (fun (h, _) -> hist_count h) classes in
  List.iter2
    (fun b got ->
      let want = Array.map (Serve.Shards.exec twin) b in
      match got with
      | Rbatch rs ->
        Alcotest.(check (array string))
          "answers" (Array.map show want) (Array.map show rs)
      | r -> Alcotest.failf "expected Rbatch, got %s" (show r))
    batches got;
  let times = List.length batches in
  Alcotest.(check int) "serve.point.ops" (times * count in_range) (ops1 - ops0);
  List.iteri
    (fun i (h, f) ->
      Alcotest.(check int) h (times * count f) (List.nth samples1 i - List.nth samples0 i))
    classes

let rejected = Wire.Err "server stopping"

(* After [stop], every shard refuses: each in-range point position of a
   batch, and its reads, answer Err; a Ping still answers Pong. *)
let batch_after_stop ~executor () =
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space:100 ~coalesce:true ()
  in
  Serve.Shards.stop router;
  let open Wire in
  match
    Serve.Shards.exec router
      (Batch [| Insert 10; Get 60; Ping; Delete 70; Range (1, 100); Insert 20 |])
  with
  | Rbatch rs ->
    Alcotest.(check (array string))
      "answers"
      (Array.map show
         [| rejected; rejected; Pong; rejected; rejected; rejected |])
      (Array.map show rs)
  | r -> Alcotest.failf "expected Rbatch, got %s" (show r)

(* ---------- decoding large frames forces no collection ---------- *)

(* Arrays over 256 words seeded with a young block ([Array.init]'s way)
   cost a forced minor collection, which under OCaml 5 stops every
   domain.  The decoder's arrays of boxed values must not, nor the
   packed decode of point batches (60,000 ops: 265 chunks). *)
let decode_forces_no_collection () =
  let open Wire in
  let reqs =
    [
      Batch (Array.init 512 (fun i -> Insert (i + 1)));
      MultiRange (Array.init 300 (fun i -> (i, i + 10)));
    ]
  and resps =
    [
      Rbatch (Array.init 300 (fun i -> Keys (i, [| i; i + 1 |])));
      Keyss (7, Array.init 300 (fun i -> [| i; i + 1 |]));
    ]
  in
  let fed frames =
    let d = decoder () in
    List.iter (fun b -> feed d b 0 (Bytes.length b)) frames;
    d
  in
  let points = [ 512; 60_000 ] in
  let qd = fed (List.map request_bytes reqs)
  and rd = fed (List.map response_bytes resps)
  and pd =
    fed
      (List.map
         (fun n -> request_bytes (Batch (Array.init n (fun i -> Delete (i + 1)))))
         points)
  in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let got_reqs = List.map (fun _ -> next_request qd) reqs in
  let got_resps = List.map (fun _ -> next_response rd) resps in
  let got_points = List.map (fun _ -> next_incoming pd) points in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections while decoding" before after;
  List.iter2
    (fun n -> function
      | Some (Points p) ->
        Alcotest.(check int) "packed ops" n (length p);
        Alcotest.(check bool) "last op" true (member p (n - 1) = Delete n)
      | _ -> Alcotest.fail "a point batch was not packed")
    points got_points;
  Alcotest.(check bool) "requests round-trip" true
    (got_reqs = List.map Option.some reqs);
  Alcotest.(check bool) "responses round-trip" true
    (got_resps = List.map Option.some resps)

(* ---------- stop drains in-flight work ---------- *)

let stop_drains_inflight ~executor () =
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space:256 ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  let cl = client (Serve.Server.port server) in
  let n = 200 in
  for i = 1 to n do
    send cl.fd (Wire.Insert (1 + (i mod 256)))
  done;
  (* give the reader a beat to pull everything off the socket, then stop
     without having read a single response: stop must flush all of them *)
  Unix.sleepf 0.3;
  Serve.Server.stop server;
  let got = ref 0 in
  let eof = ref false in
  while not !eof do
    match recv cl with Some _ -> incr got | None -> eof := true
  done;
  Alcotest.(check int) "every in-flight response flushed" n !got;
  Unix.close cl.fd

(* Two clients pipeline large ranges and read nothing, so both writers
   block.  Once stop has begun, one client starts reading and must get
   every answer; the other never reads, and stop must still return once
   its grace has passed. *)
let stop_cuts_client_not_reading ~executor () =
  let key_space = 50_000 and n = 40 in
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  let port = Serve.Server.port server in
  let reading = client port and stalled = client port in
  prefill reading key_space;
  List.iter
    (fun cl ->
      for _ = 1 to n do
        send cl.fd (Wire.Range (1, key_space))
      done)
    [ reading; stalled ];
  (* let the readers pull every request off the sockets *)
  Unix.sleepf 0.3;
  let stopped = Atomic.make false in
  let started = Unix.gettimeofday () in
  let stopper =
    Thread.create
      (fun () ->
        Serve.Server.stop server;
        Atomic.set stopped true)
      ()
  in
  Unix.sleepf 0.5;
  let full = ref 0 and eof = ref false in
  while not !eof do
    match recv reading with
    | Some (Wire.Keys (_, keys)) when Array.length keys = key_space ->
      incr full
    | Some _ -> Alcotest.fail "expected a full range answer"
    | None -> eof := true
  done;
  Unix.close reading.fd;
  while
    (not (Atomic.get stopped)) && Unix.gettimeofday () -. started < 10.
  do
    Unix.sleepf 0.01
  done;
  let returned = Atomic.get stopped in
  (* what the stalled client was sent before the cut: whole answers,
     then the part of one that the cut landed in *)
  let whole = ref 0 and cut_short = ref 0 in
  if returned then begin
    let eof = ref false in
    while not !eof do
      match recv stalled with
      | Some (Wire.Keys (_, keys)) when Array.length keys = key_space -> incr whole
      | Some _ -> Alcotest.fail "the stalled client: expected a full range answer"
      | None -> eof := true
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> eof := true
    done;
    cut_short := Wire.buffered stalled.dec
  end;
  (* let a stop that hangs finish, so the failure below is reported *)
  Unix.close stalled.fd;
  Thread.join stopper;
  Alcotest.(check int) "the reading client got every answer" n !full;
  Alcotest.(check bool) "stop returned within 10 s" true returned;
  Alcotest.(check int) "no request in flight after the cut" 0
    (gauge "serve.in_flight");
  Alcotest.(check bool)
    (Printf.sprintf "the stalled client got %d whole answers of %d" !whole n)
    true (!whole < n);
  Alcotest.(check bool)
    (Printf.sprintf "the cut landed inside a streamed answer (%d bytes of it)"
       !cut_short)
    true (!cut_short > 0)

(* A client with a 4 KiB receive buffer that reads 997 bytes at a time:
   the 120,000-key cross-shard ranges (960 KB each) pipelined between
   Pings and Gets go out in many partial writes, streamed through the
   connection's write buffer, and every answer arrives intact and in
   order. *)
let streamed_answers ~executor () =
  let key_space = 120_000 in
  with_server ~executor ~provider:`Logical ~coalesce:true ~shards:2 ~key_space
    (fun port ->
      let cl = client port in
      prefill cl key_space;
      Unix.close cl.fd;
      let cl = client ~rcvbuf:4096 ~slice:997 port in
      Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
      let span lo hi = Array.init (hi - lo + 1) (fun i -> lo + i) in
      let pong what = function
        | Wire.Pong -> ()
        | r -> Alcotest.failf "%s: expected Pong, got %s" what (show r)
      in
      let script =
        [
          (Wire.Ping, pong "first ping");
          (Wire.Get 5, expect_bool "get 5" true);
          (Wire.Range (1, key_space), expect_keys "first full range" (span 1 key_space));
          (Wire.Get (key_space + 1), expect_bool "get out of range" false);
          (Wire.Ping, pong "ping between ranges");
          (Wire.Range (1, key_space), expect_keys "second full range" (span 1 key_space));
          (Wire.Range (59_990, 60_010), expect_keys "across the shards" (span 59_990 60_010));
          (Wire.Get 60_001, expect_bool "get 60,001" true);
          (Wire.Ping, pong "last ping");
        ]
      in
      List.iter (fun (req, _) -> send cl.fd req) script;
      List.iter (fun (_, expect) -> expect (recv_exn cl)) script)

(* Words [f ()] allocated on every domain, counting a promoted block
   once: a minor collection, which empties every domain's minor heap,
   brings each domain's counters up to date before and after. *)
let words_everywhere f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let r = f () in
  (r, int_of_float (words () -. w0))

(* Serving the same 131,072-key cross-shard range a second time
   allocates at most [key_space / 2] words, 4 bytes a key, plus 8,192
   for the unfilled room of each part's last 8192-key segment and 3,072
   for the server loop's turns (measured on 2 vCPUs: 73,962-75,305 words
   under both executors; a part copied into an exact-size array, as
   before the parts were key runs, cost ~[key_space] more): the answer
   is written from its two parts' runs, with no copy of them, no merged
   array and no frame of its own.  Words are counted on every domain (a
   shard's read runs on a worker domain), less the client's, which it
   counts on its own domain: its decoding is not the server's. *)
let served_range_allocates_no_frame ~executor () =
  let key_space = 131_072 in
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let range = Wire.Range (1, key_space) in
  ignore (Serve.Shards.exec router (inserts key_space));
  ignore (Serve.Shards.exec router range);
  let _, exec_words = words_everywhere (fun () -> Serve.Shards.exec router range) in
  let bound = (key_space / 2) + 8_192 + 3_072 in
  let port = Serve.Server.port server in
  let go = Atomic.make 0 and answered = Atomic.make 0 and intact = Atomic.make 0 in
  let client_words = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let cl = client port in
        Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
        for i = 1 to 2 do
          while Atomic.get go < i do
            Unix.sleepf 0.001
          done;
          let got, words =
            Util.allocated_words (fun () ->
                try
                  send cl.fd range;
                  recv cl
                with Unix.Unix_error _ -> None)
          in
          Atomic.set client_words words;
          (match got with
          | Some (Wire.Keys (_, keys))
            when Array.length keys = key_space && keys.(key_space - 1) = key_space ->
            Atomic.incr intact
          | _ -> ());
          Atomic.incr answered
        done)
  in
  let serve_once i =
    Atomic.set go i;
    while Atomic.get answered < i do
      Unix.sleepf 0.001
    done
  in
  serve_once 1;
  let (), words = words_everywhere (fun () -> serve_once 2) in
  Domain.join reader;
  let served_words = words - Atomic.get client_words in
  Alcotest.(check int) "both answers intact" 2 (Atomic.get intact);
  Alcotest.(check bool)
    (Printf.sprintf "served in %d words (at most %d), exec in %d" served_words bound exec_words)
    true (served_words <= bound)

(* Words [f ()] allocated directly in this domain's major heap: what the
   major heap gained, less what minor collections promoted into it. *)
let direct_major_words f =
  let _, pr0, ma0 = Gc.counters () in
  let r = f () in
  let _, pr1, ma1 = Gc.counters () in
  (r, int_of_float (ma1 -. ma0 -. (pr1 -. pr0)))

(* A served 512-op Batch of Inserts makes no block of its own in the
   major heap of the domain that serves it: its ops are packed in chunks
   of at most 256 words and its answer is a mark byte per op, all young,
   so the major heap gains only what minor collections promote.  (A
   batch decoded as a request array put that array and its [Rbatch]
   answer there directly: over 1,000 words.)
   The first batch grows the connection's decoder buffer, so the second
   is measured; the client runs on a domain of its own. *)
let served_batch_no_major ~executor () =
  let key_space = 4_096 in
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let port = Serve.Server.port server in
  let go = Atomic.make 0 and answered = Atomic.make 0 and intact = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let cl = client port in
        Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
        for b = 1 to 2 do
          while Atomic.get go < b do
            Unix.sleepf 0.001
          done;
          (match
             send cl.fd (Wire.Batch (Array.init 512 (fun i -> Wire.Insert ((8 * i) + b))));
             recv cl
           with
          | Some (Wire.Rbatch rs) when Array.for_all (fun r -> r = Wire.Bool true) rs ->
            Atomic.incr intact
          | _ | (exception Unix.Unix_error _) -> ());
          Atomic.incr answered
        done)
  in
  let serve_once b =
    Atomic.set go b;
    while Atomic.get answered < b do
      Unix.sleepf 0.001
    done
  in
  serve_once 1;
  let (), direct = direct_major_words (fun () -> serve_once 2) in
  Domain.join reader;
  Alcotest.(check int) "both batches answered true at every op" 2 (Atomic.get intact);
  Alcotest.(check bool)
    (Printf.sprintf "%d words allocated directly in the major heap" direct)
    true (direct < 257)

(* Serving 8,192 pipelined 256-key ranges, 16 at a time, promotes less
   than 16,384 words into the major heap.  The loop collects the minor
   heaps at turns that leave no request in flight, when every decoded
   request, cell and answer is dead; a collection while a burst is in
   flight promotes the burst (~5,000 words).  One still comes now and
   then: the end of a major cycle empties the minor heaps first.  The
   client writes frames encoded up front and reads the answers into one
   fixed buffer, counting their bytes only, so it allocates nothing a
   collection could promote.  (Measured on 2 vCPUs, over the 8,064
   measured ranges: without the idle collection 85,000-92,000 words with
   worker domains and ~57,000 inline; with it 276-5,616.) *)
let served_ranges_promote_little ~executor () =
  let key_space = 4_096 and n = 8_192 and burst = 16 and width = 256 in
  with_server ~executor ~provider:`Logical ~coalesce:true ~shards:2 ~key_space
    (fun port ->
      let cl = client port in
      Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
      prefill cl key_space;
      let bursts =
        Array.init (n / burst) (fun b ->
            Bytes.concat Bytes.empty
              (List.init burst (fun j ->
                   let lo = 1 + ((b * burst) + j) * 769 mod (key_space - width) in
                   request_bytes (Wire.Range (lo, lo + width - 1)))))
      in
      let answer = 4 + Wire.response_size (Wire.Keys (0, Array.make width 0)) in
      let serve_bursts first last =
        for b = first to last - 1 do
          write_all cl.fd bursts.(b);
          let want = ref (burst * answer) in
          while !want > 0 do
            let k = Unix.read cl.fd cl.rbuf 0 (min !want (Bytes.length cl.rbuf)) in
            if k = 0 then Alcotest.fail "unexpected EOF from server";
            want := !want - k
          done
        done
      in
      (* the first bursts grow the connection's buffers *)
      serve_bursts 0 8;
      Gc.minor ();
      let p0 = gauge "gc.promoted_words" in
      serve_bursts 8 (n / burst);
      let promoted = gauge "gc.promoted_words" - p0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d ranges promoted %d words" (n - (8 * burst)) promoted)
        true (promoted < 16_384))

(* Pings served one at a time, each answered before the next is sent,
   cost the loop's domain at most [bound] words each: the turn that
   reads, decodes, answers and writes one, and what [select] returns.
   Measured on 2 vCPUs: 58.0 under both executors, once the select
   lists were kept across turns and a Ping answered on the loop's own
   domain stopped waking it (67 inline and 70.5-71.6 with worker
   domains before); the bound allows a rare turn that serves no ping.
   The client runs on a domain of its own and the test's thread only
   waits, so this domain's words are the loop's.  The first 2,000 pings
   warm the connection up; the next 2,000 are measured. *)
let loop_words_per_ping ~bound ~executor () =
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space:1_024 ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let port = Serve.Server.port server and n = 2_000 in
  let go = Atomic.make 0 and answered = Atomic.make 0 and pongs = Atomic.make 0 in
  let ping = request_bytes Wire.Ping in
  let pong = response_bytes Wire.Pong in
  let reader =
    Domain.spawn (fun () ->
        let cl = client port in
        Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
        for round = 1 to 2 do
          while Atomic.get go < round do
            Unix.sleepf 0.001
          done;
          (try
             for _ = 1 to n do
               write_all cl.fd ping;
               let got = ref 0 in
               while !got < Bytes.length pong do
                 let k = Unix.read cl.fd cl.rbuf !got (Bytes.length pong - !got) in
                 if k = 0 then raise Exit;
                 got := !got + k
               done;
               if Bytes.sub cl.rbuf 0 (Bytes.length pong) = pong then Atomic.incr pongs
             done
           with Exit | Unix.Unix_error _ -> ());
          Atomic.incr answered
        done)
  in
  let serve_round i =
    Atomic.set go i;
    while Atomic.get answered < i do
      Unix.sleepf 0.001
    done
  in
  serve_round 1;
  let w0 = Gc.minor_words () in
  serve_round 2;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Domain.join reader;
  Alcotest.(check int) "every ping answered with a pong" (2 * n) (Atomic.get pongs);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words a ping on the loop's domain, at most %.1f" words bound)
    true (words <= bound)

(* The [serve.in_flight] gauge counts queued answers, and returns to 0
   whichever way they leave: written after a malformed frame, dropped
   with a client that reset mid-answer, flushed by [stop].  A count that
   leaked would turn the loop's idle collection off for good. *)
let in_flight_returns_to_zero ~executor () =
  let key_space = 50_000 in
  let router =
    Serve.Shards.create ~executor ~structure:"bst-vcas" ~provider:`Logical
      ~shards:2 ~key_space ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  let port = Serve.Server.port server in
  let stopped = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped then Serve.Server.stop server)
  @@ fun () ->
  let in_flight () = gauge "serve.in_flight" in
  let settled what = await what (fun () -> in_flight () = 0) in
  let requests () = Option.get (Hwts_obs.Registry.counter_value "serve.requests") in
  (* 20 full ranges (400 KB answers) from a client with a 4 KiB receive
     buffer, every one read by the server (a socket closed with requests
     unread would reset) and some answers still queued: more than the
     socket buffers hold *)
  let pipeline_ranges cl =
    let sent = requests () in
    for _ = 1 to 20 do
      send cl.fd (Wire.Range (1, key_space))
    done;
    await "every range read" (fun () -> requests () - sent = 20);
    await "answers in flight" (fun () -> in_flight () > 0)
  in
  let cl = client port in
  send cl.fd (Wire.Insert 5);
  write_all cl.fd (Bytes.of_string "\x00\x00\x00\x01\x7f");
  expect_bool "pre-garbage insert" true (recv_exn cl);
  ignore (recv_exn cl);
  Alcotest.(check bool) "closed after the malformed frame" true (recv cl = None);
  Unix.close cl.fd;
  settled "in flight back to 0 after a malformed frame";
  let cl = client port in
  prefill cl key_space;
  Unix.close cl.fd;
  let cl = client ~rcvbuf:4096 port in
  pipeline_ranges cl;
  ignore (Unix.read cl.fd cl.rbuf 0 (Bytes.length cl.rbuf));
  Unix.setsockopt_optint cl.fd Unix.SO_LINGER (Some 0);
  Unix.close cl.fd;
  settled "in flight back to 0 after a reset mid-answer";
  let cl = client ~rcvbuf:4096 port in
  pipeline_ranges cl;
  let stopper =
    Thread.create
      (fun () ->
        Serve.Server.stop server;
        stopped := true)
      ()
  in
  let full = ref 0 in
  while
    match recv cl with
    | Some (Wire.Keys (_, keys)) -> Array.length keys = key_space
    | _ -> false
  do
    incr full
  done;
  Thread.join stopper;
  Unix.close cl.fd;
  Alcotest.(check int) "every answer flushed by stop" 20 !full;
  Alcotest.(check int) "in flight after stop" 0 (in_flight ())

(* One Ping on a fresh connection: its answer, or [None] if the
   connection fails or nothing arrives within [timeout] seconds. *)
let ping ~timeout port =
  try
    let cl = client port in
    Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
    Unix.setsockopt_float cl.fd Unix.SO_RCVTIMEO timeout;
    send cl.fd Wire.Ping;
    recv cl
  with Unix.Unix_error _ -> None

(* A client that pipelines large ranges and never reads fills its
   socket buffers; meanwhile another client must still be answered. *)
let stalled_reader_blocks_no_one ~executor () =
  let key_space = 50_000 in
  with_server ~executor ~provider:`Logical ~coalesce:true ~shards:2 ~key_space
    (fun port ->
      let stalled = client port in
      Fun.protect ~finally:(fun () -> Unix.close stalled.fd) @@ fun () ->
      prefill stalled key_space;
      for _ = 1 to 40 do
        send stalled.fd (Wire.Range (1, key_space))
      done;
      Unix.sleepf 0.3;
      match ping ~timeout:2. port with
      | Some Wire.Pong -> ()
      | _ -> Alcotest.fail "no Pong within 2 s beside a stalled reader")

(* [select] cannot watch a descriptor at or above FD_SETSIZE (1024).
   With 1030 more descriptors held in this process, the server's next
   accepted connection lands above that: it may be answered or closed,
   and once the descriptors are released a new connection must be
   answered. *)
let high_descriptor () =
  with_server ~provider:`Logical ~coalesce:true (fun port ->
      let held = ref [] in
      (match
         Fun.protect ~finally:(fun () -> List.iter Unix.close !held)
         @@ fun () ->
         match
           for _ = 1 to 1030 do
             held := Unix.dup Unix.stdin :: !held
           done
         with
         | () -> ping ~timeout:5. port
         | exception Unix.Unix_error (Unix.EMFILE, _, _) -> Alcotest.skip ()
       with
      | Some Wire.Pong | None -> ()
      | Some r -> Alcotest.failf "high descriptor: got %s" (show r));
      match ping ~timeout:5. port with
      | Some Wire.Pong -> ()
      | _ -> Alcotest.fail "no Pong on a new connection after a high descriptor")

(* ---------- the deployed binary: SIGINT drains, flushes, exits 0 ----- *)

(* under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_serve.exe` it is the project root *)
let serve_exe =
  List.find_opt Sys.file_exists
    [ "../bin/hwts_serve.exe"; "_build/default/bin/hwts_serve.exe" ]

let contains ~needle haystack =
  let n = String.length needle and l = String.length haystack in
  let rec scan i = i + n <= l && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let await_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "server exited %d" c
  | _ -> Alcotest.fail "server killed by signal"

let subprocess_sigint () =
  match serve_exe with
  | None -> Alcotest.skip ()
  | Some serve_exe ->
    let metrics = Filename.temp_file "hwts_serve_metrics" ".json" in
    let out_r, out_w = Unix.pipe () in
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    (* --no-coalesce is the A arm switch: run the binary with coalescing
       off and require it to honor it *)
    let pid =
      Unix.create_process serve_exe
        [|
          serve_exe;
          "--port";
          "0";
          "--shards";
          "2";
          "--key-space";
          "256";
          "--max-seconds";
          "30";
          "--metrics-out";
          metrics;
          "--no-coalesce";
        |]
        dev_null out_w Unix.stderr
    in
    Unix.close out_w;
    Unix.close dev_null;
    let banner_ic = Unix.in_channel_of_descr out_r in
    let line1 = input_line banner_ic in
    Alcotest.(check bool)
      "banner reports coalesce off" true
      (contains ~needle:"coalesce=false" line1);
    let port =
      Scanf.sscanf line1 "hwts-serve: listening on %[^:]:%d" (fun _ p -> p)
    in
    (* drive mixed ops end to end *)
    let cl = client port in
    for i = 1 to 50 do
      send cl.fd (Wire.Insert i)
    done;
    for _ = 1 to 50 do
      ignore (recv_exn cl)
    done;
    send cl.fd (Wire.Range (1, 256));
    (match recv_exn cl with
    | Wire.Keys (_, keys) ->
      Alcotest.(check int) "range over inserted keys" 50 (Array.length keys)
    | _ -> Alcotest.fail "expected Keys");
    Unix.close cl.fd;
    (* graceful shutdown *)
    Unix.kill pid Sys.sigint;
    await_exit pid;
    (* metrics flushed on the way out *)
    let contents =
      let mic = open_in metrics in
      let n = in_channel_length mic in
      let s = really_input_string mic n in
      close_in mic;
      s
    in
    close_in banner_ic;
    Sys.remove metrics;
    List.iter
      (fun name ->
        Alcotest.(check bool)
          ("metrics mention " ^ name) true
          (contains ~needle:name contents))
      [ "serve.requests"; "gc.minor_collections"; "gc.major_collections";
        "gc.heap_words"; "gc.top_heap_words"; "gc.major_words"; "gc.promoted_words" ]

(* A server limited to 64 descriptors runs out of them under 80
   connections and fails [accept] with EMFILE.  Once those connections
   close, a new one must be answered. *)
let accept_survives_fd_exhaustion () =
  match serve_exe with
  | None -> Alcotest.skip ()
  | Some serve_exe ->
    let out_r, out_w = Unix.pipe () in
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let pid =
      Unix.create_process "/bin/sh"
        [|
          "sh"; "-c"; "ulimit -n 64 && exec \"$0\" \"$@\""; serve_exe;
          "--port"; "0"; "--shards"; "2"; "--key-space"; "256";
          "--max-seconds"; "60";
        |]
        dev_null out_w Unix.stderr
    in
    Unix.close out_w;
    Unix.close dev_null;
    let ic = Unix.in_channel_of_descr out_r in
    let port =
      Scanf.sscanf (input_line ic) "hwts-serve: listening on %[^:]:%d"
        (fun _ p -> p)
    in
    let flood = List.init 80 (fun _ -> connect port) in
    Unix.sleepf 0.3;
    List.iter Unix.close flood;
    let cl = client port in
    Unix.setsockopt_float cl.fd Unix.SO_RCVTIMEO 5.;
    send cl.fd Wire.Ping;
    let answer = try recv cl with Unix.Unix_error _ -> None in
    Unix.close cl.fd;
    Unix.kill pid Sys.sigint;
    await_exit pid;
    close_in ic;
    match answer with
    | Some Wire.Pong -> ()
    | _ -> Alcotest.fail "no Pong on a new connection after EMFILE"

(* ---------- the inline executor ---------- *)

let inline_router ~key_space =
  Serve.Shards.create ~executor:`Inline ~structure:"bst-vcas"
    ~provider:`Logical ~shards:2 ~key_space ~coalesce:true ()

(* Every submit of a round only enqueues; the round's end drains each
   shard once, so its 20 cross-shard ranges take one snapshot per
   shard.  Over the socket, 16 ranges sent in one write reach the loop
   in one read, and so in one round: fewer snapshots than ranges,
   where a drain per submit would take one per part. *)
let round_shares_snapshots () =
  let router = inline_router ~key_space:100 in
  Fun.protect ~finally:(fun () -> Serve.Shards.stop router) (fun () ->
      ignore
        (Serve.Shards.exec router
           (Wire.Batch (Array.init 100 (fun i -> Wire.Insert (i + 1)))));
      Hwts_obs.Counter.reset c_snapshots;
      Hwts_obs.Counter.reset c_rq_ops;
      let answers = Array.make 20 None in
      Serve.Shards.round router (fun () ->
          Array.iteri
            (fun i _ ->
              Serve.Shards.submit router
                (Wire.Range (i + 1, i + 60))
                (fun r -> answers.(i) <- Some r))
            answers;
          Alcotest.(check bool)
            "nothing answered inside the round" true
            (Array.for_all Option.is_none answers));
      Array.iteri
        (fun i r ->
          match r with
          | Some r ->
            expect_keys "range" (Array.init 60 (fun j -> i + 1 + j)) r
          | None -> Alcotest.fail "a range of the round was not answered")
        answers;
      Alcotest.(check int) "range parts" 40 (Hwts_obs.Counter.sum c_rq_ops);
      Alcotest.(check int) "one snapshot per shard" 2
        (Hwts_obs.Counter.sum c_snapshots));
  let key_space = 100 and n = 16 in
  with_server ~executor:`Inline ~provider:`Logical ~coalesce:true ~shards:2
    ~key_space (fun port ->
      let cl = client port in
      prefill cl key_space;
      Hwts_obs.Counter.reset c_snapshots;
      let b = Buffer.create 256 in
      for _ = 1 to n do
        Wire.encode_request b (Wire.Range (1, key_space))
      done;
      write_all cl.fd (Buffer.to_bytes b);
      for _ = 1 to n do
        expect_keys "served range" (Array.init key_space succ) (recv_exn cl)
      done;
      Unix.close cl.fd;
      let snapshots = Hwts_obs.Counter.sum c_snapshots in
      Alcotest.(check bool)
        (Printf.sprintf "%d snapshots for %d ranges" snapshots n)
        true (snapshots < n))

(* A completion's submit only enqueues, and the drain in progress runs
   it: both answers are in by the time the outer submit returns. *)
let completion_submits () =
  let router = inline_router ~key_space:100 in
  Fun.protect ~finally:(fun () -> Serve.Shards.stop router) @@ fun () ->
  let inner = ref None in
  Serve.Shards.submit router (Wire.Insert 70) (fun _ ->
      Serve.Shards.submit router (Wire.Get 70) (fun r -> inner := Some r));
  match !inner with
  | Some r -> expect_bool "the completion's get" true r
  | None -> Alcotest.fail "the completion's submit was not drained"

(* The loop's drain parks at its pause point, holding the executor; an
   [exec] from a second systhread must wait for it, not run its own
   drain beside it on the same domain. *)
let exec_waits_for_the_loop () =
  let router = inline_router ~key_space:100 in
  let server = Serve.Server.start ~port:0 router in
  Fun.protect ~finally:(fun () ->
      Sync.Pause.disable ();
      Sync.Pause.unpark ();
      Serve.Server.stop server)
  @@ fun () ->
  let cl = client (Serve.Server.port server) in
  Sync.Pause.park_at 1;
  send cl.fd (Wire.Insert 5);
  await "the loop's drain to park" Sync.Pause.parked;
  let answer = Atomic.make None in
  let second =
    Thread.create
      (fun () ->
        Atomic.set answer (Some (Serve.Shards.exec router (Wire.Insert 60))))
      ()
  in
  Unix.sleepf 0.2;
  let early = Atomic.get answer in
  Sync.Pause.unpark ();
  Thread.join second;
  Alcotest.(check bool) "the second thread waited" true (early = None);
  (match Atomic.get answer with
  | Some r -> expect_bool "the second thread's insert" true r
  | None -> Alcotest.fail "no answer for the second thread");
  expect_bool "the client's insert" true (recv_exn cl);
  Unix.close cl.fd

(* The binary picks its executor from its affinity mask: started on one
   CPU it reports 0 worker domains, in
   its banner and in --metrics-out, and serves; unpinned on a machine
   with more CPUs, one per shard. *)
let executor_reported ~pinned () =
  match serve_exe with
  | None -> Alcotest.skip ()
  | Some serve_exe ->
    if (not pinned) && Domain.recommended_domain_count () = 1 then
      Alcotest.skip ();
    let shards = 2 in
    let want = if pinned then 0 else shards in
    let metrics = Filename.temp_file "hwts_serve_metrics" ".json" in
    let out_r, out_w = Unix.pipe () in
    let argv =
      [|
        serve_exe; "--port"; "0"; "--shards"; string_of_int shards;
        "--key-space"; "256"; "--max-seconds"; "30"; "--metrics-out"; metrics;
      |]
    in
    (* a child inherits the affinity of the thread that spawns it: pin
       a throwaway systhread, not the test's own, to any CPU its mask
       allows *)
    let rec pin cpu = cpu >= 0 && (Tsc.pin_to_cpu cpu || pin (cpu - 1)) in
    let pid = ref 0 and pin_failed = ref false in
    Thread.join
      (Thread.create
         (fun () ->
           if pinned && not (pin (Tsc.num_cpus () - 1)) then
             pin_failed := true
           else
             pid :=
               Unix.create_process serve_exe argv Unix.stdin out_w Unix.stderr)
         ());
    if !pin_failed then Alcotest.fail "could not pin to one CPU";
    let pid = !pid in
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    let banner = input_line ic in
    let port =
      Scanf.sscanf banner "hwts-serve: listening on %[^:]:%d" (fun _ p -> p)
    in
    let cl = client port in
    send cl.fd (Wire.Insert 7);
    expect_bool "insert" true (recv_exn cl);
    send cl.fd (Wire.Range (1, 256));
    expect_keys "range" [| 7 |] (recv_exn cl);
    Unix.close cl.fd;
    Unix.kill pid Sys.sigint;
    await_exit pid;
    close_in ic;
    let contents = In_channel.with_open_bin metrics In_channel.input_all in
    Sys.remove metrics;
    let on = Printf.sprintf "%d shards on %d worker domains" shards want in
    Alcotest.(check bool) (Printf.sprintf "banner says %S" on) true
      (contains ~needle:on banner);
    let gauge =
      Printf.sprintf
        "\"name\":\"serve.worker_domains\",\"type\":\"gauge\",\"value\":%d.0" want
    in
    Alcotest.(check bool) ("metrics carry " ^ gauge) true
      (contains ~needle:gauge contents)

(* ---------- in-process answers are the served bytes ---------- *)

(* [Shards.exec] and a client of a server on the same router get the
   same answer to the same request, labels included: skiplist-bundle's
   reads do not advance the logical clock, so with no write in between
   every read labels alike.  The forms: a cross-shard Range (Parts), a
   MultiRange and a MultiGet (Whole), and a mixed Batch (Marks with
   others).  With worker domains, a Batch is also sent while shard 0 is
   held, and again once a stop has reached every shard, so its points
   and its Range are refused; the held one is answered on release.
   Every read here is of keys the batch does not write. *)
let in_process_answers_are_served_bytes ~executor () =
  let router =
    Serve.Shards.create ~executor ~structure:"skiplist-bundle" ~provider:`Logical
      ~shards:2 ~key_space:100 ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 router in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let cl = client (Serve.Server.port server) in
  Fun.protect ~finally:(fun () -> Unix.close cl.fd) @@ fun () ->
  let same what a b =
    if a <> b then Alcotest.failf "%s: in-process %s, served %s" what (show a) (show b)
  in
  let served req =
    send cl.fd req;
    recv_exn cl
  in
  List.iter (fun k -> ignore (Serve.Shards.exec router (Wire.Insert k))) [ 10; 20; 60; 70 ];
  let mixed =
    Wire.Batch
      [| Wire.Get 10; Wire.Range (5, 80); Wire.Insert 0; Wire.MultiGet [| 20; 70 |];
         Wire.Get 60; Wire.Get 101; Wire.Ping |]
  in
  List.iter
    (fun (what, req) -> same what (Serve.Shards.exec router req) (served req))
    [
      ("cross-shard range", Wire.Range (5, 80));
      ("multirange", Wire.MultiRange [| (5, 80); (15, 55); (90, 95) |]);
      ("multiget", Wire.MultiGet [| 10; 11; 60; 200 |]);
      ("mixed batch", mixed);
    ];
  if executor = `Domains then begin
    (* the batch submitted here, then sent; the server has routed all
       of it once its last member, the Ping, has been answered *)
    let submitted req =
      let answer = Atomic.make None in
      Serve.Shards.submit router req (fun r -> Atomic.set answer (Some r));
      let pings = hist_count "serve.latency.ping" in
      send cl.fd req;
      await "the server to route the batch" (fun () ->
          hist_count "serve.latency.ping" > pings);
      answer
    in
    let release = hold_shard router 1 in
    Fun.protect ~finally:release @@ fun () ->
    let held = submitted mixed in
    let stopper = Domain.spawn (fun () -> Serve.Shards.stop router) in
    let refused = Atomic.make false in
    await "shard 1 to refuse" (fun () ->
        Serve.Shards.submit router (Wire.Get 60) (function
          | Wire.Err _ -> Atomic.set refused true
          | _ -> ());
        Atomic.get refused);
    let after_stop = submitted mixed in
    release ();
    Domain.join stopper;
    List.iter
      (fun (what, answer) ->
        await what (fun () -> Atomic.get answer <> None);
        same what (Option.get (Atomic.get answer)) (recv_exn cl))
      [ ("batch held on shard 0", held); ("batch after stop", after_stop) ];
    match Atomic.get after_stop with
    | Some (Wire.Rbatch rs) ->
      stopping "a refused point" rs.(0);
      stopping "a refused range" rs.(1)
    | _ -> Alcotest.fail "expected Rbatch"
  end

(* ---------- hwts-cli serve-load ---------- *)

let cli_exe =
  List.find_opt Sys.file_exists
    [ "../bin/hwts_cli.exe"; "_build/default/bin/hwts_cli.exe" ]

(* [hwts-cli serve-load] as a subprocess against a server in this
   process: 2 connections of 300 requests each, 8 in flight, MultiGets
   of 4 keys over Zipf keys, all answered without an error. *)
let serve_load_subprocess ~executor () =
  match cli_exe with
  | None -> Alcotest.skip ()
  | Some exe ->
    with_server ~executor ~provider:`Logical ~coalesce:true ~shards:2 ~key_space:16_384
      (fun port ->
        let out_r, out_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process exe
            [|
              exe; "serve-load"; "--port"; string_of_int port; "--connections"; "2";
              "--pipeline"; "8"; "--ops"; "300"; "--mix"; "20-10-70"; "--multiget"; "4";
              "--zipf"; "0.9";
            |]
            Unix.stdin out_w Unix.stderr
        in
        Unix.close out_w;
        let ic = Unix.in_channel_of_descr out_r in
        let out = In_channel.input_all ic in
        close_in ic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED c -> Alcotest.failf "serve-load exited %d: %s" c out
        | _ -> Alcotest.fail "serve-load killed by a signal");
        List.iter
          (fun needle ->
            Alcotest.(check bool) (Printf.sprintf "%S in %S" needle out) true
              (contains ~needle out))
          [ "600 responses"; ", 0 errors" ])

(* Each server-level case once with worker domains, under its own name,
   and once inline, as "inline: <name>". *)
let both name f =
  [
    Alcotest.test_case name `Quick (f ~executor:`Domains);
    Alcotest.test_case ("inline: " ^ name) `Quick (f ~executor:`Inline);
  ]

let () =
  Alcotest.run "serve"
    [
      ( "oracle",
        List.concat_map
          (fun (name, provider, coalesce) ->
            both name (fun ~executor -> oracle ~executor ~provider ~coalesce))
          [
            ("logical, coalesced", `Logical, true);
            ("logical, per-RQ", `Logical, false);
            ("rdtscp-strict, coalesced", `Hardware_strict, true);
            ("rdtscp-strict, per-RQ", `Hardware_strict, false);
          ] );
      ( "protocol",
        Alcotest.test_case "decoding forces no collection" `Quick
          decode_forces_no_collection
        :: both "error frames" error_frames
        @ both "malformed closes after Err" malformed_frame_closes );
      ( "cross-shard",
        [
          Alcotest.test_case "range: sorted union, maximal label" `Quick
            cross_shard_range;
        ]
        @ both "range: long answers, shared snapshot" (fun ~executor ->
              long_range_answers ~executor ~coalesce:true)
        @ both "range: long answers, one snapshot a part" (fun ~executor ->
              long_range_answers ~executor ~coalesce:false)
        @ [
            Alcotest.test_case "range: refused part fails the request" `Quick
              (refused_part_fails_request (Wire.Range (1, 100)));
            Alcotest.test_case "multiget: refused part fails the request" `Quick
              (refused_part_fails_request (Wire.MultiGet [| 10; 60 |]));
            Alcotest.test_case "batch: refused part fails every point" `Quick
              (refused_part_fails_request ~expect:all_stopping
                 (Wire.Batch [| Wire.Insert 10; Wire.Get 60 |]));
          ]
        @ both "batch: answers match one at a time" (batch_matches_one_at_a_time ~tcp:false ~shards:2)
        @ both "batch over TCP: answers match one at a time"
            (batch_matches_one_at_a_time ~tcp:true ~shards:2)
        @ both "batch: a last shard past the key space"
            (batch_matches_one_at_a_time ~tcp:false ~shards:3)
        @ both "batch over TCP: a last shard past the key space"
            (batch_matches_one_at_a_time ~tcp:true ~shards:3)
        @ both "batch: after stop, Err at every point" batch_after_stop
        @ both "in-process answers are the served bytes" in_process_answers_are_served_bytes
        );
      ( "inline",
        [
          Alcotest.test_case
            "inline: a round's ranges share one snapshot per shard" `Quick
            round_shares_snapshots;
          Alcotest.test_case "inline: a completion's submit joins the drain"
            `Quick completion_submits;
          Alcotest.test_case
            "inline: exec from a second systhread while the loop serves" `Quick
            exec_waits_for_the_loop;
          Alcotest.test_case "executor: one CPU, 0 worker domains" `Quick
            (executor_reported ~pinned:true);
          Alcotest.test_case "executor: unpinned, a worker domain per shard"
            `Quick
            (executor_reported ~pinned:false);
        ] );
      ( "lifecycle",
        both "oversized answer: Err, then keep serving" oversized_answer
        @ [
            Alcotest.test_case "client reset mid-answer" `Quick
              client_reset_mid_answer;
          ]
        @ both "stop drains in-flight" stop_drains_inflight
        @ both "answers streamed through partial writes" streamed_answers
        @ both "a served range allocates no frame" served_range_allocates_no_frame
        @ both "a served point batch makes no direct major allocation"
            served_batch_no_major
        @ both "served ranges promote no answer" served_ranges_promote_little
        @ both "in flight returns to 0" in_flight_returns_to_zero
        @ [
            Alcotest.test_case "words a ping on the loop's domain" `Quick
              (loop_words_per_ping ~bound:59. ~executor:`Domains);
            Alcotest.test_case "inline: words a ping on the loop's domain" `Quick
              (loop_words_per_ping ~bound:59. ~executor:`Inline);
          ]
        @ both "stop cuts a client that stopped reading"
            stop_cuts_client_not_reading
        @ [
            Alcotest.test_case "accept survives running out of descriptors"
              `Quick accept_survives_fd_exhaustion;
            Alcotest.test_case "SIGINT: drain, flush, exit 0" `Quick
              subprocess_sigint;
          ]
        @ both "hwts-cli serve-load: 600 answers, 0 errors" serve_load_subprocess
        @ both "a stalled reader blocks no one" stalled_reader_blocks_no_one
        @ [
            Alcotest.test_case "a descriptor above FD_SETSIZE" `Quick
              high_descriptor;
          ] );
    ]
