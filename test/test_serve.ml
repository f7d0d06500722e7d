(* Loopback end-to-end tests for the serving stack: spawn the sharded
   server in-process, drive it over a real TCP socket with the wire
   codec, and verify responses against a sequential oracle.

   Oracle exactness relies on phasing: all writes are sent and their
   responses read before any range/get is sent, so every read observes
   exactly the model set (per-shard FIFO makes the write phase itself
   sequentially exact per key).  The matrix covers both coalesce arms
   over two providers (logical and adaptive), per the serving
   experiment's A/B switch.

   A subprocess test exercises the deployed binary: parse the listening
   port, drive mixed ops, SIGINT, and require exit 0 with the metrics
   registry flushed to --metrics-out. *)

module Wire = Serve.Wire
module ISet = Set.Make (Int)

let c_snapshots = Hwts_obs.Registry.counter "serve.rq.snapshots"
let c_rq_ops = Hwts_obs.Registry.counter "serve.rq.ops"
let c_mget_frames = Hwts_obs.Registry.counter "serve.mget.frames"

(* ---------- a tiny blocking client ---------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
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

let send fd req =
  let b = Buffer.create 64 in
  Wire.encode_request b req;
  write_all fd (Buffer.to_bytes b)

type client = { fd : Unix.file_descr; dec : Wire.decoder; rbuf : Bytes.t }

let client port = { fd = connect port; dec = Wire.decoder (); rbuf = Bytes.create 65536 }

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

let with_server ~provider ~coalesce ?(structure = "bst-vcas") ?(shards = 3)
    ?(key_space = 512) f =
  let router =
    Serve.Shards.create ~structure ~provider ~shards ~key_space ~coalesce ()
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

let oracle_run ~provider ~coalesce () =
  let key_space = 512 in
  with_server ~provider ~coalesce ~shards:3 ~key_space (fun port ->
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
let oracle ~provider ~coalesce () =
  Hwts_obs.Counter.reset c_snapshots;
  Hwts_obs.Counter.reset c_rq_ops;
  Hwts_obs.Counter.reset c_mget_frames;
  oracle_run ~provider ~coalesce ();
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

let error_frames () =
  with_server ~provider:`Logical ~coalesce:true ~key_space:128 (fun port ->
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

let malformed_frame_closes () =
  with_server ~provider:`Logical ~coalesce:true ~key_space:128 (fun port ->
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

let prefill cl n =
  send cl.fd (Wire.Batch (Array.init n (fun i -> Wire.Insert (i + 1))));
  match recv_exn cl with
  | Wire.Rbatch rs ->
    Alcotest.(check int) "prefill answered" n (Array.length rs)
  | _ -> Alcotest.fail "prefill: expected Rbatch"

(* 101 full ranges over 21,000 keys need ~17 MB, above max_payload: the
   answer is an Err in its place, and the connection keeps serving *)
let oversized_answer () =
  let key_space = 21_000 in
  with_server ~provider:`Logical ~coalesce:true ~shards:2 ~key_space
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

let with_router ~key_space f =
  let router =
    Serve.Shards.create ~structure:"bst-vcas" ~provider:`Logical ~shards:2
      ~key_space ~coalesce:true ()
  in
  Fun.protect ~finally:(fun () -> Serve.Shards.stop router) (fun () -> f router)

(* Holds the worker of the shard owning [key] inside a Get's completion
   until the returned release is called. *)
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
let long_range_answers ~coalesce () =
  let router =
    Serve.Shards.create ~structure:"bst-vcas" ~provider:`Logical ~shards:2
      ~key_space:1_000 ~coalesce ()
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
   its class's latency histogram. *)
let batch_matches_one_at_a_time () =
  let open Wire in
  let reqs =
    [|
      Insert 10; Insert 60; Get 10; Get 61; Insert 0; Get 101; Range (25, 58);
      Delete 10; Insert 61; Ping; Get 60; MultiGet [| 30; 55; 57; 200 |];
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
  with_router ~key_space:100 @@ fun batched ->
  with_router ~key_space:100 @@ fun twin ->
  List.iter
    (fun router ->
      ignore (Serve.Shards.exec router (Batch [| Insert 30; Insert 55 |])))
    [ batched; twin ];
  let ops0 = Option.get (Hwts_obs.Registry.counter_value "serve.point.ops") in
  let samples0 = List.map (fun (h, _) -> hist_count h) classes in
  let got = Serve.Shards.exec batched (Batch reqs) in
  let ops1 = Option.get (Hwts_obs.Registry.counter_value "serve.point.ops") in
  let samples1 = List.map (fun (h, _) -> hist_count h) classes in
  let want = Array.map (Serve.Shards.exec twin) reqs in
  (match got with
  | Rbatch rs ->
    Alcotest.(check (array string))
      "answers" (Array.map show want) (Array.map show rs)
  | r -> Alcotest.failf "expected Rbatch, got %s" (show r));
  Alcotest.(check int) "serve.point.ops" (count in_range) (ops1 - ops0);
  List.iteri
    (fun i (h, f) ->
      Alcotest.(check int) h (count f) (List.nth samples1 i - List.nth samples0 i))
    classes

let rejected = Wire.Err "server stopping"

(* After [stop], every shard refuses: each in-range point position of a
   batch, and its reads, answer Err; a Ping still answers Pong. *)
let batch_after_stop () =
  let router =
    Serve.Shards.create ~structure:"bst-vcas" ~provider:`Logical ~shards:2
      ~key_space:100 ~coalesce:true ()
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
   domain.  The decoder's arrays of boxed values must not. *)
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
  let qd = fed (List.map request_frame reqs)
  and rd = fed (List.map response_frame resps) in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let got_reqs = List.map (fun _ -> next_request qd) reqs in
  let got_resps = List.map (fun _ -> next_response rd) resps in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections while decoding" before after;
  Alcotest.(check bool) "requests round-trip" true
    (got_reqs = List.map Option.some reqs);
  Alcotest.(check bool) "responses round-trip" true
    (got_resps = List.map Option.some resps)

(* ---------- stop drains in-flight work ---------- *)

let stop_drains_inflight () =
  let router =
    Serve.Shards.create ~structure:"bst-vcas" ~provider:`Logical ~shards:2
      ~key_space:256 ~coalesce:true ()
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

let subprocess_sigint () =
  match serve_exe with
  | None -> Alcotest.skip ()
  | Some serve_exe ->
    let metrics = Filename.temp_file "hwts_serve_metrics" ".json" in
    let out_r, out_w = Unix.pipe () in
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    (* the env knob is the A arm switch: run the binary with coalescing
       forced off and require it to honor it *)
    let env =
      Array.append (Unix.environment ()) [| "HWTS_SERVE_COALESCE=0" |]
    in
    let pid =
      Unix.create_process_env serve_exe
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
        |]
        env dev_null out_w Unix.stderr
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
    let _, status = Unix.waitpid [] pid in
    (match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "server exited %d" c
    | _ -> Alcotest.fail "server killed by signal");
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
        "gc.heap_words" ]

let () =
  Alcotest.run "serve"
    [
      ( "oracle",
        [
          Alcotest.test_case "logical, coalesced" `Quick
            (oracle ~provider:`Logical ~coalesce:true);
          Alcotest.test_case "logical, per-RQ" `Quick
            (oracle ~provider:`Logical ~coalesce:false);
          Alcotest.test_case "adaptive, coalesced" `Quick
            (oracle ~provider:`Adaptive ~coalesce:true);
          Alcotest.test_case "adaptive, per-RQ" `Quick
            (oracle ~provider:`Adaptive ~coalesce:false);
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decoding forces no collection" `Quick
            decode_forces_no_collection;
          Alcotest.test_case "error frames" `Quick error_frames;
          Alcotest.test_case "malformed closes after Err" `Quick
            malformed_frame_closes;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "range: sorted union, maximal label" `Quick
            cross_shard_range;
          Alcotest.test_case "range: long answers, shared snapshot" `Quick
            (long_range_answers ~coalesce:true);
          Alcotest.test_case "range: long answers, one snapshot a part" `Quick
            (long_range_answers ~coalesce:false);
          Alcotest.test_case "range: refused part fails the request" `Quick
            (refused_part_fails_request (Wire.Range (1, 100)));
          Alcotest.test_case "multiget: refused part fails the request" `Quick
            (refused_part_fails_request (Wire.MultiGet [| 10; 60 |]));
          Alcotest.test_case "batch: refused part fails every point" `Quick
            (refused_part_fails_request ~expect:all_stopping
               (Wire.Batch [| Wire.Insert 10; Wire.Get 60 |]));
          Alcotest.test_case "batch: answers match one at a time" `Quick
            batch_matches_one_at_a_time;
          Alcotest.test_case "batch: after stop, Err at every point" `Quick
            batch_after_stop;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "oversized answer: Err, then keep serving" `Quick
            oversized_answer;
          Alcotest.test_case "client reset mid-answer" `Quick
            client_reset_mid_answer;
          Alcotest.test_case "stop drains in-flight" `Quick stop_drains_inflight;
          Alcotest.test_case "SIGINT: drain, flush, exit 0" `Quick
            subprocess_sigint;
        ] );
    ]
