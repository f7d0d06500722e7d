(* Unit tests for the hwts-serve wire codec: round-trips for every frame
   type, strict rejection of malformed frames (truncation, oversized or
   zero length, unknown opcodes, nested batches, trailing bytes), and
   incremental decoding of pipelined multi-frame buffers fed in
   arbitrary chunks. *)

module Wire = Serve.Wire

(* ---------- testables ---------- *)

let rec request_eq (a : Wire.request) (b : Wire.request) =
  match (a, b) with
  | Wire.Get x, Wire.Get y
  | Wire.Insert x, Wire.Insert y
  | Wire.Delete x, Wire.Delete y ->
    x = y
  | Wire.Range (alo, ahi), Wire.Range (blo, bhi) -> alo = blo && ahi = bhi
  | Wire.Batch xs, Wire.Batch ys ->
    Array.length xs = Array.length ys && Array.for_all2 request_eq xs ys
  | Wire.Ping, Wire.Ping -> true
  | Wire.MultiGet xs, Wire.MultiGet ys -> xs = ys
  | Wire.MultiRange xs, Wire.MultiRange ys -> xs = ys
  | _ -> false

let rec pp_request ppf = function
  | Wire.Get k -> Format.fprintf ppf "Get %d" k
  | Wire.Insert k -> Format.fprintf ppf "Insert %d" k
  | Wire.Delete k -> Format.fprintf ppf "Delete %d" k
  | Wire.Range (lo, hi) -> Format.fprintf ppf "Range (%d, %d)" lo hi
  | Wire.Batch rs ->
    Format.fprintf ppf "Batch [|";
    Array.iter (fun r -> Format.fprintf ppf " %a;" pp_request r) rs;
    Format.fprintf ppf " |]"
  | Wire.Ping -> Format.fprintf ppf "Ping"
  | Wire.MultiGet ks ->
    Format.fprintf ppf "MultiGet [|";
    Array.iter (fun k -> Format.fprintf ppf " %d;" k) ks;
    Format.fprintf ppf " |]"
  | Wire.MultiRange rs ->
    Format.fprintf ppf "MultiRange [|";
    Array.iter (fun (lo, hi) -> Format.fprintf ppf " (%d, %d);" lo hi) rs;
    Format.fprintf ppf " |]"

let request = Alcotest.testable pp_request request_eq

let rec response_eq (a : Wire.response) (b : Wire.response) =
  match (a, b) with
  | Wire.Bool x, Wire.Bool y -> x = y
  | Wire.Keys (la, ka), Wire.Keys (lb, kb) -> la = lb && ka = kb
  | Wire.Rbatch xs, Wire.Rbatch ys ->
    Array.length xs = Array.length ys && Array.for_all2 response_eq xs ys
  | Wire.Pong, Wire.Pong -> true
  | Wire.Err x, Wire.Err y -> x = y
  | Wire.Bools (la, xa), Wire.Bools (lb, xb) -> la = lb && xa = xb
  | Wire.Keyss (la, xa), Wire.Keyss (lb, xb) -> la = lb && xa = xb
  | _ -> false

let rec pp_response ppf = function
  | Wire.Bool b -> Format.fprintf ppf "Bool %b" b
  | Wire.Keys (label, keys) ->
    Format.fprintf ppf "Keys (%d, [|" label;
    Array.iter (fun k -> Format.fprintf ppf " %d;" k) keys;
    Format.fprintf ppf " |])"
  | Wire.Rbatch rs ->
    Format.fprintf ppf "Rbatch [|";
    Array.iter (fun r -> Format.fprintf ppf " %a;" pp_response r) rs;
    Format.fprintf ppf " |]"
  | Wire.Pong -> Format.fprintf ppf "Pong"
  | Wire.Err m -> Format.fprintf ppf "Err %S" m
  | Wire.Bools (label, bs) ->
    Format.fprintf ppf "Bools (%d, [|" label;
    Array.iter (fun b -> Format.fprintf ppf " %b;" b) bs;
    Format.fprintf ppf " |])"
  | Wire.Keyss (label, kss) ->
    Format.fprintf ppf "Keyss (%d, [|" label;
    Array.iter
      (fun ks ->
        Format.fprintf ppf " [|";
        Array.iter (fun k -> Format.fprintf ppf " %d;" k) ks;
        Format.fprintf ppf " |];")
      kss;
    Format.fprintf ppf " |])"

let response = Alcotest.testable pp_response response_eq

(* ---------- helpers ---------- *)

let encode_req r =
  let b = Buffer.create 64 in
  Wire.encode_request b r;
  Buffer.to_bytes b

let encode_resp r =
  let b = Buffer.create 64 in
  Wire.encode_response b r;
  Buffer.to_bytes b

let feed_all d bytes = Wire.feed d bytes 0 (Bytes.length bytes)

let decode_one_req bytes =
  let d = Wire.decoder () in
  feed_all d bytes;
  match Wire.next_request d with
  | Some r ->
    Alcotest.(check int) "no leftover bytes" 0 (Wire.buffered d);
    r
  | None -> Alcotest.fail "expected a complete request frame"

let decode_one_resp bytes =
  let d = Wire.decoder () in
  feed_all d bytes;
  match Wire.next_response d with
  | Some r ->
    Alcotest.(check int) "no leftover bytes" 0 (Wire.buffered d);
    r
  | None -> Alcotest.fail "expected a complete response frame"

let check_malformed name f =
  match f () with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Wire.Malformed")

(* a raw frame from hand-built payload bytes, for malformed cases the
   encoder refuses to produce *)
let raw_frame payload =
  let n = String.length payload in
  let b = Buffer.create (4 + n) in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.to_bytes b

let i64_be v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Bytes.to_string b

(* ---------- round trips ---------- *)

let request_round_trip () =
  let cases =
    [
      Wire.Get 1;
      Wire.Get 0;
      Wire.Get (-17);
      Wire.Get max_int;
      Wire.Get min_int;
      Wire.Insert 42;
      Wire.Delete 99_999_999;
      Wire.Range (3, 900);
      Wire.Range (min_int, max_int);
      Wire.Ping;
      Wire.Batch [||];
      Wire.Batch
        [|
          Wire.Get 5;
          Wire.Insert 6;
          Wire.Delete 7;
          Wire.Range (1, 2);
          Wire.Ping;
        |];
      Wire.MultiGet [||];
      Wire.MultiGet [| 1 |];
      Wire.MultiGet [| 4; 4; min_int; max_int; -9 |];
      Wire.MultiRange [||];
      Wire.MultiRange [| (1, 100) |];
      Wire.MultiRange [| (5, 7); (min_int, max_int); (9, 3) |];
      Wire.Batch [| Wire.MultiGet [| 1; 2 |]; Wire.MultiRange [| (3, 4) |] |];
    ]
  in
  List.iter
    (fun r -> Alcotest.check request "round trip" r (decode_one_req (encode_req r)))
    cases

let response_round_trip () =
  let cases =
    [
      Wire.Bool true;
      Wire.Bool false;
      Wire.Keys (0, [||]);
      Wire.Keys (77, [| 1; 2; 3 |]);
      Wire.Keys (max_int, Array.init 100 (fun i -> i * i));
      Wire.Keys (-3, [| min_int; max_int |]);
      Wire.Pong;
      Wire.Err "";
      Wire.Err "out of range";
      Wire.Rbatch [||];
      Wire.Rbatch
        [| Wire.Bool true; Wire.Keys (9, [| 4; 5 |]); Wire.Pong; Wire.Err "x" |];
      Wire.Bools (0, [||]);
      Wire.Bools (42, [| true; false; false; true |]);
      Wire.Keyss (0, [||]);
      Wire.Keyss (17, [| [| 1; 2 |]; [||]; [| min_int; 0; max_int |] |]);
      Wire.Rbatch
        [| Wire.Bools (3, [| false |]); Wire.Keyss (4, [| [| 5 |] |]) |];
    ]
  in
  List.iter
    (fun r ->
      Alcotest.check response "round trip" r (decode_one_resp (encode_resp r)))
    cases;
  (* every case's frame streamed back to back through one 7-byte buffer,
     as the server streams a connection's answers, decodes to the cases,
     in order *)
  let d = Wire.decoder () and out = Bytes.create 7 and c = Wire.cursor () in
  List.iter
    (fun r ->
      let n = Wire.response_size r in
      let sent = ref 0 in
      while !sent < 4 + n do
        let k = min 7 (4 + n - !sent) in
        Wire.blit_answer c (n, Wire.Whole r) ~src:!sent out 0 k;
        Wire.feed d out 0 k;
        sent := !sent + k
      done)
    cases;
  List.iter
    (fun r ->
      match Wire.next_response d with
      | Some got -> Alcotest.check response "streamed, in order" r got
      | None -> Alcotest.fail "streamed: a frame is missing")
    cases;
  Alcotest.(check int) "streamed: no leftover bytes" 0 (Wire.buffered d)

(* ---------- packed point batches ---------- *)

(* A Batch whose members are all Get/Insert/Delete decodes as packed
   points with the same members, every mark [No]; next_request unpacks
   it to the same Batch.  Any other frame, a batch of 9-byte-aligned
   other members included, decodes as a Request. *)
let packed_decode () =
  let points = Array.init 500 (fun i -> match i mod 3 with 0 -> Wire.Get (i - 7) | 1 -> Wire.Insert (max_int - i) | _ -> Wire.Delete min_int) in
  let incoming r =
    let d = Wire.decoder () in
    feed_all d (encode_req r);
    Option.get (Wire.next_incoming d)
  in
  List.iter
    (fun reqs ->
      (match incoming (Wire.Batch reqs) with
      | Wire.Points p ->
        Alcotest.(check int) "members" (Array.length reqs) (Wire.length p);
        Array.iteri
          (fun i r ->
            Alcotest.check request "member" r (Wire.member p i);
            Alcotest.(check int) "mark" Wire.no (Wire.mark p i))
          reqs
      | Wire.Request _ -> Alcotest.fail "a point batch was not packed");
      Alcotest.check request "next_request unpacks" (Wire.Batch reqs)
        (decode_one_req (encode_req (Wire.Batch reqs))))
    [ points; [| Wire.Get 1 |]; [||] ];
  List.iter
    (fun r ->
      match incoming r with
      | Wire.Request got -> Alcotest.check request "parsed" r got
      | Wire.Points _ -> Alcotest.fail "a batch with other members was packed")
    [
      Wire.Batch [| Wire.Range (1, 2); Wire.Ping |];
      Wire.Batch [| Wire.Get 1; Wire.Ping |];
      Wire.Get 5;
      Wire.Ping;
    ];
  let p = Wire.pack [| Wire.Insert 4; Wire.Range (1, 2); Wire.Delete (-3) |] in
  Alcotest.(check (list int)) "packed keys" [ 4; 0; -3 ] (List.init 3 (Wire.key p));
  Alcotest.(check (list int)) "ops" [ Wire.op_insert; 0; Wire.op_delete ] (List.init 3 (Wire.op p))

(* ---------- exact-size frames ---------- *)

(* Every constructor, empty arrays and an empty Err included: the frame
   is exactly the length prefix plus the size pass's count, the prefix
   says so, and it decodes back to the value. *)
let prefix b = Int32.to_int (Bytes.get_int32_be b 0)

let frames_are_exact_size () =
  List.iter
    (fun r ->
      let f = encode_req r in
      let what = Format.asprintf "%a" pp_request r in
      Alcotest.(check int) (what ^ ": length") (4 + Wire.request_size r)
        (Bytes.length f);
      Alcotest.(check int) (what ^ ": prefix") (Wire.request_size r) (prefix f);
      Alcotest.check request what r (decode_one_req f))
    [
      Wire.Get 7;
      Wire.Insert (-1);
      Wire.Delete max_int;
      Wire.Range (min_int, 3);
      Wire.Ping;
      Wire.Batch [||];
      Wire.Batch
        [|
          Wire.Get 1;
          Wire.Range (2, 3);
          Wire.Ping;
          Wire.MultiGet [||];
          Wire.MultiRange [| (4, 5) |];
        |];
      Wire.MultiGet [||];
      Wire.MultiGet [| 1; 2; 3 |];
      Wire.MultiRange [||];
      Wire.MultiRange [| (1, 2); (3, 4) |];
    ];
  List.iter
    (fun r ->
      let f = encode_resp r in
      let what = Format.asprintf "%a" pp_response r in
      Alcotest.(check int) (what ^ ": length") (4 + Wire.response_size r)
        (Bytes.length f);
      Alcotest.(check int)
        (what ^ ": prefix") (Wire.response_size r) (prefix f);
      Alcotest.check response what r (decode_one_resp f))
    [
      Wire.Bool false;
      Wire.Keys (3, [||]);
      Wire.Keys (-8, [| 1; max_int |]);
      Wire.Pong;
      Wire.Err "";
      Wire.Err "stopping";
      Wire.Bools (1, [||]);
      Wire.Bools (2, [| true; false; true |]);
      Wire.Keyss (4, [||]);
      Wire.Keyss (5, [| [||]; [| 6 |]; [||] |]);
      Wire.Rbatch [||];
      Wire.Rbatch
        [|
          Wire.Bool true;
          Wire.Keys (9, [| 4; 5 |]);
          Wire.Keys (9, [||]);
          Wire.Pong;
          Wire.Err "";
          Wire.Bools (3, [| false |]);
          Wire.Keyss (4, [| [| 5 |]; [||] |]);
        |];
    ]

let large_keys_round_trip () =
  let keys = Array.init 262_144 (fun i -> (i * 7) - 1000) in
  let r = Wire.Keys (123_456, keys) in
  let f = encode_resp r in
  Alcotest.(check int) "length" (4 + 13 + (8 * 262_144)) (Bytes.length f);
  Alcotest.check response "round trip" r (decode_one_resp f)

let max_payload_boundary () =
  (* an Err's body is its opcode, its message's length and the message *)
  let at_max = Wire.Err (String.make (Wire.max_payload - 5) 'x') in
  let f = encode_resp at_max in
  Alcotest.(check int) "a max_payload body encodes" (4 + Wire.max_payload)
    (Bytes.length f);
  Alcotest.check response "and decodes" at_max (decode_one_resp f);
  let over = Wire.Err (String.make (Wire.max_payload - 4) 'x') in
  match encode_resp over with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoder accepted a body one byte over max_payload"

(* ---------- windowed frames ---------- *)

(* Every response shape, each frame written in consecutive windows of
   random sizes, 1 byte up to a 32 KiB buffer, at random places in that
   buffer: the windows, concatenated, are the frame byte for byte.
   Small frames are also written one byte at a time. *)
let windowed_frames () =
  let rng = Random.State.make [| 0x5eed |] in
  let buf_size = 32768 in
  let dst = Bytes.create buf_size in
  let windowed r ~max_window =
    let n = Wire.response_size r in
    let got = Buffer.create (4 + n) in
    let sent = ref 0 in
    while !sent < 4 + n do
      let k = min (1 + Random.State.int rng max_window) (4 + n - !sent) in
      let pos = Random.State.int rng (buf_size - k + 1) in
      Wire.blit_answer (Wire.cursor ()) (n, Wire.Whole r) ~src:!sent dst pos k;
      Buffer.add_subbytes got dst pos k;
      sent := !sent + k
    done;
    Buffer.to_bytes got
  in
  let keys n = Array.init n (fun i -> (i * 7919) - 40_000) in
  List.iter
    (fun (what, r) ->
      let want = encode_resp r in
      List.iter
        (fun max_window ->
          if max_window > 1 || Bytes.length want <= 65536 then
            Alcotest.(check bytes)
              (Printf.sprintf "%s, windows of 1..%d bytes" what max_window)
              want (windowed r ~max_window))
        [ 1; 13; buf_size ])
    [
      ("Keys, 0 keys", Wire.Keys (5, [||]));
      ("Keys, 1 key", Wire.Keys (-1, [| min_int |]));
      ("Keys, 262,144 keys", Wire.Keys (max_int, keys 262_144));
      ( "Rbatch of Keys, Bool and Err",
        Wire.Rbatch
          [|
            Wire.Keys (9, keys 3_000);
            Wire.Bool true;
            Wire.Err "a part was refused";
            Wire.Bool false;
            Wire.Keys (10, [||]);
            Wire.Err "";
          |] );
      ("Bools", Wire.Bools (42, Array.init 5_000 (fun i -> i mod 3 = 0)));
      ( "Keyss",
        Wire.Keyss (17, [| keys 2_000; [||]; [| max_int |]; keys 5_000 |]) );
      ("Err", Wire.Err (String.init 3_000 (fun i -> Char.chr (i mod 256))));
      ("Bool", Wire.Bool true);
      ("Pong", Wire.Pong);
    ];
  let r = Wire.Keys (1, [| 1; 2 |]) in
  let n = Wire.response_size r in
  List.iter
    (fun (what, src, pos, len) ->
      match Wire.blit_answer (Wire.cursor ()) (n, Wire.Whole r) ~src dst pos len with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "blit_answer accepted %s" what)
    [
      ("a window past the frame", 1, 0, 4 + n);
      ("a negative offset", -1, 0, 2);
      ("a window past the buffer", 0, buf_size - 2, 3);
    ]

(* ---------- answers from pieces, through a cursor ---------- *)

(* The response an answer stands for, as the in-process adapter builds
   it. *)
let response_of = function
  | Wire.Whole r -> r
  | Wire.Parts (label, parts) ->
    Wire.Keys (label, Array.concat (List.map Sync.Key_run.to_array (Array.to_list parts)))
  | Wire.Marks (p, others) ->
    let j = ref 0 in
    Wire.Rbatch
      (Array.init (Wire.length p) (fun i ->
           match Wire.mark p i with
           | m when m = Wire.no -> Wire.Bool false
           | m when m = Wire.yes -> Wire.Bool true
           | m when m = Wire.refused -> Wire.stopping
           | _ ->
             incr j;
             others.(!j - 1)))

(* [a]'s frame written through consecutive windows of [window] bytes,
   with [cursor] or, without one, a fresh cursor each window *)
let windowed ?cursor a ~window =
  let n = Wire.answer_size a in
  let got = Bytes.create (4 + n) in
  let sent = ref 0 in
  while !sent < 4 + n do
    let k = min window (4 + n - !sent) in
    let cursor = match cursor with Some c -> c | None -> Wire.cursor () in
    Wire.blit_answer cursor (n, a) ~src:!sent got !sent k;
    sent := !sent + k
  done;
  got

(* A batch packed from [reqs]: each point op marked by [point i], each
   other member answered by the next of [others]. *)
let marks reqs ~point others =
  let p = Wire.pack reqs in
  Array.iteri
    (fun i r ->
      Wire.set_mark p i
        (match r with
        | Wire.Get _ | Wire.Insert _ | Wire.Delete _ -> point i
        | _ -> Wire.next))
    reqs;
  Wire.Marks (p, others)

(* [keys] in a run for [lo, hi] (by default their own first and last),
   sorted in place as a served part is *)
let run ?lo ?hi keys =
  let n = Array.length keys in
  let lo = match lo with Some lo -> lo | None -> if n = 0 then 0 else keys.(0) in
  let hi = match hi with Some hi -> hi | None -> if n = 0 then 0 else keys.(n - 1) in
  let r = Sync.Key_run.make ~lo ~hi in
  Array.iter (Sync.Key_run.push r) keys;
  Sync.Key_run.sort_unique r;
  r

(* Every answer form, each piece form beside plain responses with
   members, gives encode_response's bytes through 7-byte and 16 KiB
   windows, with one cursor kept across all the frames (each frame's
   first window resets it) and without one, and its [answer_size] is
   the payload size of the response it stands for.  Parts are key runs
   of 4 and 8 bytes a key, empty ones, ones that end on both sides of
   the 8192-key segment edge, and one filled out of order.  The large
   frames, the forms a cursor walks (marks, parts, a Keyss), take
   members x windows steps without one, so they only run with one. *)
let answers_through_a_cursor () =
  let keys n = Array.init n (fun i -> (i * 7919) - 40_000) in
  let runs n = run (keys n) in
  let wide =
    run ~lo:min_int ~hi:max_int [| min_int; -(1 lsl 40); -1; 0; 1 lsl 40; max_int |]
  in
  let scrambled = run ~lo:0 ~hi:2_002 (Array.init 3_000 (fun i -> i * 7919 mod 2_003)) in
  let mixed =
    [|
      Wire.Insert 3; Wire.Range (1, 9); Wire.Get 4; Wire.Ping; Wire.Delete 5;
      Wire.MultiRange [||]; Wire.Get 6; Wire.MultiGet [| 1 |]; Wire.Insert 7;
    |]
  in
  let small =
    [
      ("Whole Keys", Wire.Whole (Wire.Keys (3, keys 5_000)));
      ( "Whole Rbatch with a Keyss",
        Wire.Whole
          (Wire.Rbatch
             [| Wire.Bool true; Wire.Keyss (4, Array.init 40 keys); Wire.Err "e"; Wire.Pong |]) );
      ("Whole Keyss", Wire.Whole (Wire.Keyss (17, Array.init 50 keys)));
      ("Whole Bool", Wire.Whole (Wire.Bool false));
      ("Parts, two", Wire.Parts (9, [| runs 3_000; runs 2_500 |]));
      ("Parts, empty ones", Wire.Parts (-1, [| run [||]; runs 7; run [||]; runs 4_000; run [||] |]));
      ("Parts, none", Wire.Parts (0, [||]));
      ("Parts, 8 bytes a key", Wire.Parts (3, [| wide; runs 10; wide |]));
      ( "Parts about the segment edge",
        Wire.Parts (4, [| runs 8_191; runs 8_192; runs 8_193; runs 16_319; runs 16_321 |]) );
      ("Parts, one filled out of order", Wire.Parts (5, [| scrambled; runs 3 |]));
      ( "Marks of points",
        marks (Array.init 3_000 (fun i -> Wire.Get i)) ~point:(fun i ->
            if i mod 3 = 0 then Wire.yes else Wire.no) [||] );
      ( "Marks of a mixed batch",
        marks mixed
          ~point:(fun i -> if i = 4 then Wire.refused else Wire.yes)
          [|
            Wire.Keys (2, keys 1_000); Wire.Pong; Wire.Keyss (5, Array.init 60 keys);
            Wire.Bools (6, [| true |]);
          |] );
      ("Marks, none", marks [||] ~point:(fun _ -> Wire.no) [||]);
    ]
  and large =
    [
      ( "Marks of 100,000 points",
        marks (Array.init 100_000 (fun i -> Wire.Insert i)) ~point:(fun i ->
            if i land 1 = 0 then Wire.yes else Wire.refused) [||] );
      ( "Whole Keyss of 100,000 ranges",
        Wire.Whole (Wire.Keyss (1, Array.init 100_000 (fun i -> [| i |]))) );
      ("Parts of 20,000 parts", Wire.Parts (1, Array.init 20_000 (fun i -> run [| i |])));
      ("Parts of 100,000 keys", Wire.Parts (2, [| runs 60_000; runs 40_000 |]));
    ]
  in
  let cursor = Wire.cursor () in
  List.iter
    (fun window ->
      List.iter
        (fun (what, a) ->
          let want = encode_resp (response_of a) in
          Alcotest.(check int)
            (what ^ ": answer_size")
            (Wire.response_size (response_of a))
            (Wire.answer_size a);
          let check how got =
            Alcotest.(check bytes)
              (Printf.sprintf "%s, %d-byte windows, %s" what window how)
              want got
          in
          check "a cursor" (windowed ~cursor a ~window);
          if not (List.mem_assoc what large) then check "no cursor" (windowed a ~window))
        (small @ large))
    [ 7; 16384 ]

(* ---------- pipelining / incremental feed ---------- *)

let pipelined_chunked_feed () =
  let reqs =
    [
      Wire.Get 11;
      Wire.Batch [| Wire.Insert 1; Wire.Range (2, 60) |];
      Wire.Range (100, 200);
      Wire.Ping;
      Wire.Delete 12;
    ]
  in
  let all = Buffer.create 256 in
  List.iter (Wire.encode_request all) reqs;
  let bytes = Buffer.to_bytes all in
  (* feed in every chunk size from a dribble to one big write; the
     decoded stream must always match *)
  List.iter
    (fun chunk ->
      let d = Wire.decoder () in
      let decoded = ref [] in
      let pos = ref 0 in
      while !pos < Bytes.length bytes do
        let n = min chunk (Bytes.length bytes - !pos) in
        Wire.feed d bytes !pos n;
        pos := !pos + n;
        let more = ref true in
        while !more do
          match Wire.next_request d with
          | Some r -> decoded := r :: !decoded
          | None -> more := false
        done
      done;
      Alcotest.(check (list request))
        (Printf.sprintf "chunk size %d" chunk)
        reqs
        (List.rev !decoded);
      Alcotest.(check int) "drained" 0 (Wire.buffered d))
    [ 1; 3; 7; 64; Bytes.length bytes ]

(* One 1 MB request grows the decoder's buffer to hold it; once it is
   decoded, the buffer is back to 4 KiB, and a frame cut across the
   shrink still decodes.  A frame of 20 KB leaves its buffer as it is. *)
let decoder_shrinks () =
  let d = Wire.decoder () in
  let small = Obj.reachable_words (Obj.repr d) in
  let big = Wire.MultiGet (Array.init 131_072 Fun.id) in
  let next = encode_req (Wire.Range (3, 9)) in
  feed_all d (encode_req big);
  Wire.feed d next 0 5;
  Alcotest.(check bool) "grown to hold 1 MB" true
    (Obj.reachable_words (Obj.repr d) > 131_072);
  Alcotest.check request "the 1 MB request" big (Option.get (Wire.next_request d));
  Alcotest.(check int) "back to 4 KiB" small (Obj.reachable_words (Obj.repr d));
  Wire.feed d next 5 (Bytes.length next - 5);
  Alcotest.check request "the frame cut across the shrink" (Wire.Range (3, 9))
    (Option.get (Wire.next_request d));
  let mid = Wire.MultiGet (Array.init 2_500 Fun.id) in
  feed_all d (encode_req mid);
  Alcotest.check request "a 20 KB request" mid (Option.get (Wire.next_request d));
  Alcotest.(check bool) "a buffer of at most 64 KiB stays" true
    (Obj.reachable_words (Obj.repr d) > 2_500)

(* Words [f ()] allocated directly in this domain's major heap: what the
   major heap gained, less what minor collections promoted into it. *)
let direct_major_words f =
  let _, pr0, ma0 = Gc.counters () in
  let r = f () in
  let _, pr1, ma1 = Gc.counters () in
  (r, int_of_float (ma1 -. ma0 -. (pr1 -. pr0)))

(* A pipeline of 512-op point batches (4.6 KB frames), 16 at a time,
   read 64 KiB at a time as the server reads, fills the decoder past
   64 KiB on most reads.  It keeps its buffer: after a first pass,
   decoding 128 batches allocates less than one word a batch directly
   in the major heap.  (Cutting the buffer back to 4 KiB whenever what
   was left fitted made a 128 KiB block there on most reads, ~1,000
   words a batch.) *)
let decoder_keeps_a_pipelines_buffer () =
  let batch b = encode_req (Wire.Batch (Array.init 512 (fun i -> Wire.Insert ((8 * i) + b)))) in
  let burst = Bytes.concat Bytes.empty (List.init 16 batch) in
  let stream = Bytes.concat Bytes.empty (List.init 8 (fun _ -> burst)) in
  let d = Wire.decoder () in
  let decode_stream () =
    let pos = ref 0 and batches = ref 0 in
    while !pos < Bytes.length stream do
      let n = min 65_536 (Bytes.length stream - !pos) in
      Wire.feed d stream !pos n;
      pos := !pos + n;
      let rec next () =
        match Wire.next_incoming d with
        | Some (Wire.Points p) when Wire.length p = 512 ->
          incr batches;
          next ()
        | Some _ -> Alcotest.fail "a point batch decoded as something else"
        | None -> ()
      in
      next ()
    done;
    !batches
  in
  ignore (decode_stream ());
  let batches, direct = direct_major_words decode_stream in
  Alcotest.(check int) "every batch decoded" 128 batches;
  Alcotest.(check bool)
    (Printf.sprintf "%d batches allocated %d words directly in the major heap" batches direct)
    true (direct < batches)

let incomplete_frame_waits () =
  let d = Wire.decoder () in
  let bytes = encode_req (Wire.Range (1, 2)) in
  (* a partial prefix, then a partial payload: decoder must wait, not
     reject *)
  Wire.feed d bytes 0 2;
  Alcotest.(check (option request)) "prefix incomplete" None (Wire.next_request d);
  Wire.feed d bytes 2 10;
  Alcotest.(check (option request)) "payload incomplete" None (Wire.next_request d);
  Wire.feed d bytes 12 (Bytes.length bytes - 12);
  Alcotest.check (Alcotest.option request) "complete" (Some (Wire.Range (1, 2)))
    (Wire.next_request d)

(* ---------- strict rejection ---------- *)

let rejects_zero_length () =
  check_malformed "zero-length" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "");
      Wire.next_request d)

let rejects_oversized_length () =
  check_malformed "oversized" (fun () ->
      let d = Wire.decoder () in
      (* prefix alone claims max_payload + 1: must be rejected before
         any payload arrives *)
      let n = Wire.max_payload + 1 in
      let b = Bytes.create 4 in
      Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
      Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
      Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
      Bytes.set b 3 (Char.chr (n land 0xff));
      feed_all d b;
      Wire.next_request d)

let rejects_truncated_body () =
  (* frame length says 5, Get needs opcode + 8 key bytes *)
  check_malformed "truncated get" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "\x01ABCD");
      Wire.next_request d);
  (* range missing its hi field *)
  check_malformed "truncated range" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x04" ^ i64_be 1));
      Wire.next_request d);
  (* batch announcing more members than bytes remain *)
  check_malformed "batch count exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "\x05\x00\x00\x00\x09\x06");
      Wire.next_request d);
  (* keys response missing key bytes *)
  check_malformed "truncated keys" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x84" ^ i64_be 7 ^ "\x00\x00\x00\x02"));
      Wire.next_response d);
  (* multiget announcing more keys than bytes remain *)
  check_malformed "multiget count exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x07\x00\x00\x00\x03" ^ i64_be 1));
      Wire.next_request d);
  (* multirange missing its second bound *)
  check_malformed "multirange count exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x08\x00\x00\x00\x01" ^ i64_be 1));
      Wire.next_request d);
  (* bools response with fewer value bytes than its count *)
  check_malformed "bools count exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x88" ^ i64_be 1 ^ "\x00\x00\x00\x04\x01"));
      Wire.next_response d);
  (* err whose message length exceeds the remaining payload *)
  check_malformed "err length exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "\x87\x00\x00\x00\x05ab");
      Wire.next_response d);
  (* keyss whose outer count exceeds the remaining payload *)
  check_malformed "keyss count exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x89" ^ i64_be 1 ^ "\x00\x00\x00\x09\x00"));
      Wire.next_response d);
  (* keyss inner range missing key bytes *)
  check_malformed "keyss range count exceeds payload" (fun () ->
      let d = Wire.decoder () in
      feed_all d
        (raw_frame ("\x89" ^ i64_be 1 ^ "\x00\x00\x00\x01\x00\x00\x00\x02"));
      Wire.next_response d)

let rejects_trailing_bytes () =
  check_malformed "trailing bytes" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x06" ^ "junk"));
      Wire.next_request d)

let rejects_unknown_opcode () =
  check_malformed "unknown request opcode" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "\x7f");
      Wire.next_request d);
  check_malformed "unknown response opcode" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "\x01");
      (* 0x01 is a request opcode, not a response one *)
      Wire.next_response d)

let rejects_bad_bool () =
  check_malformed "bad bool byte" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame "\x81\x02");
      Wire.next_response d);
  check_malformed "bad bools member byte" (fun () ->
      let d = Wire.decoder () in
      feed_all d (raw_frame ("\x88" ^ i64_be 1 ^ "\x00\x00\x00\x01\x07"));
      Wire.next_response d)

let rejects_oversized_multiget () =
  (* 3M keys at 8 bytes each overruns max_payload (16 MiB): the encoder
     must refuse to produce the frame *)
  match encode_req (Wire.MultiGet (Array.make 3_000_000 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoder accepted an oversized multiget"

let rejects_nested_batch () =
  (* decoder side: a batch whose member is itself a batch opcode *)
  check_malformed "nested batch" (fun () ->
      let d = Wire.decoder () in
      feed_all d
        (raw_frame "\x05\x00\x00\x00\x01\x05\x00\x00\x00\x01\x06");
      Wire.next_request d);
  (* encoder side refuses to produce one *)
  match encode_req (Wire.Batch [| Wire.Batch [| Wire.Ping |] |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoder accepted a nested batch"

let malformed_leaves_offender_described () =
  let d = Wire.decoder () in
  feed_all d (raw_frame "\x7f");
  match Wire.next_request d with
  | exception Wire.Malformed msg ->
    Alcotest.(check bool)
      "message mentions the opcode" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected Malformed"

let () =
  Alcotest.run "wire"
    [
      ( "round-trip",
        [
          Alcotest.test_case "requests" `Quick request_round_trip;
          Alcotest.test_case "responses" `Quick response_round_trip;
          Alcotest.test_case "packed point batches" `Quick packed_decode;
        ] );
      ( "exact-size",
        [
          Alcotest.test_case "frame is 4 + size" `Quick frames_are_exact_size;
          Alcotest.test_case "262144-key Keys" `Quick large_keys_round_trip;
          Alcotest.test_case "max_payload boundary" `Quick max_payload_boundary;
        ] );
      ( "windowed",
        [
          Alcotest.test_case "windowed frames" `Quick windowed_frames;
          Alcotest.test_case "answers through a cursor" `Quick answers_through_a_cursor;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "pipelined chunked feed" `Quick
            pipelined_chunked_feed;
          Alcotest.test_case "incomplete frame waits" `Quick
            incomplete_frame_waits;
          Alcotest.test_case "a pipeline of batches keeps its buffer" `Quick
            decoder_keeps_a_pipelines_buffer;
          Alcotest.test_case "decoder shrinks after a large frame" `Quick
            decoder_shrinks;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "zero length" `Quick rejects_zero_length;
          Alcotest.test_case "oversized length" `Quick rejects_oversized_length;
          Alcotest.test_case "truncated body" `Quick rejects_truncated_body;
          Alcotest.test_case "trailing bytes" `Quick rejects_trailing_bytes;
          Alcotest.test_case "unknown opcode" `Quick rejects_unknown_opcode;
          Alcotest.test_case "bad bool byte" `Quick rejects_bad_bool;
          Alcotest.test_case "oversized multiget" `Quick
            rejects_oversized_multiget;
          Alcotest.test_case "nested batch" `Quick rejects_nested_batch;
          Alcotest.test_case "malformed message" `Quick
            malformed_leaves_offender_described;
        ] );
    ]
