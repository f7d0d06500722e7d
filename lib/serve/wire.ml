type request =
  | Get of int
  | Insert of int
  | Delete of int
  | Range of int * int
  | Batch of request array
  | Ping
  | MultiGet of int array
  | MultiRange of (int * int) array

type response =
  | Bool of bool
  | Keys of int * int array
  | Rbatch of response array
  | Pong
  | Err of string
  | Bools of int * bool array
  | Keyss of int * int array array

let max_payload = 1 lsl 24

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* opcodes: requests in the low range, responses with the high bit set *)
let op_get = 0x01
let op_insert = 0x02
let op_delete = 0x03
let op_range = 0x04
let op_batch = 0x05
let op_ping = 0x06
let op_multiget = 0x07
let op_multirange = 0x08
let op_bool = 0x81
let op_keys = 0x84
let op_rbatch = 0x85
let op_pong = 0x86
let op_err = 0x87
let op_bools = 0x88
let op_keyss = 0x89

(* --- encoding ------------------------------------------------------- *)

(* One size pass, then one write pass into a [Bytes.t] of exactly the
   frame's length: no growing buffer, no second copy. *)

let rec request_size ~nested = function
  | Get _ | Insert _ | Delete _ -> 9
  | Range _ -> 17
  | Batch reqs ->
    if nested then invalid_arg "Wire.encode_request: nested batch";
    Array.fold_left (fun n r -> n + request_size ~nested:true r) 5 reqs
  | Ping -> 1
  | MultiGet keys -> 5 + (8 * Array.length keys)
  | MultiRange ranges -> 5 + (16 * Array.length ranges)

let rec response_size ~nested = function
  | Bool _ -> 2
  | Keys (_, keys) -> 13 + (8 * Array.length keys)
  | Rbatch rs ->
    if nested then invalid_arg "Wire.encode_response: nested batch";
    Array.fold_left (fun n r -> n + response_size ~nested:true r) 5 rs
  | Pong -> 1
  | Err msg -> 5 + String.length msg
  | Bools (_, bs) -> 13 + Array.length bs
  | Keyss (_, kss) ->
    Array.fold_left (fun n ks -> n + 4 + (8 * Array.length ks)) 13 kss

let request_size = request_size ~nested:false
let response_size = response_size ~nested:false

(* Each writer puts one value at [pos] and returns the position after it.
   Counts fit in 32 bits: the size pass capped the frame at max_payload. *)
let set_u8 b pos v =
  Bytes.set b pos (Char.unsafe_chr v);
  pos + 1

let set_u32 b pos v =
  Bytes.set_int32_be b pos (Int32.of_int v);
  pos + 4

let set_i64 b pos v =
  Bytes.set_int64_be b pos (Int64.of_int v);
  pos + 8

let set_bool b pos v = set_u8 b pos (if v then 1 else 0)

let set_ints b pos keys =
  let pos = set_u32 b pos (Array.length keys) in
  Array.iteri (fun i k -> ignore (set_i64 b (pos + (8 * i)) k)) keys;
  pos + (8 * Array.length keys)

let rec write_request b pos = function
  | Get k -> set_i64 b (set_u8 b pos op_get) k
  | Insert k -> set_i64 b (set_u8 b pos op_insert) k
  | Delete k -> set_i64 b (set_u8 b pos op_delete) k
  | Range (lo, hi) -> set_i64 b (set_i64 b (set_u8 b pos op_range) lo) hi
  | Batch reqs ->
    let pos = set_u32 b (set_u8 b pos op_batch) (Array.length reqs) in
    Array.fold_left (write_request b) pos reqs
  | Ping -> set_u8 b pos op_ping
  | MultiGet keys -> set_ints b (set_u8 b pos op_multiget) keys
  | MultiRange ranges ->
    let pos = set_u32 b (set_u8 b pos op_multirange) (Array.length ranges) in
    Array.fold_left
      (fun pos (lo, hi) -> set_i64 b (set_i64 b pos lo) hi)
      pos ranges

let rec write_response b pos = function
  | Bool v -> set_bool b (set_u8 b pos op_bool) v
  | Keys (label, keys) ->
    set_ints b (set_i64 b (set_u8 b pos op_keys) label) keys
  | Rbatch rs ->
    let pos = set_u32 b (set_u8 b pos op_rbatch) (Array.length rs) in
    Array.fold_left (write_response b) pos rs
  | Pong -> set_u8 b pos op_pong
  | Err msg ->
    let pos = set_u32 b (set_u8 b pos op_err) (String.length msg) in
    Bytes.blit_string msg 0 b pos (String.length msg);
    pos + String.length msg
  | Bools (label, bs) ->
    let pos = set_i64 b (set_u8 b pos op_bools) label in
    Array.fold_left (set_bool b) (set_u32 b pos (Array.length bs)) bs
  | Keyss (label, kss) ->
    let pos = set_i64 b (set_u8 b pos op_keyss) label in
    Array.fold_left (set_ints b) (set_u32 b pos (Array.length kss)) kss

let frame size write v =
  let n = size v in
  if n > max_payload then invalid_arg "Wire: frame exceeds max_payload";
  let b = Bytes.create (4 + n) in
  let stop = write b (set_u32 b 0 n) v in
  assert (stop = 4 + n);
  b

let request_frame = frame request_size write_request
let response_frame = frame response_size write_response

let response_frames answers =
  let total =
    List.fold_left
      (fun total (n, _) ->
        if n > max_payload then invalid_arg "Wire: frame exceeds max_payload";
        total + 4 + n)
      0 answers
  in
  let b = Bytes.create total in
  let stop =
    List.fold_left (fun pos (n, r) -> write_response b (set_u32 b pos n) r) 0 answers
  in
  assert (stop = total);
  b

let encode_request buf r = Buffer.add_bytes buf (request_frame r)
let encode_response buf r = Buffer.add_bytes buf (response_frame r)

(* --- incremental decoder -------------------------------------------- *)

type decoder = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

let decoder () = { buf = Bytes.create 4096; start = 0; len = 0 }
let buffered d = d.len

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Wire.feed";
  (* compact, then grow if the tail still does not fit *)
  if d.start + d.len + len > Bytes.length d.buf then begin
    if d.start > 0 then begin
      Bytes.blit d.buf d.start d.buf 0 d.len;
      d.start <- 0
    end;
    if d.len + len > Bytes.length d.buf then begin
      let cap = ref (Bytes.length d.buf * 2) in
      while d.len + len > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit d.buf 0 bigger 0 d.len;
      d.buf <- bigger
    end
  end;
  Bytes.blit src off d.buf (d.start + d.len) len;
  d.len <- d.len + len

(* cursor over one frame's payload *)
type cursor = { bytes : Bytes.t; stop : int; mutable pos : int }

let need c n what =
  if c.pos + n > c.stop then malformed "truncated %s" what

let get_u8 c what =
  need c 1 what;
  let v = Char.code (Bytes.get c.bytes c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u32 c what =
  need c 4 what;
  let v =
    (Char.code (Bytes.get c.bytes c.pos) lsl 24)
    lor (Char.code (Bytes.get c.bytes (c.pos + 1)) lsl 16)
    lor (Char.code (Bytes.get c.bytes (c.pos + 2)) lsl 8)
    lor Char.code (Bytes.get c.bytes (c.pos + 3))
  in
  c.pos <- c.pos + 4;
  v

let get_i64 c what =
  need c 8 what;
  let v = Int64.to_int (Bytes.get_int64_be c.bytes c.pos) in
  c.pos <- c.pos + 8;
  v

(* [Array.init] seeds its array with the first element.  Above 256 words
   the runtime moves a young seed to the major heap with a forced minor
   collection, which under OCaml 5 stops every domain.  Decoded arrays of
   boxed values are instead seeded with a value that is not young (an
   immediate or a static constant) and filled in order. *)
let fill n seed read =
  let a = Array.make n seed in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (read ())
  done;
  a

let rec read_request c ~nested =
  match get_u8 c "opcode" with
  | op when op = op_get -> Get (get_i64 c "get key")
  | op when op = op_insert -> Insert (get_i64 c "insert key")
  | op when op = op_delete -> Delete (get_i64 c "delete key")
  | op when op = op_range ->
    let lo = get_i64 c "range lo" in
    let hi = get_i64 c "range hi" in
    Range (lo, hi)
  | op when op = op_batch ->
    if nested then malformed "nested batch";
    let n = get_u32 c "batch count" in
    (* each sub-request is at least one opcode byte *)
    if n > c.stop - c.pos then malformed "batch count %d exceeds payload" n;
    Batch (fill n Ping (fun () -> read_request c ~nested:true))
  | op when op = op_ping -> Ping
  | op when op = op_multiget ->
    let n = get_u32 c "multiget count" in
    if n * 8 > c.stop - c.pos then
      malformed "multiget count %d exceeds payload" n;
    MultiGet (Array.init n (fun _ -> get_i64 c "multiget key"))
  | op when op = op_multirange ->
    let n = get_u32 c "multirange count" in
    if n * 16 > c.stop - c.pos then
      malformed "multirange count %d exceeds payload" n;
    MultiRange
      (fill n (0, 0) (fun () ->
           let lo = get_i64 c "multirange lo" in
           let hi = get_i64 c "multirange hi" in
           (lo, hi)))
  | op -> malformed "unknown request opcode 0x%02x" op

let rec read_response c ~nested =
  match get_u8 c "opcode" with
  | op when op = op_bool -> (
    match get_u8 c "bool value" with
    | 0 -> Bool false
    | 1 -> Bool true
    | v -> malformed "bad bool byte 0x%02x" v)
  | op when op = op_keys ->
    let label = get_i64 c "keys label" in
    let n = get_u32 c "keys count" in
    if n * 8 > c.stop - c.pos then malformed "keys count %d exceeds payload" n;
    Keys (label, Array.init n (fun _ -> get_i64 c "key"))
  | op when op = op_rbatch ->
    if nested then malformed "nested batch response";
    let n = get_u32 c "rbatch count" in
    if n > c.stop - c.pos then malformed "rbatch count %d exceeds payload" n;
    Rbatch (fill n Pong (fun () -> read_response c ~nested:true))
  | op when op = op_pong -> Pong
  | op when op = op_err ->
    let n = get_u32 c "err length" in
    need c n "err message";
    let msg = Bytes.sub_string c.bytes c.pos n in
    c.pos <- c.pos + n;
    Err msg
  | op when op = op_bools ->
    let label = get_i64 c "bools label" in
    let n = get_u32 c "bools count" in
    if n > c.stop - c.pos then malformed "bools count %d exceeds payload" n;
    Bools
      ( label,
        Array.init n (fun _ ->
            match get_u8 c "bools value" with
            | 0 -> false
            | 1 -> true
            | v -> malformed "bad bool byte 0x%02x" v) )
  | op when op = op_keyss ->
    let label = get_i64 c "keyss label" in
    let n = get_u32 c "keyss count" in
    (* each per-range result is at least its own 4-byte count *)
    if n * 4 > c.stop - c.pos then malformed "keyss count %d exceeds payload" n;
    Keyss
      ( label,
        fill n [||] (fun () ->
            let m = get_u32 c "keyss range count" in
            if m * 8 > c.stop - c.pos then
              malformed "keyss range count %d exceeds payload" m;
            Array.init m (fun _ -> get_i64 c "keyss key")) )
  | op -> malformed "unknown response opcode 0x%02x" op

let next_frame d read =
  if d.len < 4 then None
  else begin
    let b = d.buf and s = d.start in
    let n =
      (Char.code (Bytes.get b s) lsl 24)
      lor (Char.code (Bytes.get b (s + 1)) lsl 16)
      lor (Char.code (Bytes.get b (s + 2)) lsl 8)
      lor Char.code (Bytes.get b (s + 3))
    in
    if n = 0 then malformed "zero-length frame";
    if n > max_payload then malformed "frame length %d exceeds max_payload" n;
    if d.len < 4 + n then None
    else begin
      let c = { bytes = b; stop = s + 4 + n; pos = s + 4 } in
      let v = read c ~nested:false in
      if c.pos <> c.stop then
        malformed "%d trailing bytes after frame body" (c.stop - c.pos);
      d.start <- d.start + 4 + n;
      d.len <- d.len - 4 - n;
      if d.len = 0 then d.start <- 0;
      Some v
    end
  end

let next_request d = next_frame d read_request
let next_response d = next_frame d read_response
