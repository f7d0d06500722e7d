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

(* --- packed point batches and answers from pieces ------------------ *)

(* A Batch's members packed as their wire bytes, an opcode and an 8-byte
   key each (a member that is not a point op is 9 zero bytes), in chunks
   of [chunk_ops]: 2043 bytes, a 256-word block, the largest the runtime
   allocates in the minor heap.  [marks] has one answer byte per member. *)
type points = { n : int; ops : Bytes.t array; marks : Bytes.t }
type incoming = Request of request | Points of points

type answer =
  | Whole of response
  | Parts of int * Sync.Key_run.t array
  | Marks of points * response array

let stopping = Err "server stopping"
let chunk_ops = 227
let length p = p.n
let chunk p i = p.ops.(i / chunk_ops)
let at i = 9 * (i mod chunk_ops)
let key p i = Int64.to_int (Bytes.get_int64_be (chunk p i) (at i + 1))
let op p i = Char.code (Bytes.get (chunk p i) (at i))

(* A member's mark: its answer is Bool false, Bool true (the mark is the
   bool's byte), the next of the others in order, or [stopping]. *)
let no = 0
let yes = 1
let next = 2
let refused = 3
let mark p i = Char.code (Bytes.get p.marks i)
let set_mark p i m = Bytes.set p.marks i (Char.chr m)

let member p i =
  let k = key p i and op = op p i in
  if op = op_get then Get k
  else if op = op_insert then Insert k
  else if op = op_delete then Delete k
  else Ping

(* [n] members, chunk [j] made by [chunk j len] ([len] bytes) *)
let packed n chunk =
  let ops = Array.make ((n + chunk_ops - 1) / chunk_ops) Bytes.empty in
  Array.iteri (fun j _ -> ops.(j) <- chunk j (9 * min chunk_ops (n - (j * chunk_ops)))) ops;
  { n; ops; marks = Bytes.make n (Char.chr no) }

(* One size pass, then one write pass per window of the frame (a whole
   frame is one window): frame bytes [lo, hi), byte [f] going to
   [dst.(base + f)].  A writer puts the bytes of its value, starting at
   [f], that fall in the window, and returns the offset after it.  Key
   and bool arrays are indexed at the window; the members of parts,
   marks or a Keyss answer are walked from a cursor, so such a frame
   written in consecutive windows costs O(bytes + members) in all; any
   other value outside the window costs one step.  Counts fit in 32
   bits: frames are capped at max_payload. *)
type window = { mutable dst : Bytes.t; mutable base : int; mutable lo : int; mutable hi : int }

(* A [width]-byte big-endian field at [f]; a field cut by an edge of the
   window is written byte by byte. *)
let put w f width v =
  let stop = f + width in
  if f >= w.lo && stop <= w.hi then begin
    let i = w.base + f in
    match width with
    | 1 -> Bytes.set w.dst i (Char.unsafe_chr v)
    | 4 -> Bytes.set_int32_be w.dst i (Int32.of_int v)
    | _ -> Bytes.set_int64_be w.dst i (Int64.of_int v)
  end
  else
    for j = max f w.lo to min stop w.hi - 1 do
      Bytes.set w.dst (w.base + j)
        (Char.unsafe_chr ((v asr (8 * (stop - 1 - j))) land 0xff))
    done;
  stop

let put_count w f op n = put w (put w f 1 op) 4 n

let put_keys w f keys =
  let n = Array.length keys in
  for i = max 0 ((w.lo - f) / 8) to min n ((w.hi - f + 7) / 8) - 1 do
    ignore (put w (f + (8 * i)) 8 (Array.unsafe_get keys i))
  done;
  f + (8 * n)

(* A run's keys, indexed at the window like an array's: those wholly in
   it in one pass over the run's segments, the (at most two) that an
   edge cuts one by one. *)
let put_run w f r =
  let n = Sync.Key_run.length r in
  let i0 = max 0 ((w.lo - f) / 8) and i1 = min n ((w.hi - f + 7) / 8) in
  let a = if w.lo <= f then 0 else (w.lo - f + 7) / 8
  and b = if w.hi <= f then 0 else min n ((w.hi - f) / 8) in
  for i = i0 to min a i1 - 1 do
    ignore (put w (f + (8 * i)) 8 (Sync.Key_run.get r i))
  done;
  if a < b then Sync.Key_run.blit_be r ~first:a ~count:(b - a) w.dst (w.base + f + (8 * a));
  for i = max i0 (max a b) to i1 - 1 do
    ignore (put w (f + (8 * i)) 8 (Sync.Key_run.get r i))
  done;
  f + (8 * n)

let put_ints w f keys = put_keys w (put w f 4 (Array.length keys)) keys
let put_keyss w f label kss = put w (put w (put w f 1 op_keyss) 8 label) 4 (Array.length kss)

let rec put_request w f = function
  | Get k -> put w (put w f 1 op_get) 8 k
  | Insert k -> put w (put w f 1 op_insert) 8 k
  | Delete k -> put w (put w f 1 op_delete) 8 k
  | Range (lo, hi) -> put w (put w (put w f 1 op_range) 8 lo) 8 hi
  | Batch reqs ->
    Array.fold_left (put_request w) (put_count w f op_batch (Array.length reqs)) reqs
  | Ping -> put w f 1 op_ping
  | MultiGet keys -> put_ints w (put w f 1 op_multiget) keys
  | MultiRange ranges ->
    Array.fold_left
      (fun f (lo, hi) -> put w (put w f 8 lo) 8 hi)
      (put_count w f op_multirange (Array.length ranges))
      ranges

(* each point op written as on the wire, into its 9 bytes of a chunk *)
let pack reqs =
  let p = packed (Array.length reqs) (fun _ len -> Bytes.make len '\000') in
  Array.iteri
    (fun i r ->
      match r with
      | Get _ | Insert _ | Delete _ ->
        ignore (put_request { dst = chunk p i; base = at i; lo = 0; hi = 9 } 0 r)
      | _ -> ())
    reqs;
  p

let rec put_response w f = function
  | Bool v -> put w (put w f 1 op_bool) 1 (Bool.to_int v)
  | Keys (label, keys) -> put_ints w (put w (put w f 1 op_keys) 8 label) keys
  | Rbatch rs ->
    Array.fold_left (put_response w) (put_count w f op_rbatch (Array.length rs)) rs
  | Pong -> put w f 1 op_pong
  | Err msg ->
    let n = String.length msg in
    let f = put_count w f op_err n in
    let a = max f w.lo and b = min (f + n) w.hi in
    if a < b then Bytes.blit_string msg (a - f) w.dst (w.base + a) (b - a);
    f + n
  | Bools (label, bs) ->
    let n = Array.length bs in
    let f = put w (put w (put w f 1 op_bools) 8 label) 4 n in
    for i = max 0 (w.lo - f) to min n (w.hi - f) - 1 do
      ignore (put w (f + i) 1 (Bool.to_int bs.(i)))
    done;
    f + n
  | Keyss (label, kss) -> Array.fold_left (put_ints w) (put_keyss w f label kss) kss

(* Where the last window of a frame stopped: the first member not wholly
   before it, that member's offset and the others taken before it
   (marks); [w] is the window, reused. *)
type cursor = { mutable member : int; mutable at : int; mutable other : int; w : window }

let cursor () = { member = 0; at = 0; other = 0; w = { dst = Bytes.empty; base = 0; lo = 0; hi = 0 } }

(* Members [i, n) of [a], member [i] at [f] with [j] others taken before
   it, stopped at the window's end: past the window, the result is only
   known to be above [w.hi].  No closure: a window allocates nothing
   here. *)
let rec walk w c a n i f j =
  if i = n then f
  else if f >= w.hi then w.hi + 1
  else begin
    let f' =
      match a with
      | Whole (Keyss (_, kss)) -> put_ints w f kss.(i)
      | Parts (_, parts) -> put_run w f parts.(i)
      | Marks (p, others) ->
        let m = mark p i in
        if m = next then put_response w f others.(j)
        else if m = refused then put_response w f stopping
        else put w (put w f 1 op_bool) 1 m
      | Whole _ -> invalid_arg "Wire: a response without a cursor walk"
    in
    let j = match a with Marks (p, _) when mark p i = next -> j + 1 | _ -> j in
    if f' <= w.hi then begin
      c.member <- i + 1;
      c.at <- f';
      c.other <- j
    end;
    walk w c a n (i + 1) f' j
  end

(* [a]'s [n] members from offset [f0], resumed at the cursor when it is
   past [f0] *)
let members w c a f0 n = if c.at >= f0 then walk w c a n c.member c.at c.other else walk w c a n 0 f0 0

let put_answer w c f = function
  | Whole (Keyss (label, kss)) as a -> members w c a (put_keyss w f label kss) (Array.length kss)
  | Whole r -> put_response w f r
  | Parts (label, parts) as a ->
    (* the key count, summed only while the header is in the window *)
    if f + 13 > w.lo then
      ignore
        (put w (put w (put w f 1 op_keys) 8 label) 4
           (Array.fold_left (fun n r -> n + Sync.Key_run.length r) 0 parts));
    members w c a (f + 13) (Array.length parts)
  | Marks (p, _) as a -> members w c a (put_count w f op_rbatch p.n) p.n

(* A piece answer's payload size: where a write pass over a window past
   every frame ends. *)
let answer_size = function
  | Whole r -> response_size r
  | a -> put_answer { dst = Bytes.empty; base = 0; lo = max_int; hi = max_int } (cursor ()) 0 a

(* Bytes [src, src + len) of the frame of answer [a], [n] payload
   bytes, written at [dst.(pos)] through the cursor's window.  A cursor
   follows one frame's consecutive windows; an earlier window starts it
   again. *)
let blit_answer c (n, a) ~src dst pos len =
  if
    n > max_payload || src < 0 || len < 0 || src + len > 4 + n || pos < 0
    || pos + len > Bytes.length dst
  then invalid_arg "Wire.blit_answer";
  if src = 0 || src < c.at then c.at <- 0;
  let w = c.w in
  w.dst <- dst;
  w.base <- pos - src;
  w.lo <- src;
  w.hi <- src + len;
  ignore (put_answer w c (put w 0 4 n) a);
  w.dst <- Bytes.empty

(* A frame of [n] payload bytes written by [write] and appended to [buf];
   one above max_payload is refused before anything is allocated. *)
let encode buf n write =
  if n > max_payload then invalid_arg "Wire: frame exceeds max_payload";
  let b = Bytes.create (4 + n) in
  write b;
  Buffer.add_bytes buf b

let encode_request buf r =
  let n = request_size r in
  encode buf n (fun b ->
      let w = { dst = b; base = 0; lo = 0; hi = 4 + n } in
      ignore (put_request w (put w 0 4 n) r))

let encode_response buf r =
  let n = response_size r in
  encode buf n (fun b -> blit_answer (cursor ()) (n, Whole r) ~src:0 b 0 (4 + n))

(* --- incremental decoder -------------------------------------------- *)

(* [large]: a frame above [shrink_above] was decoded since the buffer
   was last cut back *)
type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  mutable large : bool;
}

(* The buffer doubles to fit what is fed.  One that a frame above
   [shrink_above] grew is cut back once that frame is decoded and what
   is still buffered fits.  A pipeline of smaller frames that fills more
   than [shrink_above] in one read (16 served 4.6 KB batches with a
   64 KiB read) keeps its buffer: cutting it back on every such read
   made a 128 KiB block in the major heap each time. *)
let initial = 4096
let shrink_above = 65536
let decoder () = { buf = Bytes.create initial; start = 0; len = 0; large = false }
let buffered d = d.len

(* Move what is buffered to the front of a buffer of [cap] bytes: the
   same one when it has [cap] bytes already. *)
let resize d cap =
  let b = if cap = Bytes.length d.buf then d.buf else Bytes.create cap in
  Bytes.blit d.buf d.start b 0 d.len;
  d.buf <- b;
  d.start <- 0

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Wire.feed";
  (* compact, doubling the buffer until the tail fits *)
  if d.start + d.len + len > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf) in
    while d.len + len > !cap do
      cap := !cap * 2
    done;
    resize d !cap
  end;
  Bytes.blit src off d.buf (d.start + d.len) len;
  d.len <- d.len + len

(* a read position in one frame's payload *)
type reader = { bytes : Bytes.t; stop : int; mutable pos : int }

let need c n what =
  if c.pos + n > c.stop then malformed "truncated %s" what

let get_u8 c what =
  need c 1 what;
  let v = Char.code (Bytes.get c.bytes c.pos) in
  c.pos <- c.pos + 1;
  v

(* an unsigned 32-bit count *)
let u32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFF_FFFF

let get_u32 c what =
  need c 4 what;
  let v = u32 c.bytes c.pos in
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
    let n = u32 b s in
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
      if 4 + n > shrink_above then d.large <- true;
      if d.large && d.len <= initial then begin
        d.large <- false;
        resize d initial
      end;
      Some v
    end
  end

(* A Batch of point ops only (every member 9 bytes, a point opcode at
   each member's offset) is packed, its chunks copied out of the frame;
   any other frame is parsed. *)
let rec points_only b f stop =
  f = stop
  ||
  let op = Char.code (Bytes.get b f) in
  op >= op_get && op <= op_delete && points_only b (f + 9) stop

let read_incoming c ~nested =
  let b = c.bytes and p = c.pos in
  if
    Char.code (Bytes.get b p) = op_batch
    && c.stop - p >= 5
    && c.stop - p = 5 + (9 * u32 b (p + 1))
    && points_only b (p + 5) c.stop
  then begin
    c.pos <- c.stop;
    Points (packed (u32 b (p + 1)) (fun j len -> Bytes.sub b (p + 5 + (9 * j * chunk_ops)) len))
  end
  else Request (read_request c ~nested)

let next_incoming d = next_frame d read_incoming

let next_request d =
  match next_incoming d with
  | Some (Points p) ->
    let a = Array.make p.n Ping in
    Array.iteri (fun i _ -> a.(i) <- member p i) a;
    Some (Batch a)
  | Some (Request r) -> Some r
  | None -> None

let next_response d = next_frame d read_response

let read_back (n, a) =
  let b = Bytes.create (4 + n) in
  blit_answer (cursor ()) (n, a) ~src:0 b 0 (4 + n);
  read_response { bytes = b; stop = 4 + n; pos = 4 } ~nested:false
