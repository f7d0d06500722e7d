(* A run of collected keys, each stored as its offset from the run's
   base: 4 bytes when the run's span fits in 32 bits, 8 bytes (the key
   itself, base 0) otherwise.  Segment [i] holds [first lsl i] keys up
   to [cap], and [cap] from segment 7 on, whatever the width, so key [k]
   is at a place computed from [k] alone; a segment is [size i * width]
   bytes, made at the first push into it.  [cur] is [segs.(seg)], [pos]
   its keys, [room] its capacity ([seg] is -1 and [room] 0 before the
   first push of a fill); [last] is the latest push and [ascending] says
   whether every push was above the one before it. *)

let first = 64
let cap = 8192
let size i = if i < 7 then first lsl i else cap (* first lsl 7 = cap *)
let doubling = first * 127 (* keys in segments 0..6 *)

(* keys before segment [i] *)
let start i = if i <= 7 then first * ((1 lsl i) - 1) else doubling + ((i - 7) * cap)

let rec log2 q i = if q < 2 then i else log2 (q lsr 1) (i + 1)

(* the segment holding key [k] *)
let segment_of k = if k >= doubling then 7 + ((k - doubling) / cap) else log2 ((k / first) + 1) 0

type t = {
  mutable segs : Bytes.t array;
  mutable seg : int;
  mutable cur : Bytes.t;
  mutable room : int;
  mutable pos : int;
  mutable len : int;
  mutable last : int;
  mutable ascending : bool;
  mutable base : int;
  mutable width : int;
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Width 4 iff [hi - lo] is in [0, 2^32).  For [lo <= hi] the true
   difference is non-negative, so a difference that overflowed (as for
   [min_int, max_int]) reads negative and takes width 8. *)
let width_of ~lo ~hi =
  let d = hi - lo in
  if lo <= hi && d >= 0 && d < 1 lsl 32 then 4 else 8

let reset r ~lo ~hi =
  r.width <- width_of ~lo ~hi;
  r.base <- (if r.width = 4 then lo else 0);
  r.seg <- -1;
  r.cur <- Bytes.empty;
  r.room <- 0;
  r.pos <- 0;
  r.len <- 0;
  r.ascending <- true

let make ~lo ~hi =
  let width = width_of ~lo ~hi in
  {
    segs = [||];
    seg = -1;
    cur = Bytes.empty;
    room = 0;
    pos = 0;
    len = 0;
    last = 0;
    ascending = true;
    base = (if width = 4 then lo else 0);
    width;
  }

let length r = r.len
let width r = r.width

(* A kept segment too small for this fill's width is replaced. *)
let next_segment r =
  let i = r.seg + 1 in
  let bytes = size i * r.width in
  if i = Array.length r.segs then r.segs <- Array.append r.segs [| Bytes.create bytes |]
  else if Bytes.length r.segs.(i) < bytes then r.segs.(i) <- Bytes.create bytes;
  r.seg <- i;
  r.cur <- r.segs.(i);
  r.room <- size i;
  r.pos <- 0

let push r x =
  if r.len > 0 && x <= r.last then r.ascending <- false;
  if r.pos = r.room then next_segment r;
  if r.width = 4 then begin
    let off = x - r.base in
    if off lsr 32 <> 0 then invalid_arg "Key_run.push: key outside the run's span";
    set32 r.cur (4 * r.pos) (Int32.of_int off)
  end
  else set64 r.cur (8 * r.pos) (Int64.of_int x);
  r.pos <- r.pos + 1;
  r.len <- r.len + 1;
  r.last <- x

(* key [j] of segment [s] *)
let key_in r s j =
  if r.width = 4 then r.base + (Int32.to_int (get32 s (4 * j)) land 0xFFFF_FFFF)
  else Int64.to_int (get64 s (8 * j))

let set_in r s j x =
  if r.width = 4 then set32 s (4 * j) (Int32.of_int (x - r.base)) else set64 s (8 * j) (Int64.of_int x)

let unsafe_get r k =
  let i = segment_of k in
  key_in r r.segs.(i) (k - start i)

let unsafe_set r k x =
  let i = segment_of k in
  set_in r r.segs.(i) (k - start i) x

let get r k =
  if k < 0 || k >= r.len then invalid_arg "Key_run.get";
  unsafe_get r k

let blit r dst pos =
  if pos < 0 || pos + r.len > Array.length dst then invalid_arg "Key_run.blit";
  for i = 0 to r.seg do
    let s = r.segs.(i) and o = pos + start i in
    for j = 0 to (if i = r.seg then r.pos else size i) - 1 do
      Array.unsafe_set dst (o + j) (key_in r s j)
    done
  done

let to_array r =
  let a = Array.make r.len 0 in
  blit r a 0;
  a

let blit_be r ~first ~count dst pos =
  if first < 0 || count < 0 || first + count > r.len || pos < 0 || pos + (8 * count) > Bytes.length dst
  then invalid_arg "Key_run.blit_be";
  let stop = first + count and k = ref first and p = ref pos in
  while !k < stop do
    let i = segment_of !k in
    let s = r.segs.(i) and o = start i in
    let j1 = min (size i) (stop - o) in
    for j = !k - o to j1 - 1 do
      let v = Int64.of_int (key_in r s j) in
      set64 dst !p (if Sys.big_endian then v else swap64 v);
      p := !p + 8
    done;
    k := o + j1
  done

(* Heapsort through the computed places: in place, and closure-free. *)
let rec sift r k n =
  let c = (2 * k) + 1 in
  if c < n then begin
    let c = if c + 1 < n && unsafe_get r (c + 1) > unsafe_get r c then c + 1 else c in
    let x = unsafe_get r k and y = unsafe_get r c in
    if y > x then begin
      unsafe_set r k y;
      unsafe_set r c x;
      sift r c n
    end
  end

(* A run that is not ascending holds at least two keys, so one stays. *)
let sort_unique r =
  if not r.ascending then begin
    let n = r.len in
    for k = (n / 2) - 1 downto 0 do
      sift r k n
    done;
    for m = n - 1 downto 1 do
      let x = unsafe_get r 0 in
      unsafe_set r 0 (unsafe_get r m);
      unsafe_set r m x;
      sift r 0 m
    done;
    let w = ref 1 in
    for k = 1 to n - 1 do
      let x = unsafe_get r k in
      if x <> unsafe_get r (!w - 1) then begin
        unsafe_set r !w x;
        incr w
      end
    done;
    (* the fill resumes after the last key kept *)
    let i = segment_of (!w - 1) in
    r.len <- !w;
    r.seg <- i;
    r.cur <- r.segs.(i);
    r.room <- size i;
    r.pos <- !w - start i;
    r.last <- unsafe_get r (!w - 1);
    r.ascending <- true
  end
