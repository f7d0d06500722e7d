(** Binary wire protocol for [hwts-serve].

    Every frame is a 4-byte big-endian length prefix followed by that many
    payload bytes; the payload's first byte is the opcode.  Integers are
    8-byte big-endian two's complement (OCaml [int] range), counts are
    4-byte big-endian.  A [Batch] carries a count and the concatenated
    payloads of its sub-requests — batches do not nest, and the response
    to a batch is an [Rbatch] of the sub-responses in submission order.
    Every payload is self-delimiting, so any member of an [Rbatch] may be
    an [Err] (whose message carries a 4-byte length).

    The codec is strict: a length prefix of zero or above {!max_payload},
    an unknown opcode, a truncated payload, trailing bytes after a
    well-formed body, or a nested batch all raise {!Malformed}.  A frame
    whose prefix has not fully arrived simply waits — the decoder is
    incremental, so pipelined frames can be fed in arbitrary chunks. *)

type request =
  | Get of int
  | Insert of int
  | Delete of int
  | Range of int * int  (** [lo, hi], inclusive *)
  | Batch of request array  (** no nested batches *)
  | Ping
  | MultiGet of int array
      (** membership of every key against one captured snapshot cut;
          answered with {!Bools} under a single label *)
  | MultiRange of (int * int) array
      (** every [(lo, hi)] range against one captured snapshot cut;
          answered with {!Keyss} under a single label *)

type response =
  | Bool of bool  (** Get/Insert/Delete result *)
  | Keys of int * int array
      (** snapshot label (in the server structure's clock), then the keys *)
  | Rbatch of response array
  | Pong
  | Err of string
  | Bools of int * bool array
      (** snapshot label, then per-key membership, positionally *)
  | Keyss of int * int array array
      (** snapshot label, then per-range sorted keys, positionally *)

val max_payload : int
(** Upper bound on a frame's payload size (16 MiB). *)

exception Malformed of string

val request_size : request -> int
(** The payload size of [request]'s frame, in bytes: the frame is the
    4-byte length prefix and this many bytes.  Plain arithmetic over
    array lengths; raises [Invalid_argument] on a nested batch. *)

val response_size : response -> int

(** {2 Point batches and answers from pieces}

    The server's forms: {!next_incoming} packs a [Batch] of point ops,
    and an {!answer} is one [response]'s frame written from its pieces.
    {!blit_answer} is the one response writer; an in-process caller reads
    an answer back from its frame ({!read_back}). *)

type points
(** A [Batch]'s members packed, 9 bytes each, in chunks of at most 256
    words (young blocks), with one answer mark each ({!no} at first).
    {!pack} packs any member that is not a point op as opcode 0, key 0,
    {!member} [Ping]. *)

val pack : request array -> points
val length : points -> int

val op : points -> int -> int
(** Member [i]'s opcode: {!op_get}, {!op_insert}, {!op_delete}, or 0 for
    a member that is not a point op. *)

val op_get : int
val op_insert : int
val op_delete : int
val key : points -> int -> int
val member : points -> int -> request

(** Member [i]'s mark says how it answers: {!no} [Bool false], {!yes}
    [Bool true], {!next} the next of the others in order, {!refused}
    {!stopping}. *)

val no : int
val yes : int
val next : int
val refused : int
val mark : points -> int -> int
val set_mark : points -> int -> int -> unit

val stopping : response
(** [Err "server stopping"]: a refused request's answer. *)

type answer =
  | Whole of response
  | Parts of int * Sync.Key_run.t array
      (** [Keys (label, keys)], [keys] the parts' concatenation: each
          part a strictly ascending run, written at the window with no
          copy of its own *)
  | Marks of points * response array
      (** [Rbatch], member [i] answered by its {!mark} *)

val answer_size : answer -> int

type cursor
(** Where the last window of a frame stopped among its members. *)

val cursor : unit -> cursor

val blit_answer :
  cursor -> int * answer -> src:int -> Bytes.t -> int -> int -> unit
(** [blit_answer c (n, a) ~src dst pos len] writes bytes
    [[src, src + len)] of answer [a]'s frame into [dst] at [pos], [n]
    being [answer_size a], computed once by the caller, so an answer
    streams through a fixed buffer with no frame of its own.  A cursor
    kept across a frame's consecutive windows (one at [src = 0] resets
    it) starts each at the member of [Parts], [Marks] or a
    [Whole (Keyss _)] the last one stopped in, so such a frame costs
    O(bytes + members) in all and a window allocates nothing.  A
    [Whole (Rbatch _)] (the server answers every batch as [Marks]) and a
    [Keyss] among a batch's others walk their members from the start in
    each window they span.  Raises [Invalid_argument] on [n] above
    {!max_payload} or a bad window. *)

val encode_request : Buffer.t -> request -> unit
(** Append one framed request: the 4-byte length prefix and
    [request_size request] bytes, written by one pass.  Raises
    [Invalid_argument] on a nested batch or a payload above
    {!max_payload}, before allocating. *)

val encode_response : Buffer.t -> response -> unit
(** Append one framed response, written by {!blit_answer} as one window
    over [Whole response]; raises as {!encode_request} does. *)

(** Incremental decoder: feed raw bytes, pull complete frames.  A buffer
    grown past 64 KiB for a frame larger than that returns to 4 KiB once
    the frame is decoded and 4 KiB holds what is left; one grown by many
    smaller frames that arrived together keeps its size. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> int -> unit
(** [feed d buf off len] appends [len] bytes starting at [off]. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by a decoded frame. *)

val next_request : decoder -> request option
(** The next complete request frame, or [None] if more bytes are needed.
    Raises {!Malformed} on protocol violations.  {!next_incoming}
    unpacked. *)

type incoming = Request of request | Points of points

val next_incoming : decoder -> incoming option
(** {!next_request}'s one parser: a [Batch] whose members are all
    Get/Insert/Delete comes as [Points], copied out of the frame with no
    request per member; any other frame as [Request]. *)

val next_response : decoder -> response option

val read_back : int * answer -> response
(** What a client parses from a sized answer's frame: the frame
    {!blit_answer} writes, read by {!next_response}'s parser. *)
