(** A run of keys collected by one range read of [[lo, hi]].

    Each key is stored as its offset from [lo]: in 4 bytes when
    [hi - lo] is in [[0, 2^32)], in 8 bytes otherwise (the overflowing
    difference of [lo = min_int], [hi = max_int] takes 8).  The run is
    a list of segments whose sizes double from 64 up to 8192 keys and
    stay at 8192 from then on: growth allocates a segment at the run's
    width and copies nothing, so a run grown to [n] keys holds fewer
    than [n + 8192] key slots, and {!reset} keeps the segments for the
    next fill.  A fresh run allocates nothing until its first push. *)

type t

val make : lo:int -> hi:int -> t
(** An empty run for keys of [[lo, hi]]. *)

val reset : t -> lo:int -> hi:int -> unit
(** Empty the run for keys of [[lo, hi]], keeping its segments. *)

val width : t -> int
(** Bytes a key: 4 or 8. *)

val length : t -> int

val push : t -> int -> unit
(** Append a key.  Raises [Invalid_argument] on a 4-byte run if the key
    is outside the span the run was made for. *)

val get : t -> int -> int
(** [get r i]: the [i]-th key, in push order. *)

val blit : t -> int array -> int -> unit
(** [blit r dst pos] writes the keys, in push order, into [dst] from
    [pos]. *)

val to_array : t -> int array
(** The keys in push order (ascending after {!sort_unique}), in a fresh
    array of exactly {!length} slots; allocates nothing else. *)

val sort_unique : t -> unit
(** Sort the run and drop its duplicates in place, allocating nothing:
    the run is then strictly ascending, and takes further pushes after
    its last key.  A no-op when every push was above the one before
    it. *)

val blit_be : t -> first:int -> count:int -> Bytes.t -> int -> unit
(** [blit_be r ~first ~count dst pos] writes keys [[first, first +
    count)] as 8-byte big-endian integers into [dst] from [pos], with no
    allocation. *)
