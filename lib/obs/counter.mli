(** Per-domain sharded event counter.

    Each thread slot ({!Sync.Slot}) owns one atomic, so the [incr] hot
    path is a fetch-and-add no other domain writes; [sum] folds over
    all slots on the (cold) read path.  Increments are dropped entirely
    when {!Config.enabled} is false. *)

type t

val create : string -> t
val name : t -> string

val incr : t -> unit
(** Add 1 to the calling domain's shard. *)

val add : t -> int -> unit
(** Add [n] (no-op when [n = 0]). *)

val enter : t -> bool
(** Increment the gauge iff the kill switch is on; returns whether it
    counted.  Pair with {!exit} for depth gauges bracketing a section. *)

val exit : t -> entered:bool -> unit
(** Undo a matching {!enter}.  Replays [entered] rather than re-reading
    the kill switch, so a mid-section [Config.set_enabled] flip leaves
    the gauge balanced instead of driving it negative. *)

val sum : t -> int
(** Total across all shards.  Linearizes only against quiescent writers;
    concurrent increments may or may not be included. *)

val reset : t -> unit
