(** First-class snapshot handles and the multi-point query engine.

    The paper's amortization argument is that one timestamp acquisition
    can cover many reads; {!Dstruct.Ordered_set.SNAPSHOT} is the
    per-structure half of that (a [snap] handle plus [lookup_at] /
    [collect_into]).  This module packs structure + handle into one
    existential value, so callers above the structure layer — the
    serving batcher, the harness, the checker — can hold "a captured
    cut of some ordered set" without knowing which implementation or
    provider produced it, and run arbitrarily many point and range
    reads against it with {e zero} further label acquisitions.

    Handles are per-domain (the pin lives in domain-local registry or
    reclamation state): acquire, read and close from the same domain.
    An open handle delays history pruning structure-wide, so hold them
    for a batch, not an epoch.

    Observability: [snapshot.acquires] and [snapshot.reads] counters,
    plus a [snapshot.reads_per_acquire] histogram observed at close —
    the amortization ratio the headline bench gates on.  Tracing emits
    a {!Hwts_trace.Snapshot} span over the handle's lifetime and an
    instant per constituent read. *)

type t
(** A captured cut: one timestamp label, one pin, any ordered set. *)

val acquire : (module Dstruct.Ordered_set.RQ with type t = 'a) -> 'a -> t
(** One label acquisition; release with {!close} from the same domain. *)

val with_snapshot :
  (module Dstruct.Ordered_set.RQ with type t = 'a) -> 'a -> (t -> 'b) -> 'b
(** [acquire] / run / [close], exception-safe ([Fun.protect]). *)

val label : t -> int
(** The cut's timestamp label, in the owning structure's provider
    clock.  Every read below is against this single label. *)

val reads : t -> int
(** Constituent reads performed against this handle so far. *)

val is_open : t -> bool

val close : t -> unit
(** Release the pin.  Idempotent; the reads-per-acquire histogram is
    observed on the first close. *)

(** {2 Multi-point engine} — all reads are against the one captured
    cut; none acquires a label.  Raise [Invalid_argument] on a closed
    handle. *)

val get : t -> int -> bool
(** Membership of one key in the cut. *)

val multi_get : t -> int array -> bool array
(** [multi_get s keys] — membership per key, positionally. *)

val keys : t -> lo:int -> hi:int -> int array
(** Keys of [lo, hi] in the cut, strictly ascending, in a fresh array of
    exactly their number: the structure's [collect_at] result as is. *)

val collect_into : t -> lo:int -> hi:int -> Sync.Key_run.t -> unit
(** {!keys} written into a run made or reset for a span that holds
    [[lo, hi]] instead of an array: the structure's [collect_into], then
    {!Sync.Key_run.sort_unique}, so the run ends strictly ascending and
    nothing is copied. *)

val range : t -> lo:int -> hi:int -> int list
(** {!keys} as a list. *)

val multi_range : t -> (int * int) array -> int array array
(** Per-range {!keys} results, positionally, all from the one cut. *)
