(** Registry of active range queries.

    Bundled structures prune bundle histories that no active range query
    can still need.  An RQ announces its snapshot timestamp in its thread's
    slot for the duration of the traversal; updates prune entries strictly
    older than the oldest announced snapshot. *)

type t

val create : unit -> t

val announce : t -> read:(unit -> int) -> int
(** Announce the calling thread's RQ and stamp it with [read ()], in that
    order: presence (an accurate active count plus a pending sentinel in
    the slot) is published {e before} the clock is read, so a concurrent
    {!min_active} either sees the announcement — and computes a floor no
    real label can be below — or finished scanning first, in which case
    the snapshot time read afterwards is at least the scanner's own
    label and the floor it computed is safe.  Announcing with a
    previously read timestamp (the old [enter] API) left a window in
    which a floor could outrun an announced-but-unseen RQ.  Returns the
    announced snapshot timestamp. *)

val release : t -> int -> unit
(** Retire the calling domain's announcement that was stamped with the
    given timestamp (the value {!announce} returned), wherever it sits in
    the domain's open set — snapshot handles close out of order.  A stamp
    not currently held is ignored.  A release in LIFO order is O(1). *)

type snap
(** A snapshot handle pinned by this registry: one announce-slot pin plus
    the label its reads resolve against. *)

val snapshot : t -> floor:(unit -> int) -> label:(unit -> int) -> snap
(** Announce with [floor] (a lower bound on [label ()], e.g. the
    provider's [read_floor]), then take the label.  The technique picks
    the label read: vCAS advances the clock ([snapshot]), bundles read it
    ([read]).  If [label] raises, the pin is released and the exception
    propagates.  Release from the same domain with {!snap_release}. *)

val snap_label : snap -> int

val snap_release : t -> snap -> unit
(** Retire the handle's pin.  Idempotent. *)

val min_active : t -> default:int -> int
(** Oldest announced snapshot, or [default] when no RQ is active.  When
    the accurate active count is zero — the common case in update-heavy
    mixes — this is a single shared load and no slot is touched;
    otherwise the scan is bounded by the announcement high-water slot,
    not [Sync.Slot.max_slots]. *)

val min_active_cached : t -> default:int -> int
(** Like {!min_active}, but served from a shared cached floor refreshed by
    a full scan at most once per {!refresh_period} calls per domain (and
    clamped to [default], the caller's own label).  The zero-active early
    exit applies first and returns [default] exactly (not a stale cached
    value), so chains are pruned tight whenever no RQ is in flight.  The
    cache may only {e lag} the true minimum, never lead it: every cached
    value is a lower bound on all current and future announcements, so
    pruning with it is conservative.  The price of staleness is version
    chains up to O(refresh period) entries longer, not correctness. *)

val refresh_period : unit -> int

val set_refresh_period : int -> unit
(** Set the cached-floor staleness knob (>= 1; 1 = scan on every call).
    Default 64. *)

val active_count : t -> int
(** Number of currently announced RQs (one shared load). *)
