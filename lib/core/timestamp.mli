(** The timestamp API of Section II-C.

    A timestamp provider hands out monotonically increasing integers used
    by range-query techniques to order updates against bulk reads.  The
    paper's entire intervention is swapping one provider for another in
    otherwise unchanged algorithms, so providers here share one signature
    and the algorithms are functors over it.

    Two operations cover all three studied techniques:

    - [advance] obtains a fresh timestamp, ordering the caller after every
      operation already labeled: a logical provider does an atomic
      fetch-and-add (the global point of contention), a hardware provider
      executes [RDTSCP; LFENCE] (contention-free).
    - [read] observes the current timestamp without claiming a new one:
      atomic load vs. the same fenced TSC read.

    Hardware timestamps are monotone but not strictly increasing across
    cores: [advance] may return the same value to two threads (the "tie"
    corner case of Section III-A).  {!Strict_sharded} recovers strict
    increase without a shared-word CAS on the common path. *)

module type S = sig
  val name : string
  (** Display name, e.g. ["logical"] or ["rdtscp"]. *)

  val is_hardware : bool
  (** True when [advance] touches no shared memory. *)

  val read : unit -> int
  (** Observe the current timestamp. *)

  val read_floor : unit -> int
  (** A staleness-bounded lower bound on {!read}, for call sites that
      need a monotone floor rather than an ordered observation (registry
      pruning thresholds, bundle creation stamps): hardware providers
      serve it from the fence-amortized {!Tsc.read_cached} cache, shared-
      word providers from a plain load.  Never a linearization point —
      a stale-low floor only makes pruning more conservative. *)

  val advance : unit -> int
  (** Obtain a fresh labeling/linearization timestamp. *)

  val snapshot : unit -> int
  (** Obtain a snapshot time [s] such that every label assigned after this
      call is [> s] (logical: fetch-and-add returning the pre-increment
      value, the vCAS/EBR-RQ protocol) or [>= s] with equality only within
      the same cycle (hardware).  Range queries that advance the clock
      must use this, not {!advance}: with a logical clock, [advance]'s
      post-increment value equals the label of every update racing with
      the traversal, which tears snapshots. *)
end

module Logical () : S
(** A fresh logical (software) timestamp: one shared atomic counter,
    [advance] = fetch-and-add, starting at 1 (0 is reserved by consumers
    as an "unlabeled" sentinel). *)

module Hardware : S
(** TSC via [RDTSCP; LFENCE] (Listing 1). *)

module Strict_sharded (T : S) () : S
(** The strict TSC provider: strictly increasing labels over [T] without
    a shared-word CAS on the common path.  The low 8 bits of every label
    carry the issuing domain's {!Sync.Slot} id, so labels from different
    domains can never collide, and within-domain ties are bumped with
    domain-local state only.  A shared word is read once per advance (and
    written only when a skewed clock left this domain behind) to
    preserve cross-domain monotonicity.  Labels are the hardware stamp
    shifted left by 8, so they are ordered consistently with, but not
    numerically equal to, raw [T] stamps.  Named [T.name ^ "-strict"];
    counts [timestamp.strict.advances], [timestamp.strict.ties] (a stamp
    not above the domain's previous one, bumped) and
    [timestamp.strict.catchups] (a label stepped past the shared word). *)

module Delayed () : S
(** Delayed-increment logical clock (flock's [timestamp_read]): [advance]
    loads the shared stamp, spins a per-domain tuned delay, and increments
    (CAS) only if nobody else moved it meanwhile — racers of one window
    share the label, so under contention the line takes one write per
    window instead of one per advance.  The delay starts at 1 spin,
    halves on a CAS win and doubles (capped at 256) when the stamp moved
    underfoot.  Labels tie across domains exactly like hardware-stamp
    ties, and are strict per domain.  Generative: one counter per
    instance. *)

module Multislot () : S
(** Summed multi-slot logical clock (flock's [timestamp_multiple]): 4
    slots, the stamp is their sum, and each domain fetch-and-adds only
    its own slot — write contention on a slot drops by 1/4 while every
    increment still moves the global stamp.
    Reads sum the slots with a bounded double-collect (two equal
    consecutive passes prove an instantaneous value; single sequential
    passes are still valid monotone bounds because slots never
    decrease).
    [advance] applies the delayed-increment discipline on top (a 64-spin
    wait before the own-slot increment).  Generative. *)

module Tl2 () : S
(** TL2-style stamp (verlib): one shared word holding
    [(epoch lsl 8) lor last-writer-slot].  A domain whose previous label
    came from an older epoch reuses the current one with {e no shared
    write at all} — its slot id in the low bits keeps the label unique —
    and only a domain that already labeled in the current epoch bumps it
    (one CAS, losers adopt the winner's).  [snapshot] closes the current
    epoch and returns its top, so later labels order strictly above.
    Labels are raw-int comparable; across domains within one epoch the
    low bits order by slot id — an arbitrary but fixed tie-break
    ({!Labeling.epoch_order}).  Generative. *)

module Traced (T : S) : S
(** [T] with every [advance]/[snapshot] bracketed in an
    {!Hwts_trace.Acquire} span (one branch each when tracing is off or
    the current op unsampled).  [read]/[read_floor] pass through
    untouched.  Applied by [Workload.Targets] so every provider's label
    acquisition shows up in phase traces. *)

module Mock () : sig
  include S

  val set : int -> unit
  (** Force the next values: [read] returns the set value, [advance]
      returns and then auto-increments it. *)

  val freeze : unit -> unit
  (** Stop auto-incrementing: every [advance] returns the same value,
      simulating a burst of TSC ties. *)

  val thaw : unit -> unit
end
(** Deterministic provider for tests and failure injection. *)
