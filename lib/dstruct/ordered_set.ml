(** Common signatures for the concurrent ordered sets in this repository.

    All structures store integer keys.  Keys must lie strictly between
    [min_key] and [max_key]; the excluded extremes are reserved for
    sentinels. *)

let min_key = min_int + 8
let max_key = max_int - 8

module type S = sig
  type t

  val name : string
  val create : unit -> t

  val insert : t -> int -> bool
  (** [insert t k] adds [k]; false if already present. *)

  val delete : t -> int -> bool
  (** [delete t k] removes [k]; false if absent. *)

  val contains : t -> int -> bool

  val to_list : t -> int list
  (** Sorted contents.  Quiescent use only (tests, debugging). *)

  val size : t -> int
  (** Quiescent use only. *)
end

(** The snapshot core: the one read primitive each range-query structure
    writes for itself.  A snapshot takes one timestamp label; every read
    against it resolves at that label (Wei et al., constant-time
    snapshots).  [collect_at] and the range queries are derived from it
    by {!Ranges}. *)
module type SNAPSHOT = sig
  include S

  type snap
  (** A constant-time snapshot handle: one timestamp label plus whatever
      pin (RQ-registry announce slot, reclamation op section) keeps the
      structure from pruning history the label still needs.  Acquiring
      one costs a single label acquisition; every read against it costs
      zero further acquisitions. *)

  val snapshot : t -> snap
  (** Acquire a snapshot handle.  Must be released with {!snap_release}
      from the {e same domain} (the pin lives in per-domain state); reads
      may come from any domain.  Holding a handle delays history pruning
      structure-wide; release promptly. *)

  val snap_label : snap -> int
  (** The timestamp label of the captured cut, in the structure's own
      provider clock (compare it only against values read from that same
      provider) — the claim the snapshot oracle in [lib/check] validates. *)

  val snap_release : t -> snap -> unit
  (** Release the handle's pin.  Idempotent; reads against a released
      handle are undefined. *)

  val lookup_at : t -> snap -> int -> bool
  (** Membership of one key in the snapshot's cut — the abstract set at
      {!snap_label} — with no label acquisition. *)

  val collect_into : t -> snap -> lo:int -> hi:int -> Sync.Key_run.t -> unit
  (** Push the keys of [lo, hi] in the snapshot's cut into a run made or
      reset for a span that holds [lo, hi]; no label acquisition.  The
      pushes ascend, but for keys a read meets twice (a Citrus
      relocation seen half done) or recovers after its walk (EBR-RQ's
      announced and limbo nodes): {!Sync.Key_run.sort_unique} gives the
      answer. *)

  val quiesce : t -> unit
  (** Announce a reclamation quiescence point: the calling domain holds
      no reference into [t] (between ops — harness-loop and serve-batch
      boundaries).  No-op for structures whose reclamation scheme does
      not use quiescence announcements. *)

  val offline : t -> unit
  (** Stop participating in [t]'s reclamation grace protocol; call when
      a domain is done operating on [t].  Idempotent; any later op
      re-onlines the domain.  No-op where [quiesce] is. *)
end

module type RQ = sig
  include SNAPSHOT

  val collect_at : t -> snap -> lo:int -> hi:int -> int array
  (** Keys of [lo, hi] in the snapshot's cut, strictly ascending, in a
      fresh array of exactly their number: {!collect_into} this domain's
      scratch run, then one copy. *)

  val range_query : t -> lo:int -> hi:int -> int array
  (** Linearizable snapshot of the keys in [lo, hi], strictly ascending,
      as {!collect_at} returns them. *)

  val range_query_labeled : t -> lo:int -> hi:int -> int * int array
  (** [range_query] plus the label of the snapshot it read. *)
end

(* One collection run per domain, shared by every structure: a read
   fills it, and the answer is copied out before the next read. *)
let scratch = Sync.Scratch.make (fun () -> Sync.Key_run.make ~lo:0 ~hi:0)

(** This domain's scratch run, emptied for keys of [lo, hi].  Valid
    until the domain's next call. *)
let scratch_run ~lo ~hi =
  let r = Sync.Scratch.get scratch in
  Sync.Key_run.reset r ~lo ~hi;
  r

(** [read_labeled ~snapshot ~snap_label ~snap_release read t ~lo ~hi]
    takes a snapshot, runs [read] against it, releases it on both exits
    (propagating any exception) and returns the label with the result.
    No [Fun.protect] closure: the handle is the only allocation beyond
    the result.  {!Ranges} is this function applied to a core; a
    value-polymorphic map, which no functor over [SNAPSHOT] can take,
    calls it directly. *)
let read_labeled ~snapshot ~snap_label ~snap_release read t ~lo ~hi =
  let s = snapshot t in
  match read t s ~lo ~hi with
  | r ->
    snap_release t s;
    (snap_label s, r)
  | exception e ->
    snap_release t s;
    raise e

(** The read entry points every structure derives from its core:
    [collect_at] written once over [collect_into], and the ranges. *)
module Ranges (C : SNAPSHOT) = struct
  let collect_at t s ~lo ~hi =
    let r = scratch_run ~lo ~hi in
    C.collect_into t s ~lo ~hi r;
    Sync.Key_run.sort_unique r;
    Sync.Key_run.to_array r

  let range_query_labeled t ~lo ~hi =
    read_labeled ~snapshot:C.snapshot ~snap_label:C.snap_label
      ~snap_release:C.snap_release collect_at t ~lo ~hi

  let range_query t ~lo ~hi = snd (range_query_labeled t ~lo ~hi)
end
