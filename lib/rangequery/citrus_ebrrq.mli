(** Lock-based EBR-RQ port of the Citrus tree (the Figure-4 system).

    The tree is the one citrus-vcas and citrus-bundle run; only the
    labels differ.  A node carries its insertion timestamp; a deleted
    node is retired, with its deletion timestamp, into the reclamation
    backend's limbo lists, then marked.  A range query advances the
    timestamp while holding a global readers-writer lock in exclusive
    mode, then scans the structure, skipping marked nodes, {e and} the
    limbo lists, keeping keys whose [itime <= ts < dtime] window covers
    its snapshot.  Updates label nodes while holding the same lock in
    shared mode, which makes "read the timestamp" and "write it into the
    node" atomic with respect to range queries — the coarse-grained
    timestamp labeling of Section IV.

    That rwlock is the point of this port: even with hardware timestamps,
    every operation still hits one contended word, so TSC brings little
    (Figures 4a–4d), and the throughput collapses once threads span
    hyperthreads/NUMA in the timing model. *)

(** [R] supplies the safe-memory-reclamation backend: it protects the
    unlocked traversals (read sections), provides the two-children
    delete's grace wait, and holds the limbo lists range queries recover
    deleted nodes from. *)
module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val limbo_size : t -> int
  val reclaimed : t -> int

  type limbo
  (** One slot's limbo list, newest cell first. *)

  val limbo : t -> int -> limbo
  (** Slot [i]'s list, as a range query's recovery reads it. *)

  val recover : limbo -> int -> lo:int -> hi:int -> Sync.Key_run.t -> unit
  (** Push the keys in [lo..hi] of the list's cells that hold their key
      at the label, as a range query's recovery does; a freed cell among
      them counts a [reclaim.poison_hits]. *)
end
