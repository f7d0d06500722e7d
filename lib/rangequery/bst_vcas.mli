(** vCAS-augmented lock-free external BST (the Figure-2 system).

    The Natarajan–Mittal tree ([Bst_vcas_core], shared with
    {!Bst_vcas_kv}) with every child edge replaced by a {!Vcas_obj}
    object in a mutable field of the parent node: the edge's node itself
    once no open snapshot needs the edge's history, else the head of its
    version chain.  Every update linearizes at exactly one versioned CAS
    (a flag or tag changes nothing a reader sees), so a snapshot
    that fixes a time [ts] (advancing the timestamp, per vCAS's protocol)
    and traverses the tree at [ts] sees a consistent cut without locks.

    The snapshot handle is also the time-travel primitive: an open handle
    pins the versions its label needs, so [collect_at] and [lookup_at]
    keep answering for that instant — from any domain — while updates
    continue, until [snap_release].  Range queries are derived from it
    ({!Dstruct.Ordered_set.Ranges}).

    Instantiate with {!Hwts.Timestamp.Logical} for the baseline or
    {!Hwts.Timestamp.Hardware} for the TSC port — the code is identical,
    which is the paper's drop-in-replacement claim. *)

module Make (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
  (** (number of edges sampled, total retained versions) along the leftmost
      spine — a cheap memory-pressure probe for tests.  A bare edge
      counts as one version. *)
end
