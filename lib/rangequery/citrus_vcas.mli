(** vCAS port of the Citrus tree (the other Figure-3 system).

    Each child link has a labeled twin beside the raw link, a {!Link}
    labeled by helping ({!Vcas_obj.Helping}): the child itself once no
    snapshot can need its history, else a version chain.  The lock-based
    update path writes both, unlocked finds follow the labeled links
    (helping), and range queries advance the timestamp
    (the vCAS protocol) and traverse at that snapshot.  The
    successor-relocation delete issues two versioned writes, so a snapshot
    between them can see the relocated key twice — results are therefore
    de-duplicated, matching the original artifact's behaviour.

    Per Figure 3, this port gains from hardware timestamps on read-mostly
    workloads (every RQ advances the shared counter in the logical
    baseline) but less than on the lock-free BST: the structure's own
    locking now bounds the benefit (Section IV). *)

(** [R] supplies the grace mechanism (read sections and
    [wait_until_quiescent]) the relocation delete relies on. *)
module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
  (** Labeled links and the values they retain, over every node (a bare
      link retains one). *)
end
