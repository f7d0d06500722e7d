(** Bundled-references port of the Citrus tree (one of the Figure-3
    systems).

    Every child link has a bundled twin, a {!Link} labeled by the update
    ({!Bundle.Waiting}): the child itself once no snapshot can need its
    history, else a bundle.  Updates push a pending entry under the node
    locks they already hold, apply the structural change, advance the
    timestamp and label every entry they created with that one
    timestamp — so even the multi-link successor-relocation delete is a
    single atomic step for snapshots.  Range queries read (never advance)
    the timestamp and traverse the bundles, which is why Bundling shows no
    hardware-timestamp gain on read-only workloads (Fig. 3a) but gains on
    update-heavy ones. *)

(** [R] supplies the grace mechanism (read sections and
    [wait_until_quiescent]) the relocation delete relies on. *)
module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
  (** Bundled links and the values they retain, over every node (a bare
      link retains one). *)
end
