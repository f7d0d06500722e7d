(** vCAS port of the lock-free skip list.

    Level-0 next pointers (which carry both the list order and the deletion
    marks) become {!Link}s labeled by helping ({!Vcas_obj.Helping}): the
    successor itself once no snapshot can need its history, else a
    version chain.  Upper index levels stay raw.  Every membership-changing step — the bottom-level link of an
    insert and the bottom-level mark of a delete — is a single versioned
    CAS, so range queries advance the timestamp and walk level 0 at their
    snapshot.

    The paper applied vCAS (and EBR-RQ) to a skip list, observed no gain
    from hardware timestamps, and omitted the plots; this port exists to
    reproduce exactly that negative result (see the `fig5` bench's
    "omitted" section): the traversal-heavy structure, not the timestamp,
    is the bottleneck at RQ rates the skip list can sustain. *)

module Make (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
  (** Level-0 links and the values they retain, over the head and every
      linked node (a bare link retains one). *)

  val towers : t -> Dstruct.Skip_level.seen list array
  (** Index [l]: the nodes a raw walk of level [l] meets after the head,
      in order.  A probe for tests, at quiescence. *)
end
