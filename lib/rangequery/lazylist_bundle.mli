(** Bundled-references port of the lazy list: {!Skiplist_bundle}'s lazy
    skip list with every node at level 0, one 5-word block per key.

    The paper tested this combination and omitted it from the figures: the
    O(n) traversal dominates, so hardware timestamps bring no speedup.  We
    keep it to reproduce that negative result (see the `lazylist` bench). *)

module Make (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
  (** (bundled links, retained values) over the head and every linked
      node: a probe for tests.  A bare link counts as one value. *)

  val active_rqs : t -> int
end
