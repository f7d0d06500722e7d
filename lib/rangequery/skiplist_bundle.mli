(** Bundled-references port of the lazy skip list (the Figure-5 system).

    Level-0 links carry bundles; upper levels stay raw and are only used
    to locate the range start.  Updates label under the node locks they
    already hold (fine-grained labeling), so with hardware timestamps the
    atomic-increment bottleneck disappears — but, as Figure 5 shows, the
    benefit surfaces only in update-heavy mixes because read-heavy mixes
    are bottlenecked by the skip list itself.  A node is one block, its
    links above level 0 after its fields.  {!Lazylist_bundle} is the
    same lazy skip list with every node at level 0. *)

module Make (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
  (** (bundled links, retained values) over the head and every linked
      node: a probe for tests.  A bare link counts as one value. *)

  val active_rqs : t -> int

  val towers : t -> Dstruct.Skip_level.seen list array
  (** Index [l]: the nodes a raw walk of level [l] meets after the head,
      in order.  A probe for tests, at quiescence. *)
end
