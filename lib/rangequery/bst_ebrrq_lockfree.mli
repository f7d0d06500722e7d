(** Lock-free EBR-RQ (Arbel-Raviv & Brown) over the Natarajan–Mittal BST.

    The tree is the one {!Bst_vcas} runs on; only the labeling differs.
    Each leaf carries its insertion and deletion times, labeled by
    helping as vCAS labels a version: any thread that meets a time it
    must judge still at 0 CASes in [T.read ()].  A snapshot advances the
    clock, so every label a helper reads after it lands above it, and
    reads judge a leaf only on a time no helper can still lower below the
    snapshot.  No step needs the timestamp's address, so it runs over
    every provider; the paper's DCSS labeling needs that address and so
    cannot use the TSC (Section IV).

    A deleter announces the leaf it will flag before the flag and clears
    the announcement after retiring the leaf; range queries walk the
    tree, then the announcements, then the reclaimer's limbo lists, so a
    leaf that another update spliced out before its deleter retired it is
    still found. *)

(** [R] supplies the safe-memory-reclamation backend the leaves retire
    through ({!Hwts_reclaim.Ebr_backend} for the original per-op EBR
    protocol, the QSBR backends for boundary-announcement schemes); the
    range-query limbo recovery works unchanged against any of them. *)
module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) : sig
  include Dstruct.Ordered_set.RQ

  val limbo_size : t -> int
end
