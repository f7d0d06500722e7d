(** Bundles (Nelson-Slivon et al., PPoPP'22): per-link version histories,
    Bundling's labeling of a {!Link}.

    A bundle records the history of one link as a chain of entries, newest
    first, each labeled with the timestamp of the update that installed it.
    Entries are born {e pending} (ts = 0) inside the update's critical
    section, the structural change is applied, and only then is the entry
    labeled — with [advance ()], since in Bundling the {e updates} advance
    the timestamp.  This "fine structural-lock" labeling is what lets
    Bundling profit from hardware timestamps (Section IV).

    Range queries read the timestamp (no advance) and follow, at each
    bundle, the newest entry labeled at or before their snapshot, spinning
    briefly on pending entries exactly as the original protocol does.
    Mutators of one bundle must already be serialized by the owning
    structure's node lock; readers are lock-free. *)

module Waiting (C : Link.CELL) : sig
  (** Bundling's labeling on the versions a link keeps among its owner's
      nodes. *)

  include Link.LABELING with type 'a t = 'a C.t
  (** [resolve] waits for a pending entry's update to label it. *)

  val label : 'a C.t -> int -> unit
  (** Label a pending entry with its update's timestamp.  One update may
      label several entries with the same timestamp to make a multi-link
      change atomic. *)
end
