(** Bundles (Nelson-Slivon et al., PPoPP'22): per-link version histories.

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

    A bundle is named by its head, the newest entry, which the owning
    structure keeps in a mutable field of its node and replaces itself
    (one pointer per link, as in {!Vcas_obj}).  Mutators of one bundle
    must already be serialized by the owning structure's node lock;
    readers are lock-free. *)

module Waiting (C : Chain.CELL) : sig
  (** Bundling's labeling on any version whose label word [C] reaches:
      {!Make}'s own entries, or the versions a link keeps among its
      owner's nodes (the Bundling lists' links). *)

  include Chain.LABELING with type 'a t = 'a C.t
  (** [resolve] waits for a pending entry's update to label it. *)

  val label : 'a C.t -> int -> unit
  (** Label a pending entry; see {!Make.label}. *)
end

module Make (T : Hwts.Timestamp.S) : sig
  type 'a entry = 'a Chain.version
  (** The {!Vcas_obj} version record: one block per entry, whose chain
      ends in an entry whose older link is itself. *)

  val first : 'a -> 'a entry
  (** A one-entry bundle labeled immediately (for structure roots created
      before any snapshot). *)

  val pending : 'a -> 'a entry
  (** A one-entry bundle that awaits labeling by the installing update
      (for nodes created inside an operation). *)

  val successor : 'a entry -> 'a -> 'a entry
  (** [successor head target]: a pending entry for [target] whose older
      link is [head], which must already be labeled.  The caller holds
      the node lock, installs it in place of [head], then {!label}s it. *)

  val label : 'a entry -> int -> unit
  (** Label a pending entry.  One update may label several bundles with
      the same timestamp to make a multi-link change atomic. *)

  val value : 'a entry -> 'a
  (** The entry's target, pending or not (elemental-path debugging). *)

  val value_at : 'a entry -> int -> 'a
  (** Target at snapshot [ts]; spins on pending entries; falls back to the
      oldest entry if the whole chain is newer (only reachable-at-[ts]
      bundles may be read, so this is the creation value). *)

  val exists_at : 'a entry -> int -> bool
  (** Whether some entry is labeled [<= ts] — used to detect a traversal
      starting point that did not exist at [ts].  Allocates nothing. *)

  val prune_from : 'a entry -> int -> unit
  (** Drop entries that no snapshot at or after [min_ts] can need (keeps
      the newest entry labeled [<= min_ts] and everything newer).  Caller
      holds the node lock. *)

  val chain_of : 'a entry -> int
  (** Number of retained entries. *)
end
