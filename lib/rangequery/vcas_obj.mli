(** Versioned CAS objects (Wei et al., PPoPP'21), the building block of the
    vCAS range-query technique.

    A vCAS object replaces a mutable link.  Its history is a version
    chain named by its head, the newest version, which the caller keeps
    in a mutable field of its own node (one pointer per link, Wei et
    al.'s shape) and CASes itself.  Every successful write installs a
    new version carrying the written value and a timestamp that starts
    unset and is filled in by {e whichever} thread first needs it
    ("helping") — the fine-grained timestamp-labeling discipline that
    Section IV credits for vCAS's large hardware-timestamp gains: reading
    the clock and labeling the object need not be atomic.

    {!value_at} returns the value the object held at a given snapshot
    time by walking the chain; if the chain is exhausted the oldest
    retained value is returned, since an object is only reachable after
    the write that published it.  A version whose older link is itself
    ends the chain. *)

module Helping (T : Hwts.Timestamp.S) (C : Chain.CELL) : sig
  (** Labeling by helping, on any version whose label word [C] reaches:
      {!Make}'s own chain records, or the versions a link keeps among its
      owner's nodes (the vCAS BST's edges). *)

  include Chain.LABELING with type 'a t = 'a C.t
  (** [resolve] labels a version met unlabeled with the current clock
      (the first helper's CAS wins, later ones agree) and returns its
      label. *)

  val publish : 'a C.t -> unit
  (** Label a just-installed version (helping: a reader may have labeled
      it first).  After it returns, its label is the write's
      linearization label. *)
end

module Make (T : Hwts.Timestamp.S) : sig
  type 'a version = 'a Chain.version

  val first : 'a -> 'a version
  (** A one-version chain holding the value, labeled now. *)

  val successor : 'a version -> 'a -> 'a version
  (** [successor expected v]: an unlabeled version holding [v] whose
      older link is [expected].  Install it with a CAS from [expected]
      (which fails if the head moved: re-read and retry), then
      {!publish} it. *)

  val publish : 'a version -> unit
  (** Label a just-installed successor (helping: a reader may have
      labeled it first).  After it returns, {!timestamp} is the write's
      linearization label. *)

  val labeled : 'a version -> 'a version
  (** The head itself, labeled (helping) — what a reader must see before
      it uses a head's value. *)

  val value : 'a version -> 'a

  val timestamp : 'a version -> int
  (** The version's label; only meaningful once it is labeled. *)

  val value_at : 'a version -> int -> 'a
  (** [value_at head ts]: the value of the newest version labeled
      [<= ts], or the oldest retained value when every version is newer.
      [value_at head max_int] is [value (labeled head)]. *)

  val prune_from : 'a version -> int -> unit
  (** [prune_from head min_ts] drops versions that no snapshot at or
      after [min_ts] can need: the newest version labeled [<= min_ts] is
      kept, everything older is cut.  Safe concurrently with readers
      under the announce-then-read protocol (callers pass the minimum
      over announced range-query snapshots and their own label). *)

  val chain_of : 'a version -> int
  (** Number of retained versions (tests / memory accounting). *)
end
