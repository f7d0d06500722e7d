(** Versioned CAS objects (Wei et al., PPoPP'21), the building block of the
    vCAS range-query technique.

    A [t] replaces a mutable location.  Every successful [cas] pushes a new
    version carrying the written value and a timestamp that starts
    unset and is filled in by {e whichever} thread first needs it
    ("helping") — the fine-grained timestamp-labeling discipline that
    Section IV credits for vCAS's large hardware-timestamp gains: reading
    the clock and labeling the object need not be atomic.

    [read_at] returns the value the object held at a given snapshot time by
    walking the version chain; if the chain is exhausted the oldest
    (creation) value is returned, since an object is only reachable after
    the write that published it. *)

module Make (T : Hwts.Timestamp.S) : sig
  type 'a t
  type 'a version = 'a Chain.version

  (** {2 Heads}

      A chain is named by its head, the newest version.  A caller that
      keeps the head in a mutable field of its own node (one pointer per
      edge, Wei et al.'s shape) drives the chain with these, and CASes
      its field itself; a version whose older link is itself ends the
      chain. *)

  val first : 'a -> 'a version
  (** A one-version chain holding the value, labeled now. *)

  val successor : 'a version -> 'a -> 'a version
  (** [successor expected v]: an unlabeled version holding [v] whose
      older link is [expected].  Install it with a CAS from [expected],
      then {!publish} it. *)

  val publish : 'a version -> unit
  (** Label a just-installed successor (helping: a reader may have
      labeled it first). *)

  val labeled : 'a version -> 'a version
  (** The head itself, labeled (helping) — what a reader must see before
      it uses a head's value. *)

  val value_at : 'a version -> int -> 'a
  (** [value_at head ts]: the value of the newest version labeled
      [<= ts], or the oldest retained value when every version is newer.
      [value_at head max_int] is [value (labeled head)]. *)

  val prune_from : 'a version -> int -> unit
  (** {!prune} for a chain named by its head. *)

  val chain_of : 'a version -> int
  (** {!chain_length} for a chain named by its head. *)

  (** {2 Cells}

      A head in its own [Atomic.t]. *)

  val make : 'a -> 'a t

  val head : 'a t -> 'a version
  (** Current version, with its timestamp initialized (helping). *)

  val value : 'a version -> 'a

  val timestamp : 'a version -> int
  (** The version's label; only meaningful after {!head} returned it. *)

  val read : 'a t -> 'a
  (** [value (head t)]. *)

  val cas : 'a t -> 'a version -> 'a -> bool
  (** [cas t expected v] installs a new version holding [v] iff the current
      head is physically [expected]; labels the new version before
      returning.  Failure means the head moved: re-read and retry. *)

  val cas_with : 'a t -> 'a version -> 'a -> 'a version option
  (** Like {!cas} but returns the installed, labeled version on success —
      callers that need the linearization timestamp of their own write
      (e.g. to record a node's link time) read it with {!timestamp}. *)

  val read_at : 'a t -> int -> 'a
  (** Value at snapshot time [ts]: the newest version labeled [<= ts], or
      the creation value when every version is newer. *)

  val prune : 'a t -> int -> unit
  (** [prune t min_ts] drops versions that no snapshot at or after
      [min_ts] can need: the newest version labeled [<= min_ts] is kept,
      everything older is cut.  Safe concurrently with readers under the
      announce-then-read protocol (callers pass the minimum over announced
      range-query snapshots and their own label). *)

  val chain_length : 'a t -> int
  (** Number of retained versions (tests / memory accounting). *)
end
