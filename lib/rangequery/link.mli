(** The bare-or-versioned link: the one version representation of the
    range-query structures.

    A link is a mutable field of its owner's node.  It holds its value
    itself (bare) once no open or future snapshot can need its history,
    and the head of a version chain while one may.  A version is a
    constructor of the owner's own node type, one block whose first field
    is its label:

    {[
      | Version of { mutable ts : int; v : 'a t; mutable older : 'a t }
    ]}

    so a link never adds a wrapper block between a node and its child.
    A version's [older] link is what the field held before the write: the
    previous version, or the bare value, which holds at every label a
    snapshot can still have.  A version whose [older] is itself ends the
    chain: a new node's own link, or a chain a prune has cut.

    Who labels a version is the one thing the structures differ in
    ({!LABELING}): vCAS readers help label it ({!Vcas_obj.Helping}),
    Bundling updates label it and readers wait ({!Bundle.Waiting}). *)

(** The owner's view of a link's value: a node, or a version. *)
module type NODE = sig
  type 'a t

  val version : int -> 'a t -> 'a t -> 'a t
  (** [version ts v older]: a fresh version block, label first. *)

  val is_version : 'a t -> bool

  val value : 'a t -> 'a t
  (** A version's value, never itself a version. *)

  val older : 'a t -> 'a t
  val set_older : 'a t -> 'a t -> unit
end

(** The label word of a version (0: not yet labeled). *)
module type CELL = sig
  type 'a t

  val label : 'a t -> int
  val cas_label : 'a t -> int -> int -> bool
end

(** What a labeling discipline tells a chain walk. *)
module type LABELING = sig
  type 'a t

  val resolve : 'a t -> int
  (** The label of a version met unlabeled (0), once it has one: vCAS
      helps label it now, Bundling waits for its update. *)

  val walked : int -> unit
  (** A snapshot read walked this many versions of one chain. *)

  val pruned : unit -> unit
  (** A prune cut a chain. *)
end

module Cell (N : NODE) : CELL with type 'a t = 'a N.t
(** The label word of the owner's versions, read and CASed as field 0 of
    the version's block with [Atomic] ordering. *)

module Make (N : NODE) (D : LABELING with type 'a t = 'a N.t) : sig
  external cas : 'a N.t -> int -> 'a N.t -> 'a N.t -> bool = "hwts_cas_field"
  [@@noalloc]
  (** [cas owner field expected v]: the runtime's CAS on field [field] of
      [owner]'s block, with its write barrier (field_cas_stubs.c). *)

  val successor : 'a N.t -> 'a N.t -> 'a N.t
  (** [successor was v]: an unlabeled version of [v] whose older link is
      [was], the field's value as read (bare, or a labeled version).
      Install it with {!cas} (lock-free owners) or {!install}, label it,
      then {!settle} it. *)

  val pending : 'a N.t -> 'a N.t
  (** A new node's own link: an unlabeled version of the value that ends
      its chain, so a snapshot labeled before the write that links the
      node finds no value in it ({!exists_at}).  Label it no earlier than
      that write's label, then {!settle} it. *)

  val install : 'a N.t -> int -> was:'a N.t -> 'a N.t -> unit
  (** [install owner field ~was version]: the holder of [owner]'s lock
      makes [version], a successor of [was], the link at [field]. *)

  val settle : Rq_registry.t -> 'a N.t -> int -> 'a N.t -> unit
  (** [settle registry owner field version]: [version], labeled, is (or
      was) the link at [field].  When its label is at or below the
      registry's cached floor, the value goes back in bare (unless the
      field moved on); otherwise the chain is cut below the floor. *)

  val current : 'a N.t -> 'a N.t
  (** The current value of a link, labeling a version on the way. *)

  val value_at : 'a N.t -> int -> 'a N.t
  (** The value at label [ts]: that of the newest version labeled
      [<= ts], or the chain's oldest value when the chain ends first.  A
      bare link is its value at every label. *)

  val exists_at : 'a N.t -> int -> bool
  (** Whether the link holds a value at [ts]: false only for a new node's
      own link read at a label before the write that linked the node. *)

  val chain_of : 'a N.t -> int
  (** Values the link retains: 1 for a bare link, one per version plus
      the bare end. *)
end
