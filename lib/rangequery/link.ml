(* A link that holds its value bare once no snapshot can need its
   history, and a chain of versions while one may: Wei et al.'s
   "avoiding indirection" (Constant-Time Snapshots).  It is the one
   version representation of the library: the vCAS BST's edges, the
   Citrus trees' labeled links, both skip lists' level-0 links and the
   lazy list's bundled link.

   The owner's link value type has the version as one of its own
   constructors, an inline record whose first field is the label:

     | Version of { mutable ts : int; v : 'a t; mutable older : 'a t }

   so a version is one block, and the owner's match tells it from a node
   with no wrapper block between the field and the version.  A version's
   [older] link is what the field held before the write: the previous
   version, or the bare value itself.  A bare value holds at every label
   an open or a future snapshot can have (it was put back bare only at
   or below the floor), so it ends the chain as the value since always.
   A version whose [older] is itself ends the chain as the oldest value
   retained, and no entry older than it exists: a new node's own link,
   or a chain a prune has cut.

   The write, for every owner: install a fresh version whose older link
   is the field's value as read ({!successor}, then {!cas} or
   {!install}), label it (the owner's discipline: vCAS helps, Bundling
   labels from the update), then {!settle}: when the label is at or
   below the cached registry floor, no open or future snapshot can need
   anything the version hides, so a second CAS puts the value back bare;
   otherwise the chain is pruned below the floor.  Readers get a label
   through the discipline too ({!LABELING}: helping or waiting). *)

module type NODE = sig
  type 'a t
  (** A link's value as its owner's field holds it: a node, or a
      version. *)

  val version : int -> 'a t -> 'a t -> 'a t
  (** [version ts v older]: a fresh version block, label first. *)

  val is_version : 'a t -> bool

  val value : 'a t -> 'a t
  (** A version's value, never itself a version. *)

  val older : 'a t -> 'a t
  val set_older : 'a t -> 'a t -> unit
end

(* The label word of a version: field 0 of its block. *)
module type CELL = sig
  type 'a t

  val label : 'a t -> int
  val cas_label : 'a t -> int -> int -> bool
end

(* What a labeling discipline tells a chain walk: how a reader gets the
   label of a version that has none yet (vCAS: it helps label it now;
   Bundling: it waits for the update that installed it), and what to
   count.  {!Vcas_obj.Helping} and {!Bundle.Waiting} are the two. *)
module type LABELING = sig
  type 'a t

  val resolve : 'a t -> int
  val walked : int -> unit
  val pruned : unit -> unit
end

(* Typed atomic access to a version's label.  [%atomic_load] and
   [%atomic_cas] are the primitives behind [Atomic.get] and
   [Atomic.compare_and_set]; they act on field 0 of the block they are
   given, and an [Atomic.t] is nothing but a one-field mutable block.
   Applied to a version they therefore read and CAS [ts] with the same
   ordering guarantees as an [int Atomic.t].  The field holds an
   immediate, so the CAS's write barrier records nothing.  They are only
   ever applied to a version. *)
module Cell (N : NODE) = struct
  type 'a t = 'a N.t

  external label : 'a N.t -> int = "%atomic_load"
  external cas_label : 'a N.t -> int -> int -> bool = "%atomic_cas"
end

module Make (N : NODE) (D : LABELING with type 'a t = 'a N.t) = struct
  module C = Cell (N)

  (* The owner's fields are written through the runtime's CAS on a named
     field (field_cas_stubs.c), with its write barrier.  The owner is a
     node of the same type as the values its fields hold. *)
  external cas : 'a N.t -> int -> 'a N.t -> 'a N.t -> bool = "hwts_cas_field"
  [@@noalloc]

  let label version =
    let ts = C.label version in
    if ts <> 0 then ts else D.resolve version

  (* An unlabeled version of [v] whose older link is [was], the field's
     value as read. *)
  let successor was v = N.version 0 v was

  (* A new node's own link: an unlabeled version of [v] that ends its
     chain, so a snapshot labeled before the write that links the node
     finds no value in it.  That write labels it and settles it. *)
  let pending v =
    let version = N.version 0 v v in
    N.set_older version version;
    version

  (* [install owner field ~was version]: the holder of [owner]'s lock
     makes [version] (a successor of [was]) the link at [field].  [was]
     is bare or labeled: the update that installed it settled it under
     the same lock. *)
  let install owner field ~was version =
    assert ((not (N.is_version was)) || C.label was <> 0);
    let unchanged = cas owner field was version in
    assert unchanged;
    (* fault injection: pending version published, label not yet
       assigned — snapshot readers must wait, not guess *)
    Sync.Pause.point ()

  (* Keep the newest version labeled <= [floor]; sever everything older.
     Unlabeled versions are newer than any labeled one, so keep walking.
     A bare end is one value: nothing below it to cut. *)
  let rec cut version floor =
    let ts = C.label version in
    let older = N.older version in
    if older == version then false
    else if ts <> 0 && ts <= floor then begin
      N.set_older version version;
      true
    end
    else N.is_version older && cut older floor

  (* [settle registry owner field version]: [version], labeled, is (or
     was) the link at [field].  At or below the floor its value goes
     back in bare, unless the field moved on; else its history below the
     floor goes.  The floor is the registry's cached one, which never
     leads the true minimum, and with no snapshot open it is the label
     itself. *)
  let settle registry owner field version =
    let ts = C.label version in
    assert (ts <> 0);
    let floor = Rq_registry.min_active_cached registry ~default:ts in
    if not (ts <= floor && cas owner field version (N.value version)) then
      if cut version floor then D.pruned ()

  (* The current value of a link: a version is labeled on the way
     (readers label the heads they return, so a write installed after it
     gets an equal or later label). *)
  let current link =
    if N.is_version link then begin
      ignore (label link);
      N.value link
    end
    else link

  (* The chain walks are module-level recursions with explicit arguments:
     a nested [let rec] would allocate a closure on every call. *)
  let rec walk version ts hops =
    if label version <= ts then begin
      D.walked hops;
      N.value version
    end
    else
      let older = N.older version in
      if older == version then begin
        D.walked hops;
        N.value version
      end
      else if N.is_version older then walk older ts (hops + 1)
      else begin
        D.walked (hops + 1);
        older
      end

  (* The value at label [ts]: that of the newest version labeled <= [ts];
     the bare end of the chain; or, when the chain ends first, its oldest
     value (only a link reachable at [ts] is read). *)
  let value_at link ts = if N.is_version link then walk link ts 1 else link

  let rec exists version ts =
    label version <= ts
    ||
    let older = N.older version in
    older != version && ((not (N.is_version older)) || exists older ts)

  (* Whether the link holds a value at [ts]: false only for a new node's
     own link read at a label before the write that linked the node. *)
  let exists_at link ts = (not (N.is_version link)) || exists link ts

  let rec count acc version =
    let older = N.older version in
    if older == version then acc
    else if N.is_version older then count (acc + 1) older
    else acc + 1

  (* Values the link retains: 1 for a bare link, one per version plus
     the bare end. *)
  let chain_of link = if N.is_version link then count 1 link else 1
end
