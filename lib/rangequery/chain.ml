(* A version chain: the history of one link, newest version first.  vCAS
   objects ({!Vcas_obj}) and bundles ({!Bundle}) both keep their history
   in one; they differ only in who labels a version (vCAS: any thread
   that needs the label helps; Bundling: the update labels, readers
   wait).

   The label lives in the version itself, as its first field, so a
   traversal step touches the head and the version and nothing else.
   [ts] is never read or written as a record field after allocation:
   only through [label] and [cas_label] below.  [older] is a plain
   field; a version whose [older] is itself ends the chain, so no option
   and no [Atomic.t] sits between two links.  The record is visible
   inside this library, so an owner can tie a sentinel node and its
   self-loop version together with [let rec]. *)
type 'a version = {
  mutable ts : int; (* 0 = not yet labeled *)
  v : 'a;
  mutable older : 'a version;
}

(* Typed atomic access to a version's label.  [%atomic_load] and
   [%atomic_cas] are the primitives behind [Atomic.get] and
   [Atomic.compare_and_set]; they act on field 0 of the block they are
   given, and an [Atomic.t] is nothing but a one-field mutable block.
   Applied to a version they therefore read and CAS [ts] with the same
   ordering guarantees as an [int Atomic.t].  The field holds an
   immediate, so the CAS's write barrier records nothing, and typing the
   externals at ['a version -> int] keeps them off every other field and
   every other type. *)
external label : 'a version -> int = "%atomic_load"
external cas_label : 'a version -> int -> int -> bool = "%atomic_cas"

(* The label word of a version, wherever the version lives: a record of
   this module, or a constructor of an owner's own link type ({!Link}).
   Either way the label is field 0 of the version's block. *)
module type CELL = sig
  type 'a t

  val label : 'a t -> int
  val cas_label : 'a t -> int -> int -> bool
end

module Cell = struct
  type 'a t = 'a version

  let label = label
  let cas_label = cas_label
end

(* What a labeling discipline tells a chain walk: how a reader gets the
   label of a version that has none yet (vCAS: it helps label it now;
   Bundling: it waits for the update that installed it), and what to
   count.  {!Vcas_obj.Helping} and {!Bundle.Waiting} are the two. *)
module type LABELING = sig
  type 'a t

  val resolve : 'a t -> int
  (** The label of a version met unlabeled (0), once it has one. *)

  val walked : int -> unit
  (** A snapshot read walked this many versions of one chain. *)

  val pruned : unit -> unit
  (** A prune cut a chain. *)
end

(* A one-version chain holding [v] with label [ts] (0: not yet labeled). *)
let first ts v =
  let rec version = { ts; v; older = version } in
  version

(* An unlabeled version holding [v] whose older link is [expected]; the
   owner installs it as the new head. *)
let successor expected v = { ts = 0; v; older = expected }

let value version = version.v

(* Keep the newest version labeled <= [min_ts]; sever everything older.
   Unlabeled (ts = 0) versions are newer than any labeled one, so keep
   walking.  True when something was cut. *)
let rec prune_from version min_ts =
  let ts = label version in
  let older = version.older in
  if older == version then false
  else if ts <> 0 && ts <= min_ts then begin
    version.older <- version;
    true
  end
  else prune_from older min_ts

let chain_of head =
  let rec count acc version =
    let older = version.older in
    if older == version then acc else count (acc + 1) older
  in
  count 1 head
