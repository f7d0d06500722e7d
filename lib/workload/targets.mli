(** Registry of benchmarkable structure/technique/timestamp combinations.

    Logical providers are generative (one shared counter per structure
    instance set), so every call with [`Logical] makes a fresh counter —
    exactly the per-structure global timestamp of the original systems.
    [`Hardware_strict] is likewise generative: each call wraps rdtscp in a
    fresh {!Hwts.Timestamp.Strict_sharded} instance (per-structure shared
    defence word, as the strict systems deploy it). *)

type ts =
  [ `Logical
  | `Delayed
  | `Multislot
  | `Tl2
  | `Hardware
  | `Hardware_strict ]

type info = {
  key : ts;
  name : string;
      (** canonical name, as artifacts/series spell it; the [name] of the
          module {!provider_of} builds *)
  aliases : string list;  (** accepted by {!ts_of_name} *)
  doc : string;  (** one line for [--provider] help *)
  label_order : Hwts.Labeling.label_order;
      (** how the snapshot oracle compares this provider's labels:
          {!Hwts.Labeling.epoch_order} for tl2, whose low byte is the
          issuing slot, {!Hwts.Labeling.raw_order} for the rest *)
}
(** One registry row.  Every name-keyed surface — {!ts_name},
    {!ts_of_name}, {!provider_help} — derives from
    {!registry}, so adding a provider is one table entry. *)

val registry : info list

val info_of : ts -> info
(** The provider's registry row. *)

val ts_name : ts -> string
(** ["logical"], ["delayed"], ["multislot"], ["tl2"], ["rdtscp"],
    ["rdtscp-strict"]. *)

val all_ts : ts list

val zoo : ts list
(** The provider zoo that sweeps run by default: logical, delayed,
    multislot, tl2 and rdtscp-strict (the paper's two poles and the
    logical-clock optimizations between them). *)

val ts_of_name : string -> ts option
(** Parse a provider name as CLIs and benches spell it: any canonical
    {!registry} name or alias (["hardware"] = ["rdtscp"], ["sharded"] =
    ["rdtscp-strict"], ["slots"] = ["multislot"]). *)

val provider_of : ts -> (module Hwts.Timestamp.S)
(** A fresh instance of the provider, wrapped in
    {!Hwts.Timestamp.Traced}: the module every structure is built over. *)

val provider_help : unit -> string
(** Multi-line [--provider] help text listing every registry entry with
    its aliases and one-line semantics. *)

type reclaim = [ `Ebr | `Qsbr | `Qsbr_tsc ]
(** Safe-memory-reclamation backend axis, for the structures built over
    {!Hwts_reclaim.Intf.BACKEND} (see {!reclaim_sensitive}). *)

val reclaim_name : reclaim -> string
(** ["ebr"], ["qsbr"], ["qsbr-tsc"]. *)

val all_reclaims : reclaim list

val reclaim_of_name : string -> reclaim option
(** Parse a backend name as CLIs and benches spell it (alias ["tsc"] =
    ["qsbr-tsc"]). *)

val reclaim_help : unit -> string
(** Multi-line [--reclaim] help text. *)

val backend_of : reclaim -> (module Hwts_reclaim.Intf.BACKEND)

val reclaim_sensitive : string -> bool
(** Whether the named structure's behaviour depends on the reclaim axis
    (the EBR-RQ pair and both citrus grace-period variants). *)

type instance = {
  structure : (module Dstruct.Ordered_set.RQ);
  now : unit -> int;  (** reads the same provider the structure labels with *)
  provider : string;  (** {!ts_name} of the provider in use *)
  reclaim : string;  (** {!reclaim_name} of the backend in use *)
}
(** A built structure together with a reader for its own timestamp
    provider.  [now] and the labels returned by the structure's
    [range_query_labeled] are values of one clock, so the two may be
    compared — the invariant history-based checkers depend on. *)

val instance : ?reclaim:reclaim -> string -> ts -> instance
(** [instance name ts] builds the named structure over the given provider
    and reclamation backend (default [`Ebr], the historical protocol).
    Raises [Invalid_argument] on an unknown name; every structure runs
    over every provider and backend. *)

val all_instances : (string * (reclaim -> ts -> instance)) list

val bst_vcas : ts -> (module Dstruct.Ordered_set.RQ)
val citrus_vcas : ts -> (module Dstruct.Ordered_set.RQ)
val citrus_bundle : ts -> (module Dstruct.Ordered_set.RQ)
val citrus_ebrrq : ts -> (module Dstruct.Ordered_set.RQ)
val skiplist_bundle : ts -> (module Dstruct.Ordered_set.RQ)
val skiplist_vcas : ts -> (module Dstruct.Ordered_set.RQ)
val lazylist_bundle : ts -> (module Dstruct.Ordered_set.RQ)

val bst_vcas_kv : ts -> (module Dstruct.Ordered_set.RQ)
(** The key-value BST run as a set of unit bindings. *)

val bst_ebrrq_lockfree : ts -> (module Dstruct.Ordered_set.RQ)

val all : (string * (ts -> (module Dstruct.Ordered_set.RQ))) list
(** Every benchmarkable structure, over every provider. *)

val preferred_key_range : string -> default:int -> int
(** Key range for cross-structure sweeps: the default, except capped for
    structures whose operations are linear in it (the lazy list). *)
