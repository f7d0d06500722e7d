(** Key-value variant of the vCAS lock-free BST.

    The paper motivates range queries with key-value stores; this is the
    map the set-based {!Bst_vcas} implies, and the same tree
    ([Bst_vcas_core]).  Values live in leaves, and an update-in-place is
    one versioned CAS that swaps the whole leaf — so every operation
    (including [set] over an existing key) keeps the
    single-linearizing-write property that makes snapshots consistent.

    Same timestamp discipline as {!Bst_vcas}: updates label by helping, a
    snapshot fixes its cut with [T.snapshot ()], and histories are pruned
    under the active-RQ registry.  The snapshot handle is the one read
    primitive: an open handle pins the past for time-travel reads from
    any domain, and the range entry points are derived from it.

    Keys are below [max_int - 2]: the three keys above are the tree's
    sentinels, which no read reports present. *)

module Make (T : Hwts.Timestamp.S) : sig
  type 'v t

  val name : string
  val create : unit -> 'v t

  val set : 'v t -> int -> 'v -> unit
  (** Insert or overwrite. *)

  val add : 'v t -> int -> 'v -> bool
  (** Insert only; false if the key exists (value untouched). *)

  val remove : 'v t -> int -> bool
  val find : 'v t -> int -> 'v option
  val mem : 'v t -> int -> bool

  val to_alist : 'v t -> (int * 'v) list
  (** Quiescent use only. *)

  val keys : 'v t -> int list
  (** The keys of [to_alist], without building the pairs. *)

  val size : 'v t -> int

  type snap
  (** Snapshot handle (the value-carrying analogue of
      {!Dstruct.Ordered_set.SNAPSHOT}): acquire and release from one
      domain; any number of point and range reads against the captured
      cut, from any domain, with zero further label acquisitions. *)

  val snapshot : 'v t -> snap
  val snap_label : snap -> int

  val snap_release : 'v t -> snap -> unit
  (** Idempotent. *)

  val lookup_at : 'v t -> snap -> int -> 'v option
  (** The binding of one key in the snapshot's cut. *)

  val mem_at : 'v t -> snap -> int -> bool
  (** [lookup_at t s k <> None], without the option. *)

  val collect_at : 'v t -> snap -> lo:int -> hi:int -> (int * 'v) list
  (** The bindings of [lo, hi] in the snapshot's cut, ascending. *)

  val keys_into : 'v t -> snap -> lo:int -> hi:int -> Sync.Key_run.t -> unit
  (** Push the keys of [collect_at] into a run, without building the
      pairs ({!Dstruct.Ordered_set.SNAPSHOT.collect_into}). *)

  val range_query : 'v t -> lo:int -> hi:int -> (int * 'v) list
  (** Linearizable snapshot of the bindings in [lo, hi], ascending:
      snapshot, [collect_at], release. *)

  val range_query_labeled : 'v t -> lo:int -> hi:int -> int * (int * 'v) list
  (** [range_query] plus the label of the snapshot it read, in the
      provider's clock. *)
end
