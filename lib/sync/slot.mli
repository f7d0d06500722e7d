(** Per-thread slot registry.

    Substrates that keep per-thread state (RCU reader epochs, EBR limbo
    lists) index fixed-size arrays by a small integer slot.  A domain
    acquires a slot from a free list on entry and releases it on exit;
    nested lookups within the same domain reuse the slot via domain-local
    storage. *)

val max_slots : int
(** Capacity of every per-slot array in the repository (256). *)

val acquire : unit -> int
(** Claim a free slot for the calling domain and remember it in
    domain-local storage.  Raises [Failure] if all slots are taken or the
    domain already holds one. *)

val release : unit -> unit
(** Release the calling domain's slot, first running its {!on_release}
    hooks.  No-op if it holds none. *)

val on_release : (unit -> unit) -> unit
(** [on_release f]: run [f ()] when the calling domain next releases its
    slot, while it still holds it.  Until then the slot keeps [f] and
    all it reaches alive, so a hook should hold only what it writes. *)

val current : unit -> int option
(** The calling domain's slot, if it holds one. *)

val my_slot : unit -> int
(** The calling domain's slot, acquiring one on first use. *)

val with_slot : (int -> 'a) -> 'a
(** [with_slot f] runs [f slot] with a freshly acquired (or already held)
    slot, releasing it afterwards if this call acquired it. *)
