(** A lock-based node's state word and raw links, written in place.

    A node keeps its lock bit and its flags in one [mutable state : int]
    field; every write to it is a CAS through [hwts_cas_field], so a
    flag raised by another domain while the lock is held survives the
    unlock.  Reads of a flag are one plain load and a mask. *)

(** {1 The bits of a state word} *)

val locked : int
(** Held by the node's lock holder. *)

val marked : int
(** The node is logically deleted; raised once, under the lock. *)

val fully_linked : int
(** A lazy skip-list node is linked at every level; raised once, by its
    inserter, which does not hold the node's lock. *)

val has : int -> int -> bool
(** [has flag state]: whether [flag] is set in [state]. *)

module type NODE = sig
  type t

  val state_field : int
  (** Index of the node's [mutable state : int] field. *)

  val state : t -> int
  (** Plain read of that field. *)
end

module Make (N : NODE) : sig
  val try_lock : N.t -> bool
  (** Set the lock bit if it is clear, keeping the flags: a marked node
      locks, and its holder's validation fails. *)

  val lock : N.t -> unit
  (** [try_lock] until it succeeds, backing off after a failure. *)

  val unlock : N.t -> unit
  (** Clear the lock bit, which the caller holds, keeping every flag. *)

  val set : N.t -> int -> unit
  (** [set n flag] raises [flag], which is clear, keeping the other
      bits. *)

  val link : N.t -> int -> was:N.t -> N.t -> unit
  (** [link n field ~was v]: the holder of [n]'s lock replaces the link
      at [field], which it read as [was], with [v]. *)
end
