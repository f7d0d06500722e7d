(** Per-op epoch announcements with scannable limbo lists, plus
    userspace-RCU read sections and grace waits. *)

include Intf.BACKEND

(** The read sections and grace waits alone, for a structure that
    retires nothing (the baseline Citrus tree): no op announce array, no
    limbo.  Same semantics as the backend's [with_read] and
    [wait_until_quiescent], and the same [rcu.sync_wait_spins] series. *)
module Reads : sig
  type t

  val create : unit -> t
  val with_read : t -> (unit -> 'a) -> 'a
  val wait_until_quiescent : t -> unit
end
