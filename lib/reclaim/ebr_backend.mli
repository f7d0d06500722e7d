(** Per-op epoch announcements with scannable limbo lists, plus
    userspace-RCU read sections and grace waits. *)

include Intf.BACKEND
