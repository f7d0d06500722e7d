(** Geometric tower heights for skip lists (p = 1/2), one PRNG stream per
    domain, shared by every skip-list variant in the repository. *)

val max_level : int
(** Highest level index (19): suitable for ~10^6 keys. *)

val random : unit -> int
(** A height in [0, max_level], geometrically distributed. *)

type seen = { key : int; words : int; live : bool }
(** A node as a test's walk of one level sees it: its key, its block's
    size in words, and whether it is unmarked, unlocked and fully
    linked. *)

val reseed : int -> unit
(** Restart the calling domain's stream from [seed]: the heights drawn
    next depend on [seed] alone, not on what the domain drew before. *)
