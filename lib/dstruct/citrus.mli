(** Citrus tree (Arbel & Attiya, PODC'14): an internal binary search tree
    whose traversals run inside RCU read-side critical sections and whose
    updates take fine-grained per-node locks with validation.

    Deleting a node with two children replaces it by a fresh copy of its
    in-order successor, then waits for an RCU grace period before
    unlinking the original successor, so in-flight readers still find it. *)

include Ordered_set.S
