(* A node's lock and flags in one mutable int field of the node block,
   its state word, and its raw child links as plain mutable fields,
   instead of an [Atomic.t] box each.

   Every write to such a field goes through [hwts_cas_field]
   (field_cas_stubs.c), the runtime's CAS on a named field.  It is
   sequentially consistent, which is what lock hand-off and a grace wait
   after an unlinking store rely on, and it runs the write barrier a
   major-heap node needs once it points at a fresh minor-heap one.  Reads
   are plain field loads; on OCaml 5 amd64 these are the same load as
   [Atomic.get].

   The state word holds the lock bit and the flags ([marked], and
   [fully_linked] for a node that has one).  Its writers are not all the
   lock's holder: a lazy skip-list inserter sets [fully_linked] on its
   new node while a neighbour may hold that node's lock as a predecessor.
   So every write is a CAS from the word as read: [try_lock] from the read
   state with the lock bit clear (a marked node still locks, and fails
   its holder's validation), [unlock] clears only the lock bit, [set]
   raises one flag, each retrying while another bit moves under it.  A
   plain store from [unlock] could write back a state read before such a
   [set] and drop its flag.

   The externals are typed at [N.t], so they reach no other type, and
   only at an int (the state word) or an [N.t] (a link), so a field can
   only be given a value of its own type; a versioned link is written
   through {!Link}.  The caller names each field by its index in the
   node's block: a lazy skip-list node keeps its raw links above level 0
   in slots after its record fields, and [link] writes them too. *)

let locked = 1
let marked = 2
let fully_linked = 4
let[@inline] has flag state = state land flag <> 0

module type NODE = sig
  type t

  val state_field : int
  val state : t -> int
end

module Make (N : NODE) = struct
  external cas_state : N.t -> int -> int -> int -> bool = "hwts_cas_field"
  [@@noalloc]

  external cas_link : N.t -> int -> N.t -> N.t -> bool = "hwts_cas_field"
  [@@noalloc]

  let try_lock n =
    let s = N.state n in
    (not (has locked s)) && cas_state n N.state_field s (s lor locked)

  (* The backoff state is allocated only when the first attempt fails. *)
  let lock n =
    if not (try_lock n) then begin
      let backoff = Sync.Backoff.make () in
      while not (try_lock n) do
        Sync.Backoff.once backoff
      done
    end

  let rec unlock n =
    let s = N.state n in
    assert (has locked s);
    if not (cas_state n N.state_field s (s land lnot locked)) then unlock n

  let rec set n flag =
    let s = N.state n in
    assert (not (has flag s));
    if not (cas_state n N.state_field s (s lor flag)) then set n flag

  let link n field ~was v =
    let unchanged = cas_link n field was v in
    assert unchanged
end
