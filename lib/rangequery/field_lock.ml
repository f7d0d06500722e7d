(* A node's lock, flags and raw child links as plain mutable fields of
   the node block, instead of an [Atomic.t] box each.

   Every write to such a field goes through [hwts_cas_field]
   (field_cas_stubs.c), the runtime's CAS on a named field.  It is
   sequentially consistent, which is what lock hand-off and a grace wait
   after an unlinking store rely on, and it runs the write barrier a
   major-heap node needs once it points at a fresh minor-heap one.  Reads
   are plain field loads; on OCaml 5 amd64 these are the same load as
   [Atomic.get].

   The externals are typed at [N.t], so they reach no other type, and
   only at a bool (the lock or a flag) or an [N.t] (a link), so a field
   can only be given a value of its own type; a versioned link is
   written through {!Link}.  The caller names each field by its index in the node
   record.  A skip list tower is a plain [N.t array]; an array is a
   block too, so the same stub writes its slots. *)

module type NODE = sig
  type t

  val lock_field : int
  (** Index of the node's [mutable lock : bool] field. *)

  val locked : t -> bool
  (** Plain read of that field. *)
end

module Make (N : NODE) = struct
  external cas_flag : N.t -> int -> bool -> bool -> bool = "hwts_cas_field"
  [@@noalloc]

  external cas_link : N.t -> int -> N.t -> N.t -> bool = "hwts_cas_field"
  [@@noalloc]

  external cas_slot : N.t array -> int -> N.t -> N.t -> bool
    = "hwts_cas_field"
  [@@noalloc]

  let try_lock n = (not (N.locked n)) && cas_flag n N.lock_field false true

  (* The backoff state is allocated only when the first attempt fails. *)
  let lock n =
    if not (try_lock n) then begin
      let backoff = Sync.Backoff.make () in
      while not (try_lock n) do
        Sync.Backoff.once backoff
      done
    end

  let unlock n =
    let held = cas_flag n N.lock_field true false in
    assert held

  (* [link n field ~was v]: the holder of [n]'s lock replaces the link at
     [field], which it read as [was], with [v]. *)
  let link n field ~was v =
    let unchanged = cas_link n field was v in
    assert unchanged

  (* [set n field]: the holder of [n]'s lock raises the flag at [field]
     (marked, fully linked), which is raised once. *)
  let set n field =
    let was_clear = cas_flag n field false true in
    assert was_clear

  (* [link_slot tower level ~was v]: [link] for a slot of a tower
     array, written by the holder of its node's lock. *)
  let link_slot tower level ~was v =
    let unchanged = cas_slot tower level was v in
    assert unchanged
end
