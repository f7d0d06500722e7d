(* QSBR ordered by hardware timestamps instead of a shared epoch counter.

   Retirements are stamped with [rdtscp]; quiescence announcements
   publish the announcing domain's own [rdtscp].  A retired entry is
   free once every online domain's announce stamp exceeds the retirement
   stamp {e by more than the cross-core skew bound}: past that margin,
   the domain's quiescence point genuinely happened after the unlink in
   real time even under ORDO-style clock offset, so every op the domain
   can still be running started after the node became unreachable.

   This removes the last piece of shared mutable reclamation state —
   plain QSBR's epoch counter and its all-slots scan per quiescence —
   leaving only the per-domain announce/safe cells.  The trade: each
   trim reads every online announce (same cost as the epoch scan, but on
   the retiring domain only), and the skew margin retains entries a few
   thousand cycles longer.  This is the paper's thesis applied to
   reclamation: synchronized hardware clocks replace a software
   synchronization variable, with Ordo bounding the error. *)

module type CLOCK = sig
  val name : string
  val read : unit -> int

  val skew : unit -> int
  (** Upper bound on cross-core clock offset, in [read]'s units.  Stamps
      closer than this are treated as concurrent (not yet free). *)
end

module Hardware_clock : CLOCK = struct
  let name = "qsbr-tsc"
  let read () = Tsc.rdtscp ()

  (* Measured once by Ordo's handshake, then cached. *)
  let skew = Hwts.Ordo.uncertainty
end

module Make_clocked (C : CLOCK) = struct
  let backend_name = C.name

  module Order = struct
    type t = unit

    (* Force the skew bound here: Ordo's first [uncertainty] call runs a
       handshake that spawns a domain, which must happen at instance
       creation on the main domain, not mid-op on a pinned worker. *)
    let create () = ignore (C.skew ())
    let retire_stamp () = C.read ()
    let quiesce_stamp () = C.read ()
    let after_publish () ~announce:_ = ()

    (* Wrap-safe min over online announces, backed off by the skew
       bound.  No online domain: nothing can hold a reference, so
       "now - skew" frees everything stamped more than a skew ago. *)
    let free_bound () ~announce =
      let bound = ref max_int in
      let any = ref false in
      for slot = 0 to Array.length announce - 1 do
        let a = Atomic.get announce.(slot) in
        if a <> Qsbr.offline_stamp then begin
          if (not !any) || !bound - a > 0 then bound := a;
          any := true
        end
      done;
      (if not !any then bound := C.read ());
      !bound - C.skew ()
  end

  module Make (N : sig
    type t
  end) =
  struct
    include Qsbr.Make_with_order (Order) (N)

    let name = backend_name
  end
end

include Make_clocked (Hardware_clock)
