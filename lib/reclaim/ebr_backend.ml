(* Epoch-based reclamation: the default backend, and the baseline the
   QSBR backends are measured against.  Every op section stores the
   global epoch into a shared per-slot announce array; an embedded
   userspace-RCU domain ([Reads] below) serves read sections and grace
   waits.

   EBR-RQ's key insight is that EBR already retains deleted nodes in
   limbo until no active op can reach them, so a range query can
   linearize in the past and recover just-deleted nodes by scanning
   those lists ([limbo_cells]).  Under OCaml's GC, "reclaiming" a node
   means dropping its last limbo reference; what a range query can still
   see, and for how long, is preserved faithfully. *)

let backend_name = "ebr"

(* Shared-announce stores are the per-op cost the QSBR backends exist to
   remove; every store to an announce array counts here so benches can
   compare stores/op across backends. *)
let announce_stores = Hwts_obs.Registry.counter "reclaim.announce_stores"

(* The ebr.* series predate the backend zoo and keep their names; the
   limbo core counts every retirement and free in reclaim.* besides. *)
let epoch_advances = Hwts_obs.Registry.counter "ebr.epoch_advances"
let retired_total = Hwts_obs.Registry.counter "ebr.retired"
let reclaimed_total = Hwts_obs.Registry.counter "ebr.reclaimed"
let limbo_len = Hwts_obs.Registry.histogram "ebr.limbo_len"

(* Quiescent-state userspace RCU.  Readers announce the global epoch
   they observed on entering a read section (sections nest);
   [wait_until_quiescent] bumps the epoch and waits until every other
   reader has either left its section or entered under the new epoch. *)
module Reads = struct
  type t = {
    global : int Atomic.t; (* current epoch, starts at 1 *)
    announce : int Atomic.t array; (* per slot: 0 = quiescent, else epoch *)
    nesting : int ref Domain.DLS.key;
  }

  (* How many backoff rounds grace waits spent blocked on readers: the
     contention signal that motivates the QSBR backends, which wait on
     quiescence stamps instead of per-read announce slots. *)
  let sync_wait_spins = Hwts_obs.Registry.counter "rcu.sync_wait_spins"

  let create () =
    {
      global = Atomic.make 1;
      announce = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make 0);
      nesting = Domain.DLS.new_key (fun () -> ref 0);
    }

  let read_lock t =
    let n = Domain.DLS.get t.nesting in
    if !n = 0 then begin
      let slot = Sync.Slot.my_slot () in
      Hwts_obs.Counter.incr announce_stores;
      Atomic.set t.announce.(slot) (Atomic.get t.global)
    end;
    incr n

  let read_unlock t =
    let n = Domain.DLS.get t.nesting in
    Debug.check (!n > 0) "Ebr_backend.read_unlock outside a read section";
    if !n > 0 then begin
      decr n;
      if !n = 0 then begin
        let slot = Sync.Slot.my_slot () in
        Hwts_obs.Counter.incr announce_stores;
        Atomic.set t.announce.(slot) 0
      end
    end

  (* No [Fun.protect]: its closures would be the section's only
     allocation.  The [match] still closes the section on a raise. *)
  let with_read t f =
    read_lock t;
    match f () with
    | v ->
      read_unlock t;
      v
    | exception e ->
      read_unlock t;
      raise e

  (* The caller's own slot is skipped: called from inside a read section
     (a protocol violation) it would otherwise wait for itself forever. *)
  let wait_until_quiescent t =
    Debug.check
      (!(Domain.DLS.get t.nesting) = 0)
      "Ebr_backend.wait_until_quiescent inside a read section";
    let me = Sync.Slot.my_slot () in
    let epoch = Atomic.fetch_and_add t.global 1 + 1 in
    let backoff = Sync.Backoff.make () in
    (* A loop, not a closure per slot: a citrus relocation waits here, and
       256 closures would be most of what its delete allocates. *)
    for slot = 0 to Sync.Slot.max_slots - 1 do
      let cell = t.announce.(slot) in
      (* A reader blocks the grace period only if it entered before the
         epoch bump and is still inside its section. *)
      while
        slot <> me
        &&
        let a = Atomic.get cell in
        a <> 0 && a < epoch
      do
        Hwts_obs.Counter.incr sync_wait_spins;
        Sync.Backoff.once backoff
      done
    done
end

module Make (N : sig
  type t
end) =
struct
  type node = N.t

  type t = {
    global : int Atomic.t;
    announce : int Atomic.t array; (* 0 = no active op, else epoch *)
    limbo : N.t Limbo.t;
    epoch_frequency : int;
    op_count : int ref Domain.DLS.key;
    advance_gate : int ref Domain.DLS.key;
    rcu : Reads.t;
  }

  let name = backend_name

  (* After a failed advance attempt (some slot still announces an older
     epoch), hold off further attempts for ~8k cycles: the blocking op
     must finish before one can succeed, so immediate retries are pure
     256-slot scans.  Paced by the fence-amortized [Tsc.read_cached] —
     a stale-low reading only lengthens the hold-off, never corrupts it. *)
  let advance_holdoff_cycles = 8_192

  let create ?(epoch_frequency = 64) ?on_free () =
    {
      global = Atomic.make 1;
      announce = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make 0);
      limbo = Limbo.create ?on_free ~limbo_len ();
      epoch_frequency;
      op_count = Domain.DLS.new_key (fun () -> ref 0);
      advance_gate = Domain.DLS.new_key (fun () -> ref 0);
      rcu = Reads.create ();
    }

  (* Succeeds iff every domain inside an op section has announced the
     current epoch, so each advance waits out every op still announcing
     an older one.  Trims free an entry once the epoch is three past its
     retirement ([bound = epoch - 2]). *)
  let try_advance t =
    let epoch = Atomic.get t.global in
    Limbo.all_announced ~idle:0 t.announce epoch
    && Atomic.compare_and_set t.global epoch (epoch + 1)
    && begin
         Hwts_obs.Counter.incr epoch_advances;
         true
       end

  let enter t =
    let slot = Sync.Slot.my_slot () in
    Debug.check
      (Atomic.get t.announce.(slot) = 0)
      "Ebr_backend.enter inside an active op section";
    let count = Domain.DLS.get t.op_count in
    incr count;
    if !count mod t.epoch_frequency = 0 then begin
      (* The amortized block is where EBR spends real time; span it so
         phase traces can tell reclamation from the announce stores. *)
      Hwts_trace.Span.enter Hwts_trace.Ebr;
      let gate = Domain.DLS.get t.advance_gate in
      let now = Tsc.read_cached () in
      if now >= !gate && not (try_advance t) then
        gate := now + advance_holdoff_cycles;
      Hwts_trace.Span.exit Hwts_trace.Ebr;
      Hwts_trace.Span.enter Hwts_trace.Reclaim;
      let dropped = Limbo.trim t.limbo slot ~bound:(Atomic.get t.global - 2) in
      if dropped > 0 then Hwts_obs.Counter.add reclaimed_total dropped;
      Hwts_trace.Span.exit Hwts_trace.Reclaim
    end;
    Hwts_obs.Counter.incr announce_stores;
    Atomic.set t.announce.(slot) (Atomic.get t.global)

  let exit t =
    let slot = Sync.Slot.my_slot () in
    Hwts_obs.Counter.incr announce_stores;
    Atomic.set t.announce.(slot) 0

  let with_op t f =
    enter t;
    match f () with
    | v ->
      exit t;
      v
    | exception e ->
      exit t;
      raise e

  let read_lock t = Reads.read_lock t.rcu
  let read_unlock t = Reads.read_unlock t.rcu
  let with_read t f = Reads.with_read t.rcu f

  (* The calling domain's slot, checked to be inside an op section. *)
  let retiring t =
    let slot = Sync.Slot.my_slot () in
    Debug.check
      (Atomic.get t.announce.(slot) <> 0)
      "Ebr_backend.retire outside an op section";
    Hwts_obs.Counter.incr retired_total;
    slot

  let retire t node =
    let slot = retiring t in
    Limbo.push t.limbo slot node ~stamp:(Atomic.get t.global)

  let retire_labeled t node ~label =
    let slot = retiring t in
    Limbo.push_labeled t.limbo slot node ~stamp:(Atomic.get t.global) ~label

  (* EBR announces per op; boundary announcements add nothing. *)
  let quiesce _ = ()
  let offline _ = ()
  let wait_until_quiescent t = Reads.wait_until_quiescent t.rcu
  let limbo_cells t slot = Limbo.cells t.limbo slot
  let limbo_size t = Limbo.size t.limbo
  let reclaimed t = Limbo.reclaimed t.limbo
end
