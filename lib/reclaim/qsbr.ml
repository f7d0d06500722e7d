(* Quiescent-state-based reclamation: no per-op announce store.

   Per participating domain ("online"), two shared cells:

   - [announce.(slot)]: the stamp of the domain's last {e quiescence
     point} — published only at harness-loop / serve-batch boundaries
     ([quiesce]) — or [offline_stamp].  Limbo trimming is gated on these:
     an entry is freed once every online domain has quiesced after the
     retirement (in the ordering module [O]'s stamp space).
   - [safe.(slot)]: a monotone {e safe-point} counter, bumped at every
     quiescence point and additionally from contended-wait backoff loops
     via the {!Sync.Quiesce} hook whenever the domain is outside any
     read section.  [wait_until_quiescent] waits on these, not on
     [announce]: lock spins are legitimate grace points (every locked
     section in the citrus family re-validates against [marked] after
     acquiring), and without them a writer waiting for grace while
     holding locks would deadlock against a writer spinning on one of
     those locks.

   Read sections cost one domain-local nesting bump — no shared store at
   all (first-touch onlining aside).  What makes that sound: a domain's
   announce stamp is from {e before} its current op, so any grace
   condition "every online domain quiesced after X" implies "every op
   that started before X has finished" without ever observing the op
   itself.

   Trim safety for RQ limbo recovery (why mid-op safe points must not
   move [announce]): a range query's snapshot label is acquired after
   the domain's last quiescence point.  An entry is freed only when
   every online domain — including the RQ's — quiesced after the
   retirement, so the freed node's deletion label is at or before every
   live snapshot label and the covers predicate already excludes it.
   Safe points gate only [wait_until_quiescent] (whose callers unlink
   {e reachable} nodes, protected by lock revalidation), never trims.

   Grace-wait latency: boundary-only announcements would make a
   synchronous [wait_until_quiescent] block until every peer's next
   harness-chunk boundary — thousands of ops away.  So waiters raise a
   pending count, and op / read-section exits check it with one shared
   {e load} (cache-shared, free until a waiter actually appears) and
   publish a safe point only then.  The common-case op path stays
   store-free; grace waits resolve within one peer operation. *)

let offline_stamp = min_int

(* What varies between plain QSBR and the TSC variant: where stamps come
   from and when a retired entry is provably unreachable. *)
module type ORDER = sig
  type t

  val create : unit -> t
  val retire_stamp : t -> int
  val quiesce_stamp : t -> int

  val after_publish : t -> announce:int Atomic.t array -> unit
  (** Run after a quiescence stamp lands (the plain variant advances its
      epoch counter here once every online slot has caught up). *)

  val free_bound : t -> announce:int Atomic.t array -> int
  (** Entries with [bound - stamp > 0] (signed, wrap-safe) are free. *)
end

let quiesces = Hwts_obs.Registry.counter "reclaim.quiesces"
let grace_waits = Hwts_obs.Registry.counter "reclaim.grace_waits"
let grace_wait_spins = Hwts_obs.Registry.counter "reclaim.grace_wait_spins"
let announce_stores = Hwts_obs.Registry.counter "reclaim.announce_stores"
let limbo_len = Hwts_obs.Registry.histogram "reclaim.limbo_len"

module Make_with_order
    (O : ORDER)
    (N : sig
      type t
    end) =
struct
  type node = N.t

  type dstate = {
    mutable online : bool;
    mutable nesting : int; (* read-section depth; domain-local *)
    mutable since_trim : int;
    mutable hooked : bool; (* [depart] waits for this slot's release *)
  }

  type t = {
    order : O.t;
    announce : int Atomic.t array;
    safe : int Atomic.t array;
    limbo : N.t Limbo.t;
    epoch_frequency : int;
    waiters : int Atomic.t; (* pending wait_until_quiescent calls *)
    dls : dstate Domain.DLS.key;
  }

  let create ?(epoch_frequency = 64) ?on_free () =
    {
      order = O.create ();
      announce =
        Array.init Sync.Slot.max_slots (fun _ -> Atomic.make offline_stamp);
      safe = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make 0);
      limbo = Limbo.create ?on_free ~limbo_len ();
      epoch_frequency;
      waiters = Atomic.make 0;
      dls =
        Domain.DLS.new_key (fun () ->
            { online = false; nesting = 0; since_trim = 0; hooked = false });
    }

  let trim t slot =
    ignore
      (Limbo.trim t.limbo slot
         ~bound:(O.free_bound t.order ~announce:t.announce))

  (* The domain leaves [slot]'s announcement: grace waiters watching
     the slot stop waiting on it. *)
  let leave d ~announce ~safe =
    d.online <- false;
    Sync.Quiesce.clear ();
    Hwts_obs.Counter.incr announce_stores;
    Atomic.set announce offline_stamp;
    Atomic.incr safe

  let offline t =
    let d = Domain.DLS.get t.dls in
    if d.online then begin
      Debug.check (d.nesting = 0) "Qsbr.offline inside a read section";
      let slot = Sync.Slot.my_slot () in
      leave d ~announce:t.announce.(slot) ~safe:t.safe.(slot);
      O.after_publish t.order ~announce:t.announce;
      (* own limbo may be freeable now that this domain left the min *)
      trim t slot
    end

  (* The domain releases its slot: whatever section it was in is over,
     and it goes offline while the slot is still its own.  The hook
     holds the slot's two cells, not the instance, so it keeps no
     instance alive; the slot's limbo waits for the next trim of a
     domain that holds the slot. *)
  let depart d ~announce ~safe () =
    d.hooked <- false;
    d.nesting <- 0;
    if d.online then leave d ~announce ~safe

  (* First touch brings the domain online: publish a quiescence stamp
     (its ops all start after this point) and install the safe-point
     hook for contended waits.  The hook closure captures this domain's
     slot and state; [Sync.Slot] pins both for the domain's lifetime.
     It also asks the slot to run [depart] on release, so a domain that
     leaves its slot while online (a raise out of [with_slot]) stalls no
     grace wait, and the slot's next owner inherits no stale stamp. *)
  let online t d =
    let slot = Sync.Slot.my_slot () in
    d.online <- true;
    Hwts_obs.Counter.incr announce_stores;
    Atomic.set t.announce.(slot) (O.quiesce_stamp t.order);
    Atomic.incr t.safe.(slot);
    let safe_cell = t.safe.(slot) in
    Sync.Quiesce.set (fun () -> if d.nesting = 0 then Atomic.incr safe_cell);
    if not d.hooked then begin
      d.hooked <- true;
      Sync.Slot.on_release (depart d ~announce:t.announce.(slot) ~safe:safe_cell)
    end

  let enter t =
    let d = Domain.DLS.get t.dls in
    if not d.online then online t d

  (* Outside every read section the domain holds no references, so this
     is a legitimate safe point — the same claim the Quiesce-hook bump
     makes.  Only [safe] moves: the announce stamp (which gates limbo
     frees) still changes at explicit boundaries alone. *)
  let release t d =
    if d.nesting = 0 && Atomic.get t.waiters > 0 then
      Atomic.incr t.safe.(Sync.Slot.my_slot ())

  let exit t = release t (Domain.DLS.get t.dls)

  let with_op t f =
    enter t;
    match f () with
    | v ->
      exit t;
      v
    | exception e ->
      exit t;
      raise e

  let read_lock t =
    let d = Domain.DLS.get t.dls in
    if not d.online then online t d;
    d.nesting <- d.nesting + 1

  let read_unlock t =
    let d = Domain.DLS.get t.dls in
    Debug.check (d.nesting > 0) "Qsbr.read_unlock outside a read section";
    if d.nesting > 0 then d.nesting <- d.nesting - 1;
    release t d

  let with_read t f =
    read_lock t;
    match f () with
    | v ->
      read_unlock t;
      v
    | exception e ->
      read_unlock t;
      raise e

  (* The calling domain's slot, checked to be online. *)
  let retiring t =
    Debug.check (Domain.DLS.get t.dls).online "Qsbr.retire before any enter";
    Sync.Slot.my_slot ()

  (* After a push into [slot]'s limbo: a trim every [epoch_frequency]
     retirements. *)
  let retired t slot =
    let d = Domain.DLS.get t.dls in
    d.since_trim <- d.since_trim + 1;
    if d.since_trim >= t.epoch_frequency then begin
      d.since_trim <- 0;
      Hwts_trace.Span.enter Hwts_trace.Reclaim;
      trim t slot;
      Hwts_trace.Span.exit Hwts_trace.Reclaim
    end

  let retire t node =
    let slot = retiring t in
    Limbo.push t.limbo slot node ~stamp:(O.retire_stamp t.order);
    retired t slot

  let retire_labeled t node ~label =
    let slot = retiring t in
    Limbo.push_labeled t.limbo slot node ~stamp:(O.retire_stamp t.order)
      ~label;
    retired t slot

  let quiesce t =
    let d = Domain.DLS.get t.dls in
    if d.online then begin
      Debug.check (d.nesting = 0) "Qsbr.quiesce inside a read section";
      let slot = Sync.Slot.my_slot () in
      Hwts_trace.Span.enter Hwts_trace.Reclaim;
      Hwts_obs.Counter.incr quiesces;
      Hwts_obs.Counter.incr announce_stores;
      Atomic.set t.announce.(slot) (O.quiesce_stamp t.order);
      Atomic.incr t.safe.(slot);
      O.after_publish t.order ~announce:t.announce;
      trim t slot;
      Hwts_trace.Span.exit Hwts_trace.Reclaim
    end

  (* Loops, not a closure per slot and a [Fun.protect]: a citrus
     relocation waits here on its delete path. *)
  let wait_for_peers t me =
    let backoff = Sync.Backoff.make () in
    for slot = 0 to Sync.Slot.max_slots - 1 do
      if slot <> me && Atomic.get t.announce.(slot) <> offline_stamp then begin
        (* Online at the start of the wait: wait for one safe point (or
           quiescence, or offline — all bump the counter).  The domain's
           current references predate that point only if they predate
           this call, which is exactly what the caller needs.  A domain
           coming online later started after this call; it is skipped. *)
        let c0 = Atomic.get t.safe.(slot) in
        while
          Atomic.get t.safe.(slot) = c0
          && Atomic.get t.announce.(slot) <> offline_stamp
        do
          Hwts_obs.Counter.incr grace_wait_spins;
          (* our own Quiesce hook publishes our safe points from in
             here, so two concurrent waiters release each other *)
          Sync.Backoff.once backoff
        done
      end
    done

  let wait_until_quiescent t =
    let d = Domain.DLS.get t.dls in
    Debug.check (d.nesting = 0)
      "Qsbr.wait_until_quiescent inside a read section";
    let me = Sync.Slot.my_slot () in
    Hwts_obs.Counter.incr grace_waits;
    Hwts_trace.Span.enter Hwts_trace.Wait;
    ignore (Atomic.fetch_and_add t.waiters 1);
    match wait_for_peers t me with
    | () ->
      ignore (Atomic.fetch_and_add t.waiters (-1));
      Hwts_trace.Span.exit Hwts_trace.Wait
    | exception e ->
      ignore (Atomic.fetch_and_add t.waiters (-1));
      raise e

  let limbo_cells t slot = Limbo.cells t.limbo slot
  let limbo_size t = Limbo.size t.limbo
  let reclaimed t = Limbo.reclaimed t.limbo
end

(* Plain QSBR: one shared epoch counter, touched only at quiescence
   points (publish a read of it; CAS-advance once every online slot has
   announced the current epoch).  The free rule is EBR's, two epochs of
   lag, but with zero shared stores on the op path. *)
module Epoch_order = struct
  type t = int Atomic.t

  let create () = Atomic.make 1
  let retire_stamp g = Atomic.get g
  let quiesce_stamp g = Atomic.get g

  let after_publish g ~announce =
    let epoch = Atomic.get g in
    if Limbo.all_announced ~idle:offline_stamp announce epoch then
      ignore (Atomic.compare_and_set g epoch (epoch + 1))

  (* Safe at [stamp <= epoch - 2]: an op holding a reference to a node
     retired at stamp [e] started before the unlink, hence before the
     quiescence announcements that let the epoch reach [e + 2] — all of
     which happened after the unlink (the retire's read of [e] orders
     them).  Only the announcement schedule differs from the EBR
     backend. *)
  let free_bound g ~announce:_ = Atomic.get g - 1
end

let backend_name = "qsbr"

module Make (N : sig
  type t
end) =
struct
  include Make_with_order (Epoch_order) (N)

  let name = backend_name
end
