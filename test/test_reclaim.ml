(* lib/reclaim backend tests: the protocol basics on every backend
   (limbo visibility, trims, op sections pinning limbo, read-section
   nesting and grace waits, conservation), the EBR backend's own read
   sections and epoch, per-backend lifecycle, QSBR grace semantics
   (starvation, waiter release, offline liveness), the
   TSC-stamped variant near counter wrap, protocol violations degrading
   instead of raising, and poison-on-free tortures — backend-level
   seeded rounds plus the full structures at 8 domains.

   Every multi-domain scenario here is bounded: workers run a fixed op
   count and go offline at the end, and offline bumps the safe counter,
   so no assertion failure can turn into an alcotest hang. *)

module Reclaim = Hwts_reclaim

let counter name =
  match Hwts_obs.Registry.counter_value name with Some v -> v | None -> 0

(* A reclaimable cell: [on_free] flips [poisoned], and any later read
   through a protected reference finding it set is a use-after-free. *)
module Cell = struct
  type t = { mutable poisoned : bool; mutable v : int }
end

let cell v = { Cell.poisoned = false; v }

(* Repeat [step] until [finished] holds.  The epoch backends' free rules
   count rounds, so they get at most [rounds] steps.  qsbr-tsc's counts
   cycles: it frees an entry only once quiescence stamps pass it by the
   Ordo skew bound, which a loaded box can measure in milliseconds, so it
   gets up to two seconds instead. *)
let drain name ~rounds finished step =
  if name = Reclaim.Qsbr_tsc.backend_name then begin
    let deadline = Unix.gettimeofday () +. 2.0 in
    while (not (finished ())) && Unix.gettimeofday () < deadline do
      step ()
    done
  end
  else begin
    let n = ref 0 in
    while (not (finished ())) && !n < rounds do
      incr n;
      step ()
    done
  end

let backends : (string * (module Reclaim.Intf.BACKEND)) list =
  [
    ("ebr", (module Reclaim.Ebr_backend));
    ("qsbr", (module Reclaim.Qsbr));
    ("qsbr-tsc", (module Reclaim.Qsbr_tsc));
  ]

(* Single-domain lifecycle: everything retired is eventually freed (via
   [on_free]) once the domain keeps passing quiescence points / op
   sections, and the limbo drains to empty by offline. *)
let lifecycle (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let freed = ref 0 in
  let r =
    R.create ~epoch_frequency:2 ~on_free:(fun c ->
        c.Cell.poisoned <- true;
        incr freed) ()
  in
  let n = 32 in
  for i = 1 to n do
    R.with_op r (fun () -> R.retire r (cell i))
  done;
  Alcotest.(check bool) "limbo holds retirements" true (R.limbo_size r > 0);
  (* Enough boundary announcements / op sections for any backend's free
     rule (two epochs of lag at most) to run dry. *)
  drain R.name ~rounds:64
    (fun () -> R.limbo_size r = 0)
    (fun () ->
      R.with_op r (fun () -> ());
      R.quiesce r);
  R.offline r;
  Alcotest.(check int) "limbo drained" 0 (R.limbo_size r);
  Alcotest.(check int) "every retirement freed" n !freed;
  Alcotest.(check int) "reclaimed counter agrees" n (R.reclaimed r)

(* With no other participating domain, a grace wait must return
   immediately for every backend. *)
let self_wait (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create () in
  R.with_op r (fun () -> ());
  R.wait_until_quiescent r;
  R.offline r;
  Alcotest.(check pass) "returned" () ()

(* QSBR starvation: an online domain that stops quiescing blocks every
   free; its offline unblocks them.  This is the property that forced
   [offline] into the structure signature — a finished-but-online worker
   would otherwise pin limbo forever. *)
let starvation (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create ~epoch_frequency:1024 () in
  let parked = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            R.with_op r (fun () -> ());
            R.quiesce r;
            Atomic.set parked true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            R.offline r))
  in
  Sync.Slot.with_slot (fun _ ->
      while not (Atomic.get parked) do
        Domain.cpu_relax ()
      done;
      let n = 16 in
      for i = 1 to n do
        R.with_op r (fun () -> R.retire r (cell i))
      done;
      for _ = 1 to 8 do
        R.quiesce r
      done;
      Alcotest.(check int) "starved: nothing freed while peer is online" n
        (R.limbo_size r);
      Atomic.set release true;
      Domain.join d;
      (* peer offline: the next boundary announcements free everything *)
      drain R.name ~rounds:64
        (fun () -> R.limbo_size r = 0)
        (fun () -> R.quiesce r);
      Alcotest.(check int) "offline unblocked the frees" 0 (R.limbo_size r);
      R.offline r)

(* QSBR grace waits must resolve while a peer is mid-loop (never
   quiescing): the waiter-pending check at op exits is what releases
   them.  The peer's op budget bounds the test either way; the assertion
   is that the wait returned with most of that budget unspent. *)
let waiter_released (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create () in
  let budget = 5_000_000 in
  let done_ops = Atomic.make 0 and started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            for i = 1 to budget do
              R.with_op r (fun () -> ());
              if i = 1 then Atomic.set started true;
              Atomic.incr done_ops
            done;
            R.offline r))
  in
  Sync.Slot.with_slot (fun _ ->
      R.with_op r (fun () -> ());
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      R.wait_until_quiescent r;
      let at_release = Atomic.get done_ops in
      Domain.join d;
      Alcotest.(check bool)
        (Printf.sprintf "released mid-run (%d of %d ops)" at_release budget)
        true
        (at_release < budget);
      R.offline r)

(* A domain that raises out of [with_slot] while online goes offline as
   its slot is released, so a grace wait on another domain returns at
   once instead of waiting on the departed slot forever.  The waiter
   holds its slot before the peer takes one, so it cannot be handed the
   departed slot and skip it as its own.  Should the wait stall, a
   domain that takes the freed slot and goes offline releases it. *)
let departed_peer (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create () in
  let holding = Atomic.make false and go = Atomic.make false in
  let waited = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            Atomic.set holding true;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            R.wait_until_quiescent r;
            Atomic.set waited true))
  in
  while not (Atomic.get holding) do
    Domain.cpu_relax ()
  done;
  let peer =
    Domain.spawn (fun () ->
        match Sync.Slot.with_slot (fun _ -> R.with_op r (fun () -> raise Exit)) with
        | () -> false
        | exception Exit -> true)
  in
  Alcotest.(check bool) "the peer raised out of its slot" true (Domain.join peer);
  Atomic.set go true;
  let within seconds =
    let deadline = Unix.gettimeofday () +. seconds in
    while (not (Atomic.get waited)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    Atomic.get waited
  in
  let returned = within 1.0 in
  if not returned then begin
    Domain.join
      (Domain.spawn (fun () ->
           Sync.Slot.with_slot (fun _ ->
               R.enter r;
               R.offline r)));
    ignore (within 1.0)
  end;
  if Atomic.get waited then Domain.join waiter;
  Alcotest.(check bool) "a peer's grace wait returned within 1 s" true returned

(* A counter-injected clock near max_int: retirement stamps and
   quiescence stamps straddle the wrap, and the wrap-safe signed
   comparisons must keep freeing (a naive [stamp <= bound] would retain
   everything forever once stamps go negative). *)
let near_wrap () =
  let clock = Atomic.make (max_int - 40) in
  let module C = struct
    let name = "wrap-tsc"
    let read () = Atomic.fetch_and_add clock 3
    let skew () = 2
  end in
  let module B = Reclaim.Qsbr_tsc.Make_clocked (C) in
  let module R = B.Make (Cell) in
  let freed = ref 0 in
  let r = R.create ~epoch_frequency:4 ~on_free:(fun _ -> incr freed) () in
  let n = 64 in
  for i = 1 to n do
    R.with_op r (fun () -> R.retire r (cell i));
    R.quiesce r
  done;
  Alcotest.(check bool) "clock wrapped" true (Atomic.get clock < 0);
  let rounds = ref 0 in
  while R.limbo_size r > 0 && !rounds < 64 do
    incr rounds;
    R.quiesce r
  done;
  R.offline r;
  Alcotest.(check int) "all freed across the wrap" n !freed

(* ---------- protocol basics, every backend ---------- *)

(* Every node in limbo, slot by slot, as [limbo_cells] lists them. *)
let limbo_nodes limbo_cells =
  let rec nodes acc = function
    | Reclaim.Limbo.Nil -> acc
    | Reclaim.Limbo.(Cons { node; next; _ } | Labeled { node; next; _ }) ->
      nodes (node :: acc) next
  in
  List.concat_map
    (fun slot -> nodes [] (limbo_cells slot))
    (List.init Sync.Slot.max_slots Fun.id)

(* [limbo_cells] shows what was retired. *)
let retire_visible (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create () in
  R.with_op r (fun () ->
      R.retire r (cell 11);
      R.retire r (cell 22));
  let seen = List.map (fun c -> c.Cell.v) (limbo_nodes (R.limbo_cells r)) in
  Alcotest.(check (list int)) "limbo contents" [ 11; 22 ]
    (List.sort compare seen);
  Alcotest.(check int) "size" 2 (R.limbo_size r);
  R.offline r

(* A labeled retirement's cell carries its label; the free negates it,
   on a cell a reader kept from before the trim cut it off. *)
let labeled_cell_poisoned (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create ~epoch_frequency:1 () in
  R.with_op r (fun () -> R.retire_labeled r (cell 7) ~label:42);
  let kept = R.limbo_cells r (Sync.Slot.my_slot ()) in
  let label () =
    match kept with
    | Reclaim.Limbo.Labeled c -> c.label
    | Reclaim.Limbo.(Nil | Cons _) -> Alcotest.fail "no labeled cell"
  in
  Alcotest.(check int) "label while in limbo" 42 (label ());
  drain R.name ~rounds:10
    (fun () -> R.reclaimed r = 1)
    (fun () ->
      R.with_op r (fun () -> ());
      R.quiesce r);
  Alcotest.(check int) "reclaimed" 1 (R.reclaimed r);
  Alcotest.(check int) "label once freed" (-42) (label ());
  R.offline r

(* Alone, a domain passing op sections and quiescence points frees what
   it retired: the epoch (or clock) moves and the trims catch up. *)
let trim_reclaims (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create ~epoch_frequency:1 () in
  R.with_op r (fun () -> R.retire r (cell 7));
  drain R.name ~rounds:10
    (fun () -> R.reclaimed r = 1)
    (fun () ->
      R.with_op r (fun () -> ());
      R.quiesce r);
  (* checked while still online: offline trims on its own *)
  Alcotest.(check int) "reclaimed" 1 (R.reclaimed r);
  Alcotest.(check int) "limbo drained" 0 (R.limbo_size r);
  R.offline r

(* A domain parked inside an op section, announcing a stale epoch (EBR)
   or never quiescing (QSBR), blocks every free; once it leaves, frees
   resume. *)
let stale_thread_blocks (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create ~epoch_frequency:1 () in
  let inside = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            R.enter r;
            Atomic.set inside true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            R.exit r;
            R.offline r))
  in
  while not (Atomic.get inside) do
    Domain.cpu_relax ()
  done;
  let churn () =
    R.with_op r (fun () -> ());
    R.quiesce r
  in
  R.with_op r (fun () -> R.retire r (cell 1));
  for _ = 1 to 16 do
    churn ()
  done;
  let while_parked = R.reclaimed r in
  Atomic.set release true;
  Domain.join d;
  (* EBR's failed advance attempts above armed its hold-off: let it
     lapse, then allow for the cached clock that paces it to refresh
     (once per [Tsc.refresh_period] reads) and for the three advances
     that carry the epoch past the retirement. *)
  Unix.sleepf 0.001;
  drain R.name
    ~rounds:(Tsc.refresh_period () + 3)
    (fun () -> R.reclaimed r = 1)
    churn;
  R.offline r;
  Alcotest.(check int) "blocked by the parked op" 0 while_parked;
  Alcotest.(check int) "freed after it left" 1 (R.reclaimed r)

(* An op section open on another domain keeps a node retired under it
   in limbo, visible to that domain's [limbo_cells], however much the
   retiring domain churns. *)
let active_op_protects (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create ~epoch_frequency:1 () in
  let entered = Atomic.make false in
  let retired = Atomic.make false and release = Atomic.make false in
  let scanner =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            R.enter r;
            Atomic.set entered true;
            (* wait until another domain retires under us *)
            while not (Atomic.get retired) do
              Domain.cpu_relax ()
            done;
            let seen = List.length (limbo_nodes (R.limbo_cells r)) in
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            R.exit r;
            R.offline r;
            seen))
  in
  ignore
    (Util.spawn_workers 1 (fun _ ->
         (* the retire must happen under the scanner's open op, so wait
            for its announcement — otherwise the churn below is free to
            reclaim and the test races against the domain scheduler *)
         while not (Atomic.get entered) do
           Domain.cpu_relax ()
         done;
         R.with_op r (fun () -> R.retire r (cell 99));
         Atomic.set retired true;
         (* churn: without the scanner's open op these would reclaim *)
         for _ = 1 to 10 do
           R.with_op r (fun () -> ());
           R.quiesce r
         done;
         R.offline r));
  let under_op = R.reclaimed r in
  Atomic.set release true;
  let seen = Domain.join scanner in
  Alcotest.(check int) "node still in limbo under active op" 0 under_op;
  Alcotest.(check bool) "scanner saw the retired node" true (seen >= 1)

(* A grace wait started while a reader sits in a read section blocks
   until that section closes.  [nested]: the reader holds two nested
   sections and has left the inner one, which must not release the
   wait. *)
let wait_blocks_on_reader ~nested (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create () in
  let inside = Atomic.make false and release = Atomic.make false in
  let waited = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            R.with_read r (fun () ->
                if nested then R.with_read r (fun () -> ());
                Atomic.set inside true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done);
            R.offline r))
  in
  while not (Atomic.get inside) do
    Domain.cpu_relax ()
  done;
  let waiter =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            R.wait_until_quiescent r;
            Atomic.set waited true))
  in
  Unix.sleepf 0.05;
  let blocked = not (Atomic.get waited) in
  Atomic.set release true;
  Domain.join waiter;
  Domain.join reader;
  Alcotest.(check bool) "wait blocked by the open section" true blocked;
  Alcotest.(check bool) "wait returned after the section closed" true
    (Atomic.get waited)

let read_nesting = wait_blocks_on_reader ~nested:true

(* A reader that enters after a grace wait started must not block it:
   run waits concurrently with a storm of short read sections. *)
let new_readers_dont_block (module B : Reclaim.Intf.BACKEND) () =
  let module R = B.Make (Cell) in
  let r = R.create () in
  let stop = Atomic.make false in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                while not (Atomic.get stop) do
                  R.with_read r (fun () -> ())
                done;
                R.offline r)))
  in
  for _ = 1 to 50 do
    R.wait_until_quiescent r
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  R.offline r;
  Alcotest.(check pass) "all grace waits returned" () ()

(* Conservation: everything retired is either in limbo or reclaimed, for
   any interleaving of retires, empty ops and quiescence points. *)
let accounting (module B : Reclaim.Intf.BACKEND) =
  let module R = B.Make (Cell) in
  Util.qcheck ~count:100 "retire/reclaim accounting"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 2))
    (fun ops ->
      let r = R.create ~epoch_frequency:1 () in
      let retired = ref 0 in
      List.iter
        (function
          | 0 ->
            R.with_op r (fun () ->
                R.retire r (cell !retired);
                incr retired)
          | 1 -> R.with_op r (fun () -> ())
          | _ -> R.quiesce r)
        ops;
      R.offline r;
      R.limbo_size r + R.reclaimed r = !retired)

(* ---------- the EBR backend's read sections and epoch ---------- *)

module E = Reclaim.Ebr_backend.Make (Cell)

let debug_off () =
  Alcotest.(check bool) "debug off in the test env" false
    (Sys.getenv_opt "HWTS_RECLAIM_DEBUG" <> None)

(* Whether the calling domain sits in a read section, seen through the
   debug-off degrade path: a grace wait from inside one counts exactly
   one violation, from outside none. *)
let in_read_section e =
  let before = counter "reclaim.invariant_violations" in
  E.wait_until_quiescent e;
  counter "reclaim.invariant_violations" > before

let rcu_nesting () =
  debug_off ();
  let e = E.create () in
  Alcotest.(check bool) "outside" false (in_read_section e);
  E.read_lock e;
  E.read_lock e;
  Alcotest.(check bool) "nested" true (in_read_section e);
  E.read_unlock e;
  Alcotest.(check bool) "still inside" true (in_read_section e);
  E.read_unlock e;
  Alcotest.(check bool) "left" false (in_read_section e)

(* With no reader in any section, a grace wait returns without spinning. *)
let rcu_synchronize_idle () =
  let e = E.create () in
  let before = counter "rcu.sync_wait_spins" in
  E.wait_until_quiescent e;
  E.wait_until_quiescent e;
  Alcotest.(check int) "no spins without readers" before
    (counter "rcu.sync_wait_spins")

let rcu_synchronize_waits =
  wait_blocks_on_reader ~nested:false (module Reclaim.Ebr_backend)

(* Alone, every op section's advance attempt succeeds: the epoch moves
   on each one. *)
let ebr_epoch_advances () =
  let e = E.create ~epoch_frequency:1 () in
  let advances () = counter "ebr.epoch_advances" in
  let e0 = advances () in
  E.with_op e (fun () -> E.retire e (cell 1));
  let e1 = advances () in
  E.with_op e (fun () -> ());
  Alcotest.(check bool) "epoch moved" true (e1 > e0);
  Alcotest.(check bool) "and moves again" true (advances () > e1)

(* ---------- observability ---------- *)

(* The EBR backend's grace-wait busy-wait is observable: a wait blocked
   on another domain's read section bumps the spin counter. *)
let sync_wait_spins_counted () =
  let before = counter "rcu.sync_wait_spins" in
  rcu_synchronize_waits ();
  Alcotest.(check bool) "spins counted" true
    (counter "rcu.sync_wait_spins" > before)

(* Without HWTS_RECLAIM_DEBUG, protocol violations degrade instead of
   aborting: a double enter bumps the invariant counter and the op
   proceeds. *)
let invariant_degrades () =
  debug_off ();
  let module R = Reclaim.Ebr_backend.Make (Cell) in
  let r = R.create () in
  let before = counter "reclaim.invariant_violations" in
  R.enter r;
  R.enter r;
  (* violation: op section entered twice *)
  R.exit r;
  Alcotest.(check bool) "violation counted, not raised" true
    (counter "reclaim.invariant_violations" > before)

(* The read-section violations degrade the same way on every backend: an
   unpaired [read_unlock] and a grace wait from inside a read section
   are counted, and neither raises nor waits for the caller itself. *)
let violations_degrade (module B : Reclaim.Intf.BACKEND) () =
  debug_off ();
  let module R = B.Make (Cell) in
  let r = R.create () in
  let violations () = counter "reclaim.invariant_violations" in
  let before = violations () in
  R.read_unlock r;
  Alcotest.(check int) "unpaired read_unlock counted" (before + 1)
    (violations ());
  R.with_read r (fun () -> R.wait_until_quiescent r);
  Alcotest.(check int) "grace wait in a read section counted" (before + 2)
    (violations ());
  R.offline r

(* ---------- sections close when the body raises ---------- *)

exception Body

let raises f = match f () with () -> false | exception Body -> true

(* A [with_op] and a [with_read] whose bodies raise leave both sections
   closed: the next [enter] (EBR checks its announce slot) and a grace
   wait here (every backend checks the read nesting) count no violation,
   and a grace wait from another domain returns while this one keeps
   passing op exits.  Should it hang on a section left open, closing
   that section by hand after two seconds lets it return, so a failure
   cannot hang the suite. *)
let closed_on_raise (module B : Reclaim.Intf.BACKEND) () =
  debug_off ();
  let module R = B.Make (Cell) in
  let r = R.create () in
  let violations () = counter "reclaim.invariant_violations" in
  Sync.Slot.with_slot (fun _ ->
      let before = violations () in
      Alcotest.(check bool) "with_op re-raises" true
        (raises (fun () -> R.with_op r (fun () -> raise Body)));
      Alcotest.(check bool) "with_read re-raises" true
        (raises (fun () -> R.with_read r (fun () -> raise Body)));
      R.enter r;
      R.exit r;
      R.wait_until_quiescent r;
      Alcotest.(check int) "no violation after the raises" before
        (violations ());
      let waited = Atomic.make false in
      let waiter =
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                R.wait_until_quiescent r;
                Atomic.set waited true))
      in
      let deadline = Unix.gettimeofday () +. 2.0 in
      while (not (Atomic.get waited)) && Unix.gettimeofday () < deadline do
        R.enter r;
        R.exit r;
        Domain.cpu_relax ()
      done;
      let returned = Atomic.get waited in
      if not returned then begin
        R.read_unlock r;
        R.offline r
      end;
      Domain.join waiter;
      R.offline r;
      Alcotest.(check bool) "a peer's grace wait returned" true returned)

(* citrus-ebrrq's insert asserts its key range inside the op section;
   the failed assert must close it, so a snapshot (which opens an op
   section of its own) and a range read after it count no violation. *)
let citrus_assert_closes reclaim () =
  debug_off ();
  let inst = Workload.Targets.instance ~reclaim "citrus-ebrrq" `Logical in
  let (module S : Dstruct.Ordered_set.RQ) = inst.Workload.Targets.structure in
  let t = S.create () in
  let violations () = counter "reclaim.invariant_violations" in
  Sync.Slot.with_slot (fun _ ->
      for k = 1 to 8 do
        ignore (S.insert t k)
      done;
      let before = violations () in
      let asserted =
        match S.insert t Dstruct.Ordered_set.min_key with
        | _ -> false
        | exception Assert_failure _ -> true
      in
      Alcotest.(check bool) "min_key insert fails its assert" true asserted;
      let s = S.snapshot t in
      let keys = S.collect_at t s ~lo:1 ~hi:8 in
      S.snap_release t s;
      S.offline t;
      Alcotest.(check (array int)) "collect_at completes"
        [| 1; 2; 3; 4; 5; 6; 7; 8 |] keys;
      Alcotest.(check int) "no violation" before (violations ()))

(* Backend-level poison torture: worker domains race to unlink cells
   from a small shared array (retiring what they unlink) while readers
   dereference through op sections.  A protected reference observing
   [poisoned] is a freed-too-early bug in the backend's grace rule. *)
let poison_round (module B : Reclaim.Intf.BACKEND) ~seed ~domains ~ops =
  let module R = B.Make (Cell) in
  let r = R.create ~epoch_frequency:4 ~on_free:(fun c -> c.Cell.poisoned <- true) () in
  let hits = Atomic.make 0 in
  let nslots = 8 in
  let slots = Array.init nslots (fun i -> Atomic.make (Some (cell i))) in
  let worker i () =
    Sync.Slot.with_slot (fun _ ->
        let rng = Dstruct.Prng.make ~seed:(seed + (i * 7919)) in
        for n = 1 to ops do
          let j = Dstruct.Prng.below rng nslots in
          (match Dstruct.Prng.below rng 3 with
          | 0 ->
            R.with_op r (fun () ->
                (match Atomic.exchange slots.(j) None with
                | Some c -> R.retire r c
                | None -> ());
                Atomic.set slots.(j) (Some (cell n)))
          | _ ->
            R.with_op r (fun () ->
                match Atomic.get slots.(j) with
                | Some c ->
                  if c.Cell.poisoned then Atomic.incr hits else ignore c.Cell.v
                | None -> ()));
          if n mod 8 = 0 then R.quiesce r
        done;
        R.offline r)
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join ds;
  (Atomic.get hits, R.reclaimed r)

let poison_rounds (module B : Reclaim.Intf.BACKEND) () =
  let rounds = 500 in
  let total_reclaimed = ref 0 in
  for seed = 1 to rounds do
    let hits, reclaimed = poison_round (module B) ~seed ~domains:3 ~ops:32 in
    if hits > 0 then
      Alcotest.failf "use-after-free: %d poisoned reads in seeded round %d"
        hits seed;
    total_reclaimed := !total_reclaimed + reclaimed
  done;
  (* the torture must actually free memory, or it proves nothing *)
  Alcotest.(check bool) "rounds reclaimed memory" true (!total_reclaimed > 0)

(* Structure-level poison torture at 8 domains: the functorized EBR-RQ
   structures run a mixed workload (range queries scan limbo, the
   poison check lives on their covers path) under each backend; any
   covered-after-free leaf bumps reclaim.poison_hits. *)
let structure_poison name reclaim () =
  let before = counter "reclaim.poison_hits" in
  let inst = Workload.Targets.instance ~reclaim name `Logical in
  let (module S : Dstruct.Ordered_set.RQ) = inst.Workload.Targets.structure in
  let t = S.create () in
  for k = 1 to 64 do
    ignore (S.insert t k)
  done;
  S.offline t;
  let worker i () =
    Sync.Slot.with_slot (fun _ ->
        let rng = Dstruct.Prng.make ~seed:(0xBEEF + i) in
        for n = 1 to 200 do
          let k = 1 + Dstruct.Prng.below rng 96 in
          (match Dstruct.Prng.below rng 4 with
          | 0 -> ignore (S.insert t k)
          | 1 -> ignore (S.delete t k)
          | 2 -> ignore (S.contains t k)
          | _ -> ignore (S.range_query t ~lo:k ~hi:(k + 16)));
          if n mod 16 = 0 then S.quiesce t
        done;
        S.offline t)
  in
  let ds = List.init 8 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no covered-after-free leaves" before
    (counter "reclaim.poison_hits")

let backend_cases mk =
  List.map (fun (bname, b) -> (bname, fun () -> mk b ())) backends

let qsbr_only = List.filter (fun (n, _) -> n <> "ebr") backends

let () =
  (* Measure qsbr-tsc's skew bound now, before any test spawns a domain
     to load the box: Ordo's first [uncertainty] call runs the handshake
     and caches its result for every later instance. *)
  ignore (Hwts.Ordo.uncertainty ());
  let tc = Alcotest.test_case in
  Alcotest.run "reclaim"
    (List.map
       (fun (n, b) ->
         ( n,
           [
             tc "retire visible" `Quick (retire_visible b);
             tc "trim reclaims" `Quick (trim_reclaims b);
             tc "labeled cell poisoned" `Quick (labeled_cell_poisoned b);
             tc "stale thread blocks" `Slow (stale_thread_blocks b);
             tc "active op protects" `Slow (active_op_protects b);
             tc "read nesting" `Slow (read_nesting b);
             tc "new readers don't block" `Slow (new_readers_dont_block b);
             accounting b;
           ]
           @
           if n = "ebr" then [ tc "epoch advances" `Quick ebr_epoch_advances ]
           else [] ))
       backends
    @ [
      ( "rcu",
        [
          tc "nesting" `Quick rcu_nesting;
          tc "synchronize idle" `Quick rcu_synchronize_idle;
          tc "synchronize waits" `Slow rcu_synchronize_waits;
        ] );
      ( "lifecycle",
        List.map
          (fun (n, f) -> tc ("retire/free " ^ n) `Quick f)
          (backend_cases lifecycle)
        @ List.map
            (fun (n, f) -> tc ("self wait " ^ n) `Quick f)
            (backend_cases self_wait) );
      ( "grace",
        List.map
          (fun (n, b) -> tc ("starvation " ^ n) `Quick (starvation b))
          qsbr_only
        @ List.map
            (fun (n, b) ->
              tc ("waiter released " ^ n) `Quick (waiter_released b))
            qsbr_only
        @ List.map
            (fun (n, b) -> tc ("departed peer " ^ n) `Quick (departed_peer b))
            qsbr_only
        @ [ tc "near-wrap tsc stamps" `Quick near_wrap ] );
      ( "observability",
        [
          tc "rcu sync wait spins" `Quick sync_wait_spins_counted;
          tc "invariant degrades" `Quick invariant_degrades;
        ]
        @ List.map
            (fun (n, f) -> tc ("violations degrade " ^ n) `Quick f)
            (backend_cases violations_degrade) );
      ( "raise",
        List.map
          (fun (n, b) -> tc ("sections closed " ^ n) `Quick (closed_on_raise b))
          backends
        @ List.map
            (fun (n, reclaim) ->
              tc ("citrus-ebrrq assert " ^ n) `Quick
                (citrus_assert_closes reclaim))
            [ ("ebr", `Ebr); ("qsbr", `Qsbr); ("qsbr-tsc", `Qsbr_tsc) ] );
      ( "poison",
        List.map
          (fun (n, b) -> tc ("500 seeded rounds " ^ n) `Slow (poison_rounds b))
          backends
        @ List.concat_map
            (fun (rname, reclaim) ->
              List.map
                (fun s ->
                  tc
                    (Printf.sprintf "8-domain %s %s" s rname)
                    `Slow
                    (structure_poison s reclaim))
                [ "bst-ebrrq-lockfree"; "citrus-ebrrq" ])
            [ ("ebr", `Ebr); ("qsbr", `Qsbr); ("qsbr-tsc", `Qsbr_tsc) ] );
      ])
