(* Tests for the synchronization substrate: backoff, slots, the
   reader-writer lock, RDCSS. *)

(* ---------- backoff / padding ---------- *)

let backoff_bounds () =
  let b = Sync.Backoff.make ~min_spins:2 ~max_spins:8 () in
  (* growth is internal; we only require it not to hang and reset to work *)
  for _ = 1 to 10 do
    Sync.Backoff.once b
  done;
  Sync.Backoff.reset b;
  Sync.Backoff.once b;
  Alcotest.(check pass) "ran" () ()

let padding_array () =
  let arr = Sync.Padding.atomic_array 16 0 in
  Array.iteri (fun i a -> Atomic.set a i) arr;
  Array.iteri (fun i a -> Alcotest.(check int) "slot" i (Atomic.get a)) arr;
  Alcotest.(check bool) "distinct cells" true (arr.(0) != arr.(1))

let rand_seeded_deterministic () =
  Sync.Rand.set_seed 0xFEED;
  let a = List.init 64 (fun _ -> Sync.Rand.next ()) in
  Sync.Rand.set_seed 0xFEED;
  let b = List.init 64 (fun _ -> Sync.Rand.next ()) in
  Alcotest.(check (list int)) "same seed replays the same stream" a b;
  Sync.Rand.set_seed 0xBEEF;
  let c = List.init 64 (fun _ -> Sync.Rand.next ()) in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  List.iter
    (fun n ->
      for _ = 1 to 100 do
        let v = Sync.Rand.below n in
        if v < 0 || v >= n then
          Alcotest.failf "below %d returned %d (out of range)" n v
      done)
    [ 2; 3; 10; 1_000 ];
  Alcotest.(check int) "below 1 is 0" 0 (Sync.Rand.below 1);
  (* restore the global default so later suites see the usual jitter *)
  Sync.Rand.set_seed 0x5EED

let rand_streams_differ_across_domains () =
  (* Same reseed, two domains: each must get its own stream (slot-derived),
     or the jitter becomes a shared contention point.  The barrier keeps
     both alive at once so they hold distinct slots (a fast worker could
     otherwise release its slot for the second to reuse). *)
  Sync.Rand.set_seed 0xFEED;
  let up = Atomic.make 0 in
  let streams =
    Util.spawn_workers 2 (fun _ ->
        ignore (Atomic.fetch_and_add up 1);
        while Atomic.get up < 2 do
          Domain.cpu_relax ()
        done;
        List.init 32 (fun _ -> Sync.Rand.next ()))
  in
  (match streams with
  | [ s1; s2 ] ->
    Alcotest.(check bool) "per-domain streams differ" true (s1 <> s2)
  | _ -> Alcotest.fail "expected 2 worker streams");
  Sync.Rand.set_seed 0x5EED

(* ---------- slots ---------- *)

let slot_reuse () =
  let before = Sync.Slot.current () in
  let used =
    Util.spawn_workers 4 (fun _ ->
        match Sync.Slot.current () with
        | Some s -> s
        | None -> Alcotest.fail "spawn_workers should hold a slot")
  in
  List.iter (fun s -> Alcotest.(check bool) "valid" true (s >= 0 && s < 256)) used;
  (* after release, sequentially spawned domains can reuse low slots *)
  let again =
    Util.spawn_workers 1 (fun _ -> Option.get (Sync.Slot.current ()))
  in
  Alcotest.(check bool) "low slot reused" true (List.hd again < 8);
  Alcotest.(check bool) "main slot unchanged" true (Sync.Slot.current () = before)

let slot_nested () =
  ignore
    (Util.spawn_workers 1 (fun _ ->
         let s1 = Sync.Slot.my_slot () in
         Sync.Slot.with_slot (fun s2 ->
             Alcotest.(check int) "nested reuses same slot" s1 s2)))

(* ---------- mutual exclusion ---------- *)

let counter_under_lock ~lock ~unlock () =
  let counter = ref 0 in
  let per_domain = 20_000 in
  ignore
    (Util.spawn_workers 4 (fun _ ->
         for _ = 1 to per_domain do
           lock ();
           counter := !counter + 1;
           unlock ()
         done));
  Alcotest.(check int) "no lost updates" (4 * per_domain) !counter

let rwlock_mutex () =
  let l = Sync.Rwlock.make () in
  counter_under_lock
    ~lock:(fun () -> Sync.Rwlock.write_lock l)
    ~unlock:(fun () -> Sync.Rwlock.write_unlock l)
    ()

let rwlock_readers_and_writers () =
  let l = Sync.Rwlock.make () in
  let a = ref 0 and b = ref 0 in
  let torn = Atomic.make false in
  ignore
    (Util.spawn_workers 4 (fun me ->
         if me = 0 then
           for _ = 1 to 5_000 do
             Sync.Rwlock.with_write l (fun () ->
                 incr a;
                 incr b)
           done
         else
           for _ = 1 to 5_000 do
             Sync.Rwlock.with_read l (fun () ->
                 if !a <> !b then Atomic.set torn true)
           done));
  Alcotest.(check bool) "readers never saw a torn write" false
    (Atomic.get torn);
  Alcotest.(check int) "writer completed" 5_000 !a

let rwlock_writer_not_starved () =
  let l = Sync.Rwlock.make () in
  let stop = Atomic.make false in
  let acquired = Atomic.make false in
  ignore
    (Util.spawn_workers 3 (fun me ->
         if me < 2 then
           (* constant reader churn *)
           while not (Atomic.get stop) do
             Sync.Rwlock.with_read l (fun () -> ())
           done
         else begin
           Sync.Rwlock.with_write l (fun () -> Atomic.set acquired true);
           Atomic.set stop true
         end));
  Alcotest.(check bool) "writer acquired under reader churn" true
    (Atomic.get acquired)

(* A section whose body raises is released on the way out: a reader
   left counted, or the write bit left set, would block every later
   writer. *)
exception Body

let rwlock_released_on_raise () =
  let l = Sync.Rwlock.make () in
  let raises with_lock =
    match with_lock l (fun () -> raise Body) with
    | () -> false
    | exception Body -> true
  in
  Alcotest.(check bool) "with_read re-raises" true
    (raises Sync.Rwlock.with_read);
  Alcotest.(check int) "no reader left" 0 (Sync.Rwlock.readers l);
  Alcotest.(check bool) "with_write re-raises" true
    (raises Sync.Rwlock.with_write);
  Alcotest.(check bool) "write bit cleared" false (Sync.Rwlock.write_held l);
  Alcotest.(check int) "still no reader" 0 (Sync.Rwlock.readers l);
  Alcotest.(check bool) "free for a writer" true (Sync.Rwlock.try_write_lock l);
  Sync.Rwlock.write_unlock l

(* ---------- RDCSS ---------- *)

let rdcss_success () =
  let control = Atomic.make 7 in
  let loc = Sync.Rdcss.make "old" in
  let snap = Sync.Rdcss.read loc in
  Alcotest.(check string) "initial" "old" (Sync.Rdcss.value snap);
  (match
     Sync.Rdcss.rdcss ~control ~expected_control:7 ~loc ~expected:snap "new"
   with
  | Sync.Rdcss.Success -> ()
  | _ -> Alcotest.fail "expected success");
  Alcotest.(check string) "installed" "new" (Sync.Rdcss.get loc)

let rdcss_control_mismatch () =
  let control = Atomic.make 7 in
  let loc = Sync.Rdcss.make 1 in
  let snap = Sync.Rdcss.read loc in
  (match
     Sync.Rdcss.rdcss ~control ~expected_control:8 ~loc ~expected:snap 2
   with
  | Sync.Rdcss.Control_changed -> ()
  | _ -> Alcotest.fail "expected control_changed");
  Alcotest.(check int) "unchanged" 1 (Sync.Rdcss.get loc)

let rdcss_loc_mismatch () =
  let control = Atomic.make 0 in
  let loc = Sync.Rdcss.make 1 in
  let stale = Sync.Rdcss.read loc in
  let fresh = Sync.Rdcss.read loc in
  ignore
    (Sync.Rdcss.rdcss ~control ~expected_control:0 ~loc ~expected:fresh 2);
  (match Sync.Rdcss.rdcss ~control ~expected_control:0 ~loc ~expected:stale 3 with
  | Sync.Rdcss.Loc_changed -> ()
  | _ -> Alcotest.fail "expected loc_changed");
  Alcotest.(check int) "second write rejected" 2 (Sync.Rdcss.get loc)

(* Regression: a completed RDCSS must leave a plain value behind — an
   unfinished descriptor once made every subsequent read spin forever. *)
let rdcss_descriptor_cleared () =
  let control = Atomic.make 1 in
  let loc = Sync.Rdcss.make 0 in
  for i = 1 to 1_000 do
    let snap = Sync.Rdcss.read loc in
    ignore
      (Sync.Rdcss.rdcss ~control ~expected_control:1 ~loc ~expected:snap i);
    (* [get] must terminate and see the latest value *)
    Alcotest.(check int) "value visible" i (Sync.Rdcss.get loc)
  done

let rdcss_concurrent_single_winner () =
  let control = Atomic.make 1 in
  let loc = Sync.Rdcss.make 0 in
  let rounds = 2_000 in
  let wins =
    Util.spawn_workers 4 (fun me ->
        let mine = ref 0 in
        for round = 1 to rounds do
          let rec try_round () =
            let snap = Sync.Rdcss.read loc in
            if Sync.Rdcss.value snap >= round then ()
            else
              match
                Sync.Rdcss.rdcss ~control ~expected_control:1 ~loc
                  ~expected:snap round
              with
              | Sync.Rdcss.Success -> incr mine
              | Sync.Rdcss.Loc_changed -> try_round ()
              | Sync.Rdcss.Control_changed ->
                Alcotest.fail "control never changes here"
          in
          try_round ();
          ignore me
        done;
        !mine)
  in
  Alcotest.(check int) "final value" rounds (Sync.Rdcss.get loc);
  Alcotest.(check int) "every round had exactly one winner" rounds
    (List.fold_left ( + ) 0 wins)

let rdcss_concurrent_with_control_flips () =
  let control = Atomic.make 0 in
  let loc = Sync.Rdcss.make 0 in
  ignore
    (Util.spawn_workers 4 (fun me ->
         if me = 0 then
           for _ = 1 to 20_000 do
             Atomic.incr control
           done
         else
           for _ = 1 to 5_000 do
             let snap = Sync.Rdcss.read loc in
             let c = Atomic.get control in
             ignore
               (Sync.Rdcss.rdcss ~control ~expected_control:c ~loc
                  ~expected:snap (Sync.Rdcss.value snap + 1))
           done));
  (* whatever happened, the location must hold a readable value *)
  Alcotest.(check bool) "location readable" true (Sync.Rdcss.get loc >= 0)

let () =
  Alcotest.run "sync"
    [
      ( "primitives",
        [
          Alcotest.test_case "backoff" `Quick backoff_bounds;
          Alcotest.test_case "padding array" `Quick padding_array;
          Alcotest.test_case "seeded rand deterministic" `Quick
            rand_seeded_deterministic;
          Alcotest.test_case "rand streams differ across domains" `Quick
            rand_streams_differ_across_domains;
          Alcotest.test_case "slot reuse" `Quick slot_reuse;
          Alcotest.test_case "slot nesting" `Quick slot_nested;
        ] );
      ( "locks",
        [
          Alcotest.test_case "rwlock write mutual exclusion" `Slow rwlock_mutex;
          Alcotest.test_case "rwlock readers vs writer" `Slow
            rwlock_readers_and_writers;
          Alcotest.test_case "rwlock writer preference" `Slow
            rwlock_writer_not_starved;
          Alcotest.test_case "rwlock released on raise" `Quick
            rwlock_released_on_raise;
        ] );
      ( "rdcss",
        [
          Alcotest.test_case "success" `Quick rdcss_success;
          Alcotest.test_case "control mismatch" `Quick rdcss_control_mismatch;
          Alcotest.test_case "loc mismatch" `Quick rdcss_loc_mismatch;
          Alcotest.test_case "descriptor cleared (regression)" `Quick
            rdcss_descriptor_cleared;
          Alcotest.test_case "single winner per round" `Slow
            rdcss_concurrent_single_winner;
          Alcotest.test_case "concurrent control flips" `Slow
            rdcss_concurrent_with_control_flips;
        ] );
    ]
