(* Tests for the synchronization substrate: backoff, slots, the
   reader-writer lock and the collection buffer. *)

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

(* ---------- Int_buffer ---------- *)

module Int_buffer = Sync.Scratch.Int_buffer

(* Segments double from 64 to 8192 slots, and hold 8192 from 16,320
   keys on.  Fills on both sides of that change, each in ascending and
   in scrambled order (duplicates included) and then refilled shorter,
   give exact results; a buffer grown to 1M keys holds less than one
   segment more, plus a header and a spine slot per segment. *)
let int_buffer_fills () =
  let b = Int_buffer.create () in
  let fill n f =
    Int_buffer.clear b;
    for i = 0 to n - 1 do
      Int_buffer.push b (f i)
    done
  in
  let check what n f =
    let want = Array.init n f in
    Alcotest.(check (array int)) (what ^ ": to_array") want (Int_buffer.to_array b);
    let sorted = Array.copy want in
    Array.sort compare sorted;
    let uniq = List.sort_uniq compare (Array.to_list sorted) in
    Alcotest.(check (array int))
      (what ^ ": to_sorted_array") (Array.of_list uniq)
      (Int_buffer.to_sorted_array b)
  in
  let ascending i = (3 * i) + 1 and scrambled i = i * 7919 mod 4099 in
  List.iter
    (fun n ->
      List.iter
        (fun (order, f) ->
          let what = Printf.sprintf "%d %s" n order in
          fill n f;
          check what n f;
          fill (n / 3) f;
          check (what ^ ", refilled with a third") (n / 3) f)
        [ ("ascending", ascending); ("scrambled", scrambled) ])
    [ 0; 64; 8191; 8192; 8193; 16_319; 16_320; 16_321; 1_000_000 ];
  fill 1_000_000 Fun.id;
  let words = Obj.reachable_words (Obj.repr b) in
  Alcotest.(check bool)
    (Printf.sprintf "1M keys retain %d words, at most 1M + 8192 + 512" words)
    true
    (words <= 1_000_000 + 8192 + 512)

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
      ( "int_buffer",
        [ Alcotest.test_case "fills across the segment sizes" `Quick int_buffer_fills ]
      );
    ]
