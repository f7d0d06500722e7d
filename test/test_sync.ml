(* Tests for the synchronization substrate: backoff, slots, the
   reader-writer lock and the collection buffer. *)

(* ---------- backoff ---------- *)

let backoff_bounds () =
  let b = Sync.Backoff.make ~min_spins:2 ~max_spins:8 () in
  (* growth is internal; we only require it not to hang and reset to work *)
  for _ = 1 to 10 do
    Sync.Backoff.once b
  done;
  Sync.Backoff.reset b;
  Sync.Backoff.once b;
  Alcotest.(check pass) "ran" () ()

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

(* ---------- Key_run ---------- *)

module Key_run = Sync.Key_run

let uniq keys = Array.of_list (List.sort_uniq compare (Array.to_list keys))

(* [keys] pushed into a run for [lo, hi]: kept in push order and, up to
   100,000 keys (a heapsort of 1M scrambled keys takes seconds), sorted
   in place without duplicates. *)
let check_run what r ~lo ~hi keys =
  Key_run.reset r ~lo ~hi;
  Array.iter (Key_run.push r) keys;
  Alcotest.(check (array int)) (what ^ ": to_array") keys (Key_run.to_array r);
  if Array.length keys <= 100_000 then begin
    Key_run.sort_unique r;
    Alcotest.(check (array int)) (what ^ ": sort_unique") (uniq keys) (Key_run.to_array r)
  end

(* 4 bytes a key while [hi - lo] is below 2^32, 8 from 2^32 on, and 8
   for [min_int, max_int], whose difference overflows. *)
let key_run_width_edge () =
  let width what ~lo ~hi expect =
    Alcotest.(check int) what expect (Key_run.width (Key_run.make ~lo ~hi))
  in
  let span32 = 1 lsl 32 in
  width "a span of 2^32 - 1" ~lo:0 ~hi:(span32 - 1) 4;
  width "a span of 2^32" ~lo:0 ~hi:span32 8;
  width "a negative span of 2^32 - 1" ~lo:(-span32 + 1) ~hi:0 4;
  width "min_int, max_int" ~lo:min_int ~hi:max_int 8;
  width "min_int, 0" ~lo:min_int ~hi:0 8;
  width "2^32 - 1 above min_int" ~lo:min_int ~hi:(min_int + span32 - 1) 4;
  width "2^32 - 1 below max_int" ~lo:(max_int - span32 + 1) ~hi:max_int 4;
  width "one key" ~lo:5 ~hi:5 4;
  let r = Key_run.make ~lo:0 ~hi:0 in
  let lo = 1_000 in
  let hi = lo + span32 - 1 in
  check_run "the ends of a 2^32 - 1 span, and the middle" r ~lo ~hi
    [| lo; lo + 1; lo + (span32 / 2) - 1; lo + (span32 / 2); hi - 1; hi |];
  Alcotest.(check int) "held in 4 bytes" 4 (Key_run.width r);
  Alcotest.check_raises "a key past the span" (Invalid_argument "Key_run.push: key outside the run's span")
    (fun () -> Key_run.push r (hi + 1));
  Alcotest.check_raises "a key before the span" (Invalid_argument "Key_run.push: key outside the run's span")
    (fun () -> Key_run.push r (lo - 1))

let key_run_extremes () =
  let r = Key_run.make ~lo:0 ~hi:0 in
  check_run "min_int, max_int" r ~lo:min_int ~hi:max_int [| min_int; -1; 0; 1; max_int |];
  check_run "min_int, max_int, scrambled" r ~lo:min_int ~hi:max_int
    [| max_int; 0; min_int; max_int; -7; min_int; 7 |];
  check_run "negative keys, 4 bytes" r ~lo:(-5_000) ~hi:(-1)
    (Array.init 3_000 (fun i -> -1 - (i * 7 mod 4_999)));
  Alcotest.(check int) "negative span in 4 bytes" 4 (Key_run.width r);
  check_run "around zero" r ~lo:(-100) ~hi:100 [| -100; -1; 0; 1; 100; 0; -100 |];
  check_run "the top of the int range, 4 bytes" r ~lo:(max_int - 9) ~hi:max_int
    [| max_int; max_int - 9; max_int - 1; max_int |]

(* Segments double from 64 to 8192 keys, and hold 8192 from 16,320 keys
   on.  Fills on both sides of that change, at both widths, each in
   ascending and in scrambled order (duplicates included) and then
   refilled shorter, give exact results; a 4-byte run grown to 1M keys
   holds less than one 8192-key segment more than 0.5M words, plus a
   header and a spine slot per segment. *)
let key_run_fills () =
  let r = Key_run.make ~lo:0 ~hi:0 in
  let ascending i = (3 * i) + 1 and scrambled i = i * 7919 mod 4099 in
  List.iter
    (fun n ->
      List.iter
        (fun (order, f) ->
          List.iter
            (fun (span, lo, hi) ->
              let what = Printf.sprintf "%d %s, %s" n order span in
              check_run what r ~lo ~hi (Array.init n f);
              check_run (what ^ ", refilled with a third") r ~lo ~hi (Array.init (n / 3) f))
            [ ("4 bytes", 0, 4_000_000); ("8 bytes", min_int, max_int) ])
        [ ("ascending", ascending); ("scrambled", scrambled) ])
    [ 0; 64; 8191; 8192; 8193; 16_319; 16_320; 16_321; 1_000_000 ];
  let r = Key_run.make ~lo:0 ~hi:1_000_000 in
  for i = 0 to 999_999 do
    Key_run.push r i
  done;
  let words = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool)
    (Printf.sprintf "1M 4-byte keys retain %d words, at most 500,000 + 4096 + 512" words)
    true
    (words <= 500_000 + 4096 + 512)

let () =
  Alcotest.run "sync"
    [
      ( "primitives",
        [
          Alcotest.test_case "backoff" `Quick backoff_bounds;
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
      ( "key_run",
        [
          Alcotest.test_case "width edge at 2^32" `Quick key_run_width_edge;
          Alcotest.test_case "min_int, max_int and negative keys" `Quick key_run_extremes;
          Alcotest.test_case "fills across the segment sizes" `Quick key_run_fills;
        ] );
    ]
