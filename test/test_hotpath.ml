(* Tests for the hot-path overhaul: per-domain scratch reuse, the cached
   min-active pruning floor, and buffered range-query collection.

   The two mechanisms ship with runtime switches (HWTS_SCRATCH /
   Rq_registry.set_refresh_period), so the determinism tests run the
   same seeded operation script under both settings and require
   identical output. *)

module Key_run = Sync.Key_run

let with_scratch enabled f =
  let prev = Sync.Scratch.enabled () in
  Sync.Scratch.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Sync.Scratch.set_enabled prev) f

let with_refresh_period period f =
  let prev = Rangequery.Rq_registry.refresh_period () in
  Rangequery.Rq_registry.set_refresh_period period;
  Fun.protect
    ~finally:(fun () -> Rangequery.Rq_registry.set_refresh_period prev)
    f

(* ---------- Key_run ---------- *)

let allocated_words = Util.allocated_words

let fill r keys =
  Key_run.reset r ~lo:0 ~hi:1_000_000;
  Array.iter (Key_run.push r) keys

(* Segments hold 64, 128, 256, ... keys, so 64 and 192 are the first
   two boundaries. *)
let key_run_basics () =
  let r = Key_run.make ~lo:0 ~hi:0 in
  List.iter
    (fun n ->
      let keys = Array.init n (fun i -> (3 * i) + 1) in
      fill r keys;
      Alcotest.(check int) (Printf.sprintf "length %d" n) n (Key_run.length r);
      Alcotest.(check (array int))
        (Printf.sprintf "push order kept at %d" n)
        keys (Key_run.to_array r);
      if n > 0 then
        Alcotest.(check int) (Printf.sprintf "get of the last at %d" n) keys.(n - 1)
          (Key_run.get r (n - 1)))
    [ 0; 63; 64; 65; 192; 193; 10_000; 1 ];
  Key_run.reset r ~lo:0 ~hi:10;
  Alcotest.(check int) "reset" 0 (Key_run.length r);
  Alcotest.(check (array int)) "reset array" [||] (Key_run.to_array r);
  Key_run.push r 7;
  Alcotest.(check (array int)) "reusable after reset" [| 7 |] (Key_run.to_array r)

(* [sort_unique] leaves ascending, duplicate-free keys whatever the
   push order; a reset forgets an earlier out-of-order push. *)
let key_run_sorted () =
  let r = Key_run.make ~lo:0 ~hi:0 in
  let sorted keys =
    fill r (Array.of_list keys);
    Key_run.sort_unique r;
    Key_run.to_array r
  in
  Alcotest.(check (array int)) "empty" [||] (sorted []);
  Alcotest.(check (array int)) "ascending" [| 1; 2; 5; 9 |] (sorted [ 1; 2; 5; 9 ]);
  Alcotest.(check (array int)) "unordered" [| 1; 2; 5; 9 |] (sorted [ 5; 1; 9; 2 ]);
  Alcotest.(check (array int))
    "duplicates" [| 1; 3; 4 |] (sorted [ 1; 3; 3; 4; 1 ]);
  Alcotest.(check (array int)) "adjacent duplicate" [| 2 |] (sorted [ 2; 2 ]);
  Alcotest.(check (array int)) "after an unordered fill" [| 4; 6 |] (sorted [ 4; 6 ]);
  (* slot 63 ends the first segment, slot 64 starts the second *)
  let straddling = List.init 64 Fun.id @ [ 63 ] @ List.init 100 (fun i -> 64 + i) in
  Alcotest.(check (array int))
    "a pair straddling a segment boundary" (Array.init 164 Fun.id)
    (sorted straddling);
  let descending = List.init 500 (fun i -> 1_000 - (2 * i)) in
  Alcotest.(check (array int))
    "descending, each key twice, across four segments"
    (Array.of_list (List.rev descending))
    (sorted (descending @ descending));
  (* a sorted run takes further pushes after its last key *)
  ignore (sorted [ 9; 3; 3; 7 ]);
  Key_run.push r 12;
  Alcotest.(check (array int)) "pushed after the sort" [| 3; 7; 9; 12 |] (Key_run.to_array r)

(* Growth allocates a segment once; a reset keeps every segment, so a
   refill of the same length allocates nothing, and neither does an
   in-place sort. *)
let key_run_reuses_segments () =
  let r = Key_run.make ~lo:0 ~hi:0 in
  let keys = Array.init 10_000 Fun.id in
  fill r keys;
  let (), words = allocated_words (fun () -> fill r keys) in
  Alcotest.(check bool)
    (Printf.sprintf "refill of 10,000 allocated %d words" words)
    true (words <= 32);
  Alcotest.(check (array int)) "refill contents" keys (Key_run.to_array r);
  let scrambled = Array.init 10_000 (fun i -> i * 7919 mod 4099) in
  fill r scrambled;
  let (), words = allocated_words (fun () -> Key_run.sort_unique r) in
  Alcotest.(check int) "an in-place sort allocates nothing" 0 words;
  Alcotest.(check (array int)) "sorted contents" (Array.init 4099 Fun.id) (Key_run.to_array r)

(* A result is the caller's: writing into one leaves the run and every
   other result as they were. *)
let key_run_results_are_fresh () =
  let r = Key_run.make ~lo:0 ~hi:0 in
  List.iter
    (fun n ->
      let keys = Array.init n (fun i -> i + 1) in
      fill r keys;
      let r1 = Key_run.to_array r in
      let r2 = Key_run.to_array r in
      Alcotest.(check bool) "two results, two blocks" false (r1 == r2);
      Array.fill r1 0 n (-1);
      Alcotest.(check (array int)) "second result intact" keys r2;
      Array.fill r2 0 n (-2);
      Alcotest.(check (array int)) "run intact" keys (Key_run.to_array r);
      Key_run.push r (n + 1);
      Alcotest.(check (array int)) "an earlier result does not grow"
        (Array.make n (-2)) r2)
    [ 1; 64; 65; 10_000 ]

(* ---------- range answers allocate only themselves ---------- *)

(* After a warm-up read has grown this domain's scratch run, a [collect_at] of
   [n] keys allocates its [n]-slot answer and its header; a list cell or
   a growth copy would cost [n] more.  bst-vcas
   takes the ascending path, citrus-ebrrq the sorted one. *)
let collect_allocates_only_its_answer name () =
  with_scratch true @@ fun () ->
  let (module S) =
    (Workload.Targets.instance name `Logical).Workload.Targets.structure
  in
  let t = S.create () in
  let n = 5_000 in
  let keys = Array.init n (fun i -> i + 1) in
  Util.shuffle (Util.rng 0xA110C) keys;
  Array.iter (fun k -> ignore (S.insert t k)) keys;
  let s = S.snapshot t in
  ignore (S.collect_at t s ~lo:1 ~hi:n);
  let answer, words = allocated_words (fun () -> S.collect_at t s ~lo:1 ~hi:n) in
  S.snap_release t s;
  Alcotest.(check int) "answer length" n (Array.length answer);
  Alcotest.(check bool)
    (Printf.sprintf "%d keys cost %d words" n words)
    true
    (words <= n + 64)

(* ---------- point and update operations allocate no more ---------- *)

(* Words per [contains], per [insert]+[delete] pair of an absent key,
   per 100-key [collect_at] and per [delete]+[insert] pair of a present
   key on a prefilled tree under EBR and the logical clock, one domain.
   The last deletes inner nodes too, so on the Citrus trees it counts
   the relocation and its grace wait.  Allocation on one domain is
   deterministic once the skip lists' tower heights are: each case
   restarts the domain's height stream from its own seed, so a case
   reads the same whether it runs alone or after the others.  Each
   bound is the value measured when the structure's op paths were last
   changed: a node field, a closure or a boxed label added on any of
   these paths fails here without timing anything. *)
type op_words = {
  contains : float;
  pair : float;
  collect : float;
  moved : float;
}

let measure_op_words name =
  with_scratch true @@ fun () ->
  Dstruct.Skip_level.reseed 0x0A110C;
  let (module S) =
    (Workload.Targets.instance name `Logical).Workload.Targets.structure
  in
  let t = S.create () in
  let n = 4_096 and ops = 2_000 in
  (* even keys present, odd keys absent *)
  let keys = Array.init n (fun i -> 2 * (i + 1)) in
  Util.shuffle (Util.rng 0x0A110C) keys;
  Array.iter (fun k -> ignore (S.insert t k)) keys;
  let probe i = 1 + ((i * 7919) mod (2 * n)) in
  let per_op f =
    let (), words = allocated_words f in
    float_of_int words /. float_of_int ops
  in
  (* a warm-up round grows per-domain scratch and settles the clocks *)
  for i = 1 to ops do
    ignore (S.contains t (probe i))
  done;
  let contains =
    per_op (fun () ->
        for i = 1 to ops do
          ignore (S.contains t (probe i))
        done)
  in
  let absent i = (2 * (1 + ((i * 7919) mod n))) + 1 in
  for i = 1 to ops do
    ignore (S.insert t (absent i) && S.delete t (absent i))
  done;
  let pair =
    per_op (fun () ->
        for i = 1 to ops do
          ignore (S.insert t (absent i) && S.delete t (absent i))
        done)
  in
  let s = S.snapshot t in
  let lo i = 2 * (1 + ((i * 7919) mod (n - 100))) in
  ignore (S.collect_at t s ~lo:(lo 0) ~hi:(lo 0 + 199));
  let collect =
    per_op (fun () ->
        for i = 1 to ops do
          ignore (S.collect_at t s ~lo:(lo i) ~hi:(lo i + 199))
        done)
  in
  S.snap_release t s;
  let present i = 2 * (1 + ((i * 7919) mod n)) in
  let moved =
    per_op (fun () ->
        for i = 1 to ops do
          ignore (S.delete t (present i) && S.insert t (present i))
        done)
  in
  S.offline t;
  { contains; pair; collect; moved }

let op_words name ~contains ~pair ~collect ~moved () =
  let w = measure_op_words name in
  let check what bound w =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s %.2f words/op <= %.2f" name what w bound)
      true (w <= bound)
  in
  check "contains" contains w.contains;
  check "insert+delete" pair w.pair;
  check "collect_at" collect w.collect;
  check "present delete+insert" moved w.moved

(* A Citrus [contains] allocates at most twice what a bst-vcas one
   does, and at most one word when that is nothing. *)
let citrus_contains_like_bst () =
  let bst = (measure_op_words "bst-vcas").contains in
  let bound = Float.max 1. (2. *. bst) in
  List.iter
    (fun name ->
      let w = (measure_op_words name).contains in
      Alcotest.(check bool)
        (Printf.sprintf "%s contains %.2f words <= %.2f (bst-vcas %.2f)" name w
           bound bst)
        true (w <= bound))
    [ "citrus-vcas"; "citrus-bundle"; "citrus-ebrrq" ]

(* ---------- determinism: scratch reuse must be invisible ---------- *)

(* One seeded single-domain op script; returns every observable output:
   each op's result (booleans as 0/1, range queries as their key lists)
   plus the final contents. *)
let scripted_run (module S : Dstruct.Ordered_set.RQ) =
  let t = S.create () in
  let rng = Util.rng 0xBEEF in
  let outputs = ref [] in
  let emit l = outputs := l :: !outputs in
  for _ = 1 to 2_000 do
    let k = 1 + Dstruct.Prng.below rng 512 in
    match Dstruct.Prng.below rng 10 with
    | 0 | 1 | 2 -> emit [ (if S.insert t k then 1 else 0) ]
    | 3 | 4 -> emit [ (if S.delete t k then 1 else 0) ]
    | 5 -> emit (Array.to_list (S.range_query t ~lo:k ~hi:(k + 63)))
    | _ -> emit [ (if S.contains t k then 1 else 0) ]
  done;
  emit (S.to_list t);
  List.rev !outputs

let determinism_under_scratch name (make : (module Dstruct.Ordered_set.RQ)) ()
    =
  let on = with_scratch true (fun () -> scripted_run make) in
  let off = with_scratch false (fun () -> scripted_run make) in
  Alcotest.(check (list (list int)))
    (name ^ ": identical outputs with scratch reuse on and off")
    off on

(* ---------- prune safety: the cached floor may lag, never lead ---------- *)

(* 4 RQ domains announce and hold; 4 updater domains then hammer
   [min_active_cached] with fresh labels.  Every value served — cached,
   clamped, or freshly scanned — must stay <= the oldest announcement, or
   pruning could cut a version an active RQ still needs. *)
let prune_safety_stress () =
  with_refresh_period 64 @@ fun () ->
  let module L = Hwts.Timestamp.Logical () in
  let reg = Rangequery.Rq_registry.create () in
  (* stale the cache while no RQ is active: it now holds an old scan *)
  for _ = 1 to 200 do
    ignore (Rangequery.Rq_registry.min_active_cached reg ~default:(L.advance ()))
  done;
  let n_rq = 4 and n_upd = 4 in
  let announced = Atomic.make 0 in
  let release = Atomic.make false in
  let min_announced = Atomic.make max_int in
  let rq_domains =
    List.init n_rq (fun _ ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                let ts = Rangequery.Rq_registry.announce reg ~read:L.read in
                let rec fold () =
                  let cur = Atomic.get min_announced in
                  if
                    ts < cur
                    && not (Atomic.compare_and_set min_announced cur ts)
                  then fold ()
                in
                fold ();
                ignore (Atomic.fetch_and_add announced 1);
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done;
                Rangequery.Rq_registry.release reg ts)))
  in
  while Atomic.get announced < n_rq do
    Domain.cpu_relax ()
  done;
  let floor_bound = Atomic.get min_announced in
  let violations = Atomic.make 0 in
  let updaters =
    List.init n_upd (fun _ ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                for _ = 1 to 5_000 do
                  let label = L.advance () in
                  let floor =
                    Rangequery.Rq_registry.min_active_cached reg ~default:label
                  in
                  if floor > floor_bound then
                    ignore (Atomic.fetch_and_add violations 1)
                done)))
  in
  List.iter Domain.join updaters;
  Atomic.set release true;
  List.iter Domain.join rq_domains;
  Alcotest.(check int)
    "cached floor never exceeded the oldest active announcement" 0
    (Atomic.get violations);
  Alcotest.(check int) "all slots released" 0
    (Rangequery.Rq_registry.active_count reg)

(* ---------- slot release on exceptional range queries ---------- *)

(* A timestamp provider whose [snapshot] can be tripped to raise:
   structures call it after announcing the RQ, so a raising snapshot
   exercises the path on which the registry handle must give its
   announcement back. *)
module Trip_clock = struct
  let name = "trip"
  let is_hardware = false
  let clock = Atomic.make 1
  let trip = ref false
  let read () = Atomic.fetch_and_add clock 1 + 1
  let read_floor = read
  let advance = read
  let snapshot () = if !trip then raise Stdlib.Exit else read ()
end

let rq_slot_released_on_raise () =
  with_refresh_period 1 @@ fun () ->
  let module S = Rangequery.Bst_vcas.Make (Trip_clock) in
  let t = S.create () in
  for i = 1 to 64 do
    ignore (S.insert t i)
  done;
  Trip_clock.trip := true;
  (try
     ignore (S.range_query t ~lo:1 ~hi:64);
     Alcotest.fail "range_query should have propagated the raise"
   with Stdlib.Exit -> ());
  Trip_clock.trip := false;
  (* a leaked announcement would pin the pruning floor at the dead RQ's
     timestamp forever, so chains would grow without bound below *)
  for _ = 1 to 300 do
    ignore (S.insert t 42);
    ignore (S.delete t 42)
  done;
  let edges, versions = S.version_chain_stats t in
  Alcotest.(check bool)
    (Printf.sprintf "chains still pruned after raise (%d versions / %d edges)"
       versions edges)
    true
    (versions <= (edges * 3) + 8)

(* The derivation itself, against a stub core that counts acquisitions
   and releases and whose [collect_into] raises on demand: the raise must
   reach the caller, and the handle must be released exactly once on
   both exits. *)
module Counting_core = struct
  type t = { mutable acquired : int; mutable released : int }

  let name = "counting-stub"
  let create () = { acquired = 0; released = 0 }
  let insert _ _ = false
  let delete _ _ = false
  let contains _ _ = false
  let to_list _ = []
  let size _ = 0

  type snap = int

  let snapshot t =
    t.acquired <- t.acquired + 1;
    40 + t.acquired

  let snap_label s = s
  let snap_release t _ = t.released <- t.released + 1
  let lookup_at _ _ _ = false
  let collect_into _ _ ~lo ~hi run =
    if lo > hi then raise Stdlib.Exit;
    Key_run.push run hi;
    Key_run.push run lo
  let quiesce _ = ()
  let offline _ = ()
end

let derived_range_releases_once () =
  let module D = Dstruct.Ordered_set.Ranges (Counting_core) in
  let t = Counting_core.create () in
  (try
     ignore (D.range_query t ~lo:2 ~hi:1);
     Alcotest.fail "range_query should have propagated the raise"
   with Stdlib.Exit -> ());
  Alcotest.(check (pair int int)) "raise: one acquire, one release" (1, 1)
    (t.acquired, t.released);
  Alcotest.(check (pair int (array int))) "label and keys of the read" (42, [| 1; 2 |])
    (D.range_query_labeled t ~lo:1 ~hi:2);
  Alcotest.(check (pair int int)) "success: one acquire, one release" (2, 2)
    (t.acquired, t.released)

let () =
  Alcotest.run "hotpath"
    [
      ( "key-run",
        [
          Alcotest.test_case "push/grow/reset/order" `Quick key_run_basics;
          Alcotest.test_case "sort_unique" `Quick key_run_sorted;
          Alcotest.test_case "reset keeps the segments" `Quick key_run_reuses_segments;
          Alcotest.test_case "results share no storage" `Quick
            key_run_results_are_fresh;
        ] );
      ( "range-alloc",
        [
          Alcotest.test_case "bst-vcas collect_at" `Quick
            (collect_allocates_only_its_answer "bst-vcas");
          Alcotest.test_case "citrus-ebrrq collect_at" `Quick
            (collect_allocates_only_its_answer "citrus-ebrrq");
          Alcotest.test_case "bst-ebrrq-lockfree collect_at" `Quick
            (collect_allocates_only_its_answer "bst-ebrrq-lockfree");
        ] );
      ( "op-alloc",
        List.map
          (fun (name, contains, pair, collect, moved) ->
            Alcotest.test_case name `Quick
              (op_words name ~contains ~pair ~collect ~moved))
          [
            ("citrus-vcas", 0., 19., 101., 35.65);
            ("citrus-bundle", 0., 19., 101., 35.65);
            ("citrus-ebrrq", 0., 15., 101., 31.99);
            ("bst-vcas", 0., 20., 101., 20.);
            ("bst-ebrrq-lockfree", 0., 20., 101., 20.);
            ("skiplist-bundle", 0., 18.07, 101., 18.01);
            ("lazylist-bundle", 0., 17., 101., 17.);
            ("skiplist-vcas", 0., 24.19, 101., 24.08);
          ]
        @ [
            Alcotest.test_case "citrus contains <= 2x bst-vcas" `Quick
              citrus_contains_like_bst;
          ] );
      ( "determinism",
        [
          Alcotest.test_case "skiplist-vcas scratch on/off" `Quick
            (determinism_under_scratch "skiplist-vcas"
               (module Rangequery.Skiplist_vcas.Make (Hwts.Timestamp.Hardware)));
          Alcotest.test_case "skiplist-bundle scratch on/off" `Quick
            (determinism_under_scratch "skiplist-bundle"
               (module Rangequery.Skiplist_bundle.Make (Hwts.Timestamp.Hardware)));
          Alcotest.test_case "lazylist-bundle scratch on/off" `Quick
            (determinism_under_scratch "lazylist-bundle"
               (module Rangequery.Lazylist_bundle.Make (Hwts.Timestamp.Hardware)));
        ] );
      ( "prune-safety",
        [ Alcotest.test_case "8-domain stress" `Slow prune_safety_stress ] );
      ( "rq-slots",
        [
          Alcotest.test_case "released when traversal raises" `Quick
            rq_slot_released_on_raise;
          Alcotest.test_case "derived range releases once on raise" `Quick
            derived_range_releases_once;
        ] );
    ]
