(* Snapshot-consistency tests for the range-query ports.

   The strongest checks exploit serial writers:
   - a writer inserting keys one at a time means every snapshot must be a
     *prefix* of the insertion sequence (a later key implies all earlier);
   - a writer deleting serially means every snapshot is a *suffix*;
   - with a static backdrop and toggling filler keys, every snapshot must
     contain all static keys (catches torn traversals during tree
     restructuring) and nothing outside static ∪ toggles. *)

module type RQSET = Dstruct.Ordered_set.RQ

module L1 = Hwts.Timestamp.Logical ()
module L2 = Hwts.Timestamp.Logical ()
module L3 = Hwts.Timestamp.Logical ()
module L4 = Hwts.Timestamp.Logical ()
module L5 = Hwts.Timestamp.Logical ()
module L6 = Hwts.Timestamp.Logical ()
module L7 = Hwts.Timestamp.Logical ()
module L8 = Hwts.Timestamp.Logical ()
module H = Hwts.Timestamp.Hardware
module SH = Hwts.Timestamp.Strict_sharded (Hwts.Timestamp.Hardware) ()

module Bst_vcas_l = Rangequery.Bst_vcas.Make (L1)
module Bst_vcas_h = Rangequery.Bst_vcas.Make (H)
module Bst_vcas_sh = Rangequery.Bst_vcas.Make (SH)
module Ebr_b = Hwts_reclaim.Ebr_backend
module Citrus_vcas_l = Rangequery.Citrus_vcas.Make (Ebr_b) (L2)
module Citrus_vcas_h = Rangequery.Citrus_vcas.Make (Ebr_b) (H)
module Citrus_bundle_l = Rangequery.Citrus_bundle.Make (Ebr_b) (L3)
module Citrus_bundle_h = Rangequery.Citrus_bundle.Make (Ebr_b) (H)
module Citrus_ebrrq_l = Rangequery.Citrus_ebrrq.Make (Ebr_b) (L4)
module Citrus_ebrrq_h = Rangequery.Citrus_ebrrq.Make (Ebr_b) (H)
module Skiplist_bundle_l = Rangequery.Skiplist_bundle.Make (L5)
module Skiplist_bundle_h = Rangequery.Skiplist_bundle.Make (H)
module Skiplist_vcas_l = Rangequery.Skiplist_vcas.Make (L8)
module Skiplist_vcas_h = Rangequery.Skiplist_vcas.Make (H)
module Lazylist_bundle_l = Rangequery.Lazylist_bundle.Make (L6)
module Lazylist_bundle_h = Rangequery.Lazylist_bundle.Make (H)
module Bst_ebrrq_lf = Rangequery.Bst_ebrrq_lockfree.Make (Ebr_b) (L7)

(* A clock frozen at 7: every [advance] and [snapshot] ties. *)
let frozen () =
  let module F = Hwts.Timestamp.Mock () in
  F.set 7;
  F.freeze ();
  (module F : Hwts.Timestamp.S)

(* §III-A failure injection for the strict provider: its clock is frozen,
   so every raw stamp ties and every label comes from the within-domain
   bump or the catch-up past the shared word.  Unlike a raw frozen clock
   (the forced-ties group below), the strict labels must keep every
   snapshot consistent: bundles label with [advance], which is strictly
   above every earlier [read], and vCAS and EBR-RQ label with [read],
   which is strictly above every published label, the last snapshot's
   included, though the clock never moves. *)
let frozen_strict () =
  let module F = (val frozen ()) in
  (module Hwts.Timestamp.Strict_sharded (F) () : Hwts.Timestamp.S)

module SF = (val frozen_strict ())
module Citrus_bundle_sf = Rangequery.Citrus_bundle.Make (Ebr_b) (SF)
module Skiplist_bundle_sf = Rangequery.Skiplist_bundle.Make (SF)
module Lazylist_bundle_sf = Rangequery.Lazylist_bundle.Make (SF)
module Bst_vcas_sf = Rangequery.Bst_vcas.Make (SF)
module Skiplist_vcas_sf = Rangequery.Skiplist_vcas.Make (SF)
module Citrus_vcas_sf = Rangequery.Citrus_vcas.Make (Ebr_b) (SF)
module Citrus_ebrrq_sf = Rangequery.Citrus_ebrrq.Make (Ebr_b) (SF)

let impls : (module RQSET) list =
  [
    (module Bst_vcas_l);
    (module Bst_vcas_h);
    (module Bst_vcas_sh);
    (module Citrus_vcas_l);
    (module Citrus_vcas_h);
    (module Citrus_bundle_l);
    (module Citrus_bundle_h);
    (module Citrus_ebrrq_l);
    (module Citrus_ebrrq_h);
    (module Skiplist_bundle_l);
    (module Skiplist_bundle_h);
    (module Skiplist_vcas_l);
    (module Skiplist_vcas_h);
    (module Lazylist_bundle_l);
    (module Lazylist_bundle_h);
    (module Bst_ebrrq_lf);
    (module Citrus_bundle_sf);
    (module Skiplist_bundle_sf);
    (module Lazylist_bundle_sf);
    (module Bst_vcas_sf);
    (module Skiplist_vcas_sf);
    (module Citrus_vcas_sf);
    (module Citrus_ebrrq_sf);
  ]

(* ---------- sequential semantics ---------- *)

let sequential_rq (module S : RQSET) () =
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 20; 30; 40; 50 ];
  Alcotest.(check (array int)) "inner" [| 20; 30; 40 |] (S.range_query t ~lo:20 ~hi:40);
  Alcotest.(check (array int)) "inclusive lo/hi" [| 10; 20; 30; 40; 50 |]
    (S.range_query t ~lo:10 ~hi:50);
  Alcotest.(check (array int)) "empty below" [||] (S.range_query t ~lo:1 ~hi:9);
  Alcotest.(check (array int)) "empty above" [||] (S.range_query t ~lo:51 ~hi:99);
  Alcotest.(check (array int)) "point hit" [| 30 |] (S.range_query t ~lo:30 ~hi:30);
  Alcotest.(check (array int)) "point miss" [||] (S.range_query t ~lo:31 ~hi:31);
  ignore (S.delete t 30);
  Alcotest.(check (array int)) "after delete" [| 20; 40 |] (S.range_query t ~lo:20 ~hi:40)

(* A snapshot holds the state it was taken at: a key inserted after it
   is not in it, and a key deleted after it still is. *)
let updates_after_snapshot (module S : RQSET) () =
  let t = S.create () in
  ignore (S.insert t 10);
  let s = S.snapshot t in
  Alcotest.(check bool) "insert after the snapshot" true (S.insert t 20);
  Alcotest.(check bool) "delete after the snapshot" true (S.delete t 10);
  Alcotest.(check bool) "lookup_at of the later key" false (S.lookup_at t s 20);
  Alcotest.(check bool) "lookup_at of the deleted key" true
    (S.lookup_at t s 10);
  Alcotest.(check (array int)) "collect_at" [| 10 |]
    (S.collect_at t s ~lo:0 ~hi:100);
  S.snap_release t s;
  Alcotest.(check (list int)) "current state" [ 20 ] (S.to_list t)

let quiescent_matches_contents (module S : RQSET) =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (pair bool (int_range 1 80)))
        (pair (int_range 1 80) (int_range 0 40)))
  in
  Util.qcheck ~count:100
    (S.name ^ " quiescent RQ = filtered contents")
    gen
    (fun (ops, (lo0, width)) ->
      let t = S.create () in
      List.iter
        (fun (ins, k) -> if ins then ignore (S.insert t k) else ignore (S.delete t k))
        ops;
      let lo = lo0 and hi = lo0 + width in
      let expected = List.filter (fun k -> k >= lo && k <= hi) (S.to_list t) in
      Array.to_list (S.range_query t ~lo ~hi) = expected)

(* ---------- concurrent snapshot consistency ---------- *)

let is_prefix_of seq snapshot =
  let n = List.length snapshot in
  let prefix = List.filteri (fun i _ -> i < n) seq in
  List.sort compare prefix = snapshot

let prefix_consistency (module S : RQSET) () =
  let t = S.create () in
  let n = 300 in
  let rng = Util.rng 42 in
  (* a pseudo-random permutation of 3, 6, ..., 3n *)
  let seq = Array.init n (fun i -> 3 * (i + 1)) in
  for i = n - 1 downto 1 do
    let j = Dstruct.Prng.below rng (i + 1) in
    let tmp = seq.(i) in
    seq.(i) <- seq.(j);
    seq.(j) <- tmp
  done;
  let seq = Array.to_list seq in
  let stop = Atomic.make false in
  let bad = Atomic.make None in
  let results =
    Util.spawn_workers 2 (fun me ->
        if me = 0 then begin
          List.iter (fun k -> ignore (S.insert t k)) seq;
          Atomic.set stop true;
          0
        end
        else begin
          let count = ref 0 in
          while not (Atomic.get stop) do
            let snapshot = Array.to_list (S.range_query t ~lo:1 ~hi:(3 * n)) in
            incr count;
            if not (is_prefix_of seq snapshot) then
              Atomic.set bad (Some snapshot)
          done;
          !count
        end)
  in
  (match Atomic.get bad with
  | Some snapshot ->
    Alcotest.failf "%s: snapshot is not an insertion prefix (%d keys)" S.name
      (List.length snapshot)
  | None -> ());
  Alcotest.(check bool) "reader ran" true (List.nth results 1 >= 0);
  Alcotest.(check (array int)) "final"
    (Array.of_list (List.sort compare seq))
    (S.range_query t ~lo:1 ~hi:(3 * n))

let is_suffix_of seq snapshot =
  let total = List.length seq in
  let n = List.length snapshot in
  let suffix = List.filteri (fun i _ -> i >= total - n) seq in
  List.sort compare suffix = snapshot

let suffix_consistency (module S : RQSET) () =
  let t = S.create () in
  let n = 300 in
  let rng = Util.rng 43 in
  let seq = Array.init n (fun i -> 3 * (i + 1)) in
  for i = n - 1 downto 1 do
    let j = Dstruct.Prng.below rng (i + 1) in
    let tmp = seq.(i) in
    seq.(i) <- seq.(j);
    seq.(j) <- tmp
  done;
  let seq = Array.to_list seq in
  List.iter (fun k -> ignore (S.insert t k)) seq;
  let stop = Atomic.make false in
  let bad = Atomic.make None in
  ignore
    (Util.spawn_workers 2 (fun me ->
         if me = 0 then begin
           List.iter (fun k -> ignore (S.delete t k)) seq;
           Atomic.set stop true
         end
         else
           while not (Atomic.get stop) do
             let snapshot = Array.to_list (S.range_query t ~lo:1 ~hi:(3 * n)) in
             if not (is_suffix_of seq snapshot) then
               Atomic.set bad (Some snapshot)
           done));
  (match Atomic.get bad with
  | Some snapshot ->
    Alcotest.failf "%s: snapshot is not a deletion suffix (%d keys)" S.name
      (List.length snapshot)
  | None -> ());
  Alcotest.(check (array int)) "emptied" [||] (S.range_query t ~lo:1 ~hi:(3 * n))

(* Static backdrop keys must appear in *every* snapshot while filler keys
   toggle around them — this hammers the Citrus successor relocation and
   the skip list unlink paths. *)
let static_backdrop (module S : RQSET) () =
  let t = S.create () in
  let statics = List.init 60 (fun i -> (i + 1) * 10) in
  let toggles = List.init 59 (fun i -> ((i + 1) * 10) + 5) in
  List.iter (fun k -> ignore (S.insert t k)) statics;
  let stop = Atomic.make false in
  let bad = Atomic.make None in
  let static_sorted = List.sort compare statics in
  let allowed = List.sort compare (statics @ toggles) in
  ignore
    (Util.spawn_workers 4 (fun me ->
         if me < 2 then begin
           (* writers toggle filler keys *)
           let rng = Util.rng (500 + me) in
           for _ = 1 to 2_000 do
             let k = List.nth toggles (Dstruct.Prng.below rng (List.length toggles)) in
             if Dstruct.Prng.below rng 2 = 0 then ignore (S.insert t k)
             else ignore (S.delete t k)
           done;
           if me = 0 then Atomic.set stop true
         end
         else
           while not (Atomic.get stop) do
             let snapshot = Array.to_list (S.range_query t ~lo:1 ~hi:1000) in
             let sorted = List.sort_uniq compare snapshot in
             if sorted <> snapshot then
               Atomic.set bad (Some ("unsorted/dup", snapshot));
             if List.exists (fun k -> not (List.mem k snapshot)) static_sorted
             then Atomic.set bad (Some ("missing static", snapshot));
             if List.exists (fun k -> not (List.mem k allowed)) snapshot then
               Atomic.set bad (Some ("alien key", snapshot))
           done));
  match Atomic.get bad with
  | Some (why, snapshot) ->
    Alcotest.failf "%s: %s (snapshot size %d)" S.name why (List.length snapshot)
  | None -> ()

(* §III-A failure injection: drive each technique with a frozen clock so
   every label and every snapshot tie.  Sequential semantics must be
   unaffected (chain order disambiguates), and concurrent use must neither
   crash nor hang.  [clock] builds the provider under test over a fresh
   frozen clock. *)
let forced_ties_sequential clock () =
  let module Frozen = (val clock () : Hwts.Timestamp.S) in
  let checks = ref 0 in
  let check (module S : RQSET) =
    let t = S.create () in
    List.iter (fun k -> ignore (S.insert t k)) [ 5; 1; 9; 3; 7 ];
    ignore (S.delete t 3);
    Alcotest.(check (array int)) (S.name ^ " under 100% ties") [| 1; 5; 7; 9 |]
      (S.range_query t ~lo:0 ~hi:100);
    Alcotest.(check bool) (S.name ^ " contains") true (S.contains t 9);
    incr checks
  in
  let module B = Rangequery.Bst_vcas.Make (Frozen) in
  let module C = Rangequery.Citrus_vcas.Make (Ebr_b) (Frozen) in
  let module D = Rangequery.Citrus_bundle.Make (Ebr_b) (Frozen) in
  let module E = Rangequery.Citrus_ebrrq.Make (Ebr_b) (Frozen) in
  let module F = Rangequery.Skiplist_bundle.Make (Frozen) in
  let module G = Rangequery.Skiplist_vcas.Make (Frozen) in
  let module H = Rangequery.Lazylist_bundle.Make (Frozen) in
  check (module B);
  check (module C);
  check (module D);
  check (module E);
  check (module F);
  check (module G);
  check (module H);
  Alcotest.(check int) "all techniques exercised" 7 !checks

let forced_ties_concurrent_smoke clock () =
  let module Frozen = (val clock () : Hwts.Timestamp.S) in
  let module S = Rangequery.Bst_vcas.Make (Frozen) in
  let t = S.create () in
  let strays =
    Util.spawn_workers 3 (fun me ->
        let rng = Util.rng (me + 400) in
        let strays = ref 0 in
        for _ = 1 to 2_000 do
          let k = 1 + Dstruct.Prng.below rng 100 in
          match Dstruct.Prng.below rng 4 with
          | 0 -> ignore (S.insert t k)
          | 1 -> ignore (S.delete t k)
          | 2 -> ignore (S.contains t k)
          | _ ->
            (* Under total ties a concurrent answer may be torn — unsorted
               or duplicated, §III-A's tie failure — so only its bounds
               are asserted. *)
            let snap = S.range_query t ~lo:k ~hi:(k + 20) in
            if Array.exists (fun x -> x < k || x > k + 20) snap then incr strays
        done;
        !strays)
  in
  Alcotest.(check (list int)) "answers stay in bounds" [ 0; 0; 0 ] strays;
  Util.check_sorted_unique "post-tie state" (S.to_list t)

let per_impl (module S : RQSET) =
  let t name speed f = Alcotest.test_case (S.name ^ ": " ^ name) speed f in
  [
    t "sequential rq" `Quick (sequential_rq (module S));
    t "updates after a snapshot" `Quick (updates_after_snapshot (module S));
    quiescent_matches_contents (module S);
    t "prefix consistency" `Slow (prefix_consistency (module S));
    t "suffix consistency" `Slow (suffix_consistency (module S));
    t "static backdrop" `Slow (static_backdrop (module S));
  ]

(* ---------- the bundled lists: an insert parked after its labels ----------

   An insert takes its stamp, labels the new node's own link, links the
   node, labels its predecessor's link, then passes its last pause point
   (the 4th: the predecessor link's install and the two labels come
   first).  A node of level 0 is created fully linked; the insert of a
   node above level 0 sets [fully_linked] after that point. *)

let spawn f = Domain.spawn (fun () -> Sync.Slot.with_slot (fun _ -> f ()))

(* [insert] on a fresh domain, once it is parked at its last pause point. *)
let parked_insert insert =
  Sync.Pause.park_at 4;
  let inserter = spawn insert in
  while not (Sync.Pause.parked ()) do
    Domain.cpu_relax ()
  done;
  inserter

(* [read] on a fresh domain; whether it answered within [wait] seconds,
   and the domain. *)
let answered_within wait read =
  let answered = Atomic.make false in
  let reader =
    spawn (fun () ->
        let r = read () in
        Atomic.set answered true;
        r)
  in
  let deadline = Unix.gettimeofday () +. wait in
  while (not (Atomic.get answered)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  (Atomic.get answered, reader)

(* [t] holds 10 and 30, and [inserter] is parked inserting 20 as a node
   of level 0: [contains] and a snapshot's [lookup_at] both see 20 while
   it is parked, with no wait. *)
let level0_seen_at_once (type a) (module S : RQSET with type t = a) (t : a)
    inserter =
  let early, reader =
    answered_within 5. (fun () ->
        let found = S.contains t 20 in
        let snap = S.snapshot t in
        let seen = S.lookup_at t snap 20 in
        S.snap_release t snap;
        (found, seen))
  in
  Sync.Pause.unpark ();
  let inserted = Domain.join inserter in
  let found, seen = Domain.join reader in
  Alcotest.(check bool) "answered while the insert is parked" true early;
  Alcotest.(check bool) "contains" true found;
  Alcotest.(check bool) "the snapshot holds the linked key" true seen;
  Alcotest.(check bool) "insert" true inserted;
  Alcotest.(check (list int)) "final" [ 10; 20; 30 ] (S.to_list t)

let lazylist_bundle_sees_level0_insert () =
  let module LB = Hwts.Timestamp.Logical () in
  let module S = Rangequery.Lazylist_bundle.Make (LB) in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 30 ];
  level0_seen_at_once (module S) t (parked_insert (fun () -> S.insert t 20))

(* An insert above level 0 parked before [fully_linked]: a snapshot
   taken then holds the key, so [contains] and [delete] must agree with
   it.  They wait for the inserter instead of answering "absent"; the
   reader gets 200 ms to answer early, which it may only do wrongly.
   Each attempt's inserter is a fresh domain, with its own stream of
   level draws; an insert that drew level 0 shows in [to_list] while
   parked, and is checked as one. *)
let skiplist_bundle_waits_for_upper_insert () =
  let module LB = Hwts.Timestamp.Logical () in
  let module S = Rangequery.Skiplist_bundle.Make (LB) in
  let rec attempt left =
    let t = S.create () in
    List.iter (fun k -> ignore (S.insert t k)) [ 10; 30 ];
    let inserter = parked_insert (fun () -> S.insert t 20) in
    if List.mem 20 (S.to_list t) then begin
      level0_seen_at_once (module S) t inserter;
      if left = 0 then Alcotest.fail "no insert drew a level above 0";
      attempt (left - 1)
    end
    else begin
      let snap = S.snapshot t in
      let seen = S.lookup_at t snap 20 in
      S.snap_release t snap;
      let early, reader =
        answered_within 0.2 (fun () ->
            let found = S.contains t 20 in
            let deleted = S.delete t 20 in
            (found, deleted))
      in
      Sync.Pause.unpark ();
      let inserted = Domain.join inserter in
      let found, deleted = Domain.join reader in
      Alcotest.(check bool) "the snapshot holds the labeled key" true seen;
      Alcotest.(check bool) "no answer while the insert is parked" false early;
      Alcotest.(check bool) "contains" true found;
      Alcotest.(check bool) "delete" true deleted;
      Alcotest.(check bool) "insert" true inserted;
      Alcotest.(check (list int)) "final" [ 10; 30 ] (S.to_list t)
    end
  in
  attempt 40

(* ---------- citrus-vcas: unlocked reads of a pending head ----------

   An insert installs its edge's pending head, writes the raw link, then
   labels the head.  The inserter is parked right after the head is
   installed.  From another domain, [contains] then [range_query], then
   the same two in the reverse order: a key one of them sees, no later
   one may miss.  A find that followed raw links would miss the key
   after a snapshot had helped label it and seen it. *)
let citrus_vcas_reads_agree_on_pending_insert () =
  let module LV = Hwts.Timestamp.Logical () in
  let module S = Rangequery.Citrus_vcas.Make (Ebr_b) (LV) in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 30 ];
  (* the insert's first point follows the install of its pending head *)
  Sync.Pause.park_at 1;
  let inserter = spawn (fun () -> S.insert t 20) in
  while not (Sync.Pause.parked ()) do
    Domain.cpu_relax ()
  done;
  let reads =
    Domain.join
      (spawn (fun () ->
           let contains () = S.contains t 20 in
           let ranged () = Array.mem 20 (S.range_query t ~lo:0 ~hi:100) in
           let c1 = contains () in
           let r1 = ranged () in
           let r2 = ranged () in
           let c2 = contains () in
           [ c1; r1; r2; c2 ]))
  in
  Sync.Pause.unpark ();
  let inserted = Domain.join inserter in
  let rec monotone = function
    | true :: false :: _ -> false
    | _ :: rest -> monotone rest
    | [] -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "no read misses a key an earlier one saw (%s)"
       (String.concat " " (List.map string_of_bool reads)))
    true (monotone reads);
  Alcotest.(check bool) "insert" true inserted;
  Alcotest.(check (list int)) "final" [ 10; 20; 30 ] (S.to_list t)

let () =
  Alcotest.run "rangequery"
    [
      ("snapshots", List.concat_map per_impl impls);
      ( "forced-ties",
        [
          Alcotest.test_case "sequential under 100% ties" `Quick
            (forced_ties_sequential frozen);
          Alcotest.test_case "strict provider sequential under 100% ties"
            `Quick
            (forced_ties_sequential frozen_strict);
          Alcotest.test_case "concurrent smoke under ties" `Slow
            (forced_ties_concurrent_smoke frozen);
          Alcotest.test_case "strict provider concurrent smoke under ties"
            `Slow
            (forced_ties_concurrent_smoke frozen_strict);
        ] );
      ( "visibility",
        [
          Alcotest.test_case "skiplist-bundle point ops wait for an insert"
            `Quick skiplist_bundle_waits_for_upper_insert;
          Alcotest.test_case "lazylist-bundle sees a level-0 insert at once"
            `Quick lazylist_bundle_sees_level0_insert;
          Alcotest.test_case "citrus-vcas reads agree on a pending insert"
            `Quick citrus_vcas_reads_agree_on_pending_insert;
        ] );
    ]
