(* Tests for the core timestamp providers. *)

let logical_basics () =
  let module L = Hwts.Timestamp.Logical () in
  Alcotest.(check int) "initial read" 1 (L.read ());
  Alcotest.(check int) "first advance" 2 (L.advance ());
  Alcotest.(check int) "second advance" 3 (L.advance ());
  Alcotest.(check int) "read after" 3 (L.read ());
  Alcotest.(check bool) "not hardware" false L.is_hardware

let logical_instances_independent () =
  let module A = Hwts.Timestamp.Logical () in
  let module B = Hwts.Timestamp.Logical () in
  ignore (A.advance ());
  ignore (A.advance ());
  Alcotest.(check int) "B untouched" 1 (B.read ())

let logical_unique_across_domains () =
  let module L = Hwts.Timestamp.Logical () in
  let per_domain = 5_000 in
  let results =
    Util.spawn_workers 4 (fun _ -> List.init per_domain (fun _ -> L.advance ()))
  in
  let all = List.concat results in
  let unique = List.sort_uniq compare all in
  Alcotest.(check int) "all advances unique" (4 * per_domain)
    (List.length unique);
  List.iter
    (fun seq ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-thread increasing" true (increasing seq))
    results

let logical_snapshot_excludes_later_labels () =
  (* regression for the torn-snapshot bug: a snapshot must be strictly
     below every label assigned after it *)
  let module L = Hwts.Timestamp.Logical () in
  let s = L.snapshot () in
  Alcotest.(check int) "pre-increment value" 1 s;
  Alcotest.(check bool) "later label reads above" true (L.read () > s);
  let s2 = L.snapshot () in
  Alcotest.(check bool) "snapshots strictly increase" true (s2 > s);
  Alcotest.(check bool) "advance above snapshot" true (L.advance () > s2)

let hardware_snapshot () =
  let s = Hwts.Timestamp.Hardware.snapshot () in
  Alcotest.(check bool) "later reads not below" true
    (Hwts.Timestamp.Hardware.read () >= s)

let hardware_monotone () =
  let last = ref 0 in
  for _ = 1 to 10_000 do
    let v = Hwts.Timestamp.Hardware.advance () in
    if v < !last then Alcotest.fail "hardware timestamp went backwards";
    last := v
  done;
  Alcotest.(check bool) "hardware flag" true Hwts.Timestamp.Hardware.is_hardware

let hardware_cross_domain_monotone () =
  (* With invariant TSC and fenced reads, a value observed by one domain
     after joining another domain's last read must not be smaller. *)
  let d = Domain.spawn (fun () -> Hwts.Timestamp.Hardware.advance ()) in
  let other = Domain.join d in
  let mine = Hwts.Timestamp.Hardware.advance () in
  Alcotest.(check bool) "synchronized across domains" true (mine >= other)

let strict_strictly_increasing () =
  let module Frozen = Hwts.Timestamp.Mock () in
  Frozen.set 50;
  Frozen.freeze ();
  let module S = Hwts.Timestamp.Strict (Frozen) () in
  let a = S.advance () in
  let b = S.advance () in
  let c = S.advance () in
  Alcotest.(check bool) "a<b<c despite frozen base" true (a < b && b < c)

let strict_concurrent_unique () =
  let module S = Hwts.Timestamp.Strict (Hwts.Timestamp.Hardware) () in
  let per_domain = 3_000 in
  let results =
    Util.spawn_workers 4 (fun _ -> List.init per_domain (fun _ -> S.advance ()))
  in
  let all = List.concat results in
  Alcotest.(check int) "strict advances unique" (4 * per_domain)
    (List.length (List.sort_uniq compare all))

let strict_sharded_strictly_increasing () =
  (* Frozen base clock: every strictness guarantee must come from the
     wrapper's own bumping, none from the TSC moving. *)
  let module Frozen = Hwts.Timestamp.Mock () in
  Frozen.set 50;
  Frozen.freeze ();
  let module S = Hwts.Timestamp.Strict_sharded (Frozen) () in
  Sync.Slot.with_slot @@ fun _ ->
  let last = ref 0 in
  for _ = 1 to 10_000 do
    let l = S.advance () in
    if l <= !last then Alcotest.fail "sharded label not strictly increasing";
    last := l;
    if S.read () < l then Alcotest.fail "read fell below a published label"
  done

let strict_sharded_across_domains () =
  (* 8 domains race on [advance]; each checks its fresh label against the
     global maximum of *completed* advances (an atomic-max register read
     before, updated after).  A label seen in [seen] was published before
     this advance began, so strict cross-domain monotonicity requires the
     new label to exceed it; any <= is a violation.  Labels must also be
     globally unique (the slot-id low bits). *)
  let module S = Hwts.Timestamp.Strict_sharded (Hwts.Timestamp.Hardware) () in
  let per_domain = 5_000 in
  let seen = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let results =
    Util.spawn_workers 8 (fun _ ->
        List.init per_domain (fun _ ->
            let s = Atomic.get seen in
            let l = S.advance () in
            if l <= s then ignore (Atomic.fetch_and_add violations 1);
            let rec fold () =
              let cur = Atomic.get seen in
              if l > cur && not (Atomic.compare_and_set seen cur l) then fold ()
            in
            fold ();
            l))
  in
  Alcotest.(check int) "no cross-domain monotonicity violation" 0
    (Atomic.get violations);
  let all = List.concat results in
  Alcotest.(check int) "sharded labels unique across 8 domains"
    (8 * per_domain)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun seq ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-domain strictly increasing" true
        (increasing seq))
    results

(* ---------- provider zoo: delayed / multislot / tl2 ---------- *)

(* Shared harness for the zoo's cross-domain monotonicity discipline:
   8 domains race on [advance]; each checks its fresh label against an
   atomic-max register of *completed* labels.  [strict] demands the new
   label exceed every completed one (delayed/multislot: the stamp is past
   the label by completion time); tl2-family labels tie across domains
   within an epoch, so those runs only reject l < s. *)
let zoo_across_domains ~strict advance =
  let per_domain = 5_000 in
  let seen = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let results =
    Util.spawn_workers 8 (fun _ ->
        List.init per_domain (fun _ ->
            let s = Atomic.get seen in
            let l = advance () in
            if (if strict then l <= s else l < s) then
              ignore (Atomic.fetch_and_add violations 1);
            let rec fold () =
              let cur = Atomic.get seen in
              if l > cur && not (Atomic.compare_and_set seen cur l) then fold ()
            in
            fold ();
            l))
  in
  Alcotest.(check int) "no cross-domain monotonicity violation" 0
    (Atomic.get violations);
  List.iter
    (fun seq ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-domain strictly increasing" true
        (increasing seq))
    results;
  results

let delayed_basics () =
  let module D = Hwts.Timestamp.Delayed () in
  Alcotest.(check int) "initial read" 1 (D.read ());
  Alcotest.(check int) "first advance" 2 (D.advance ());
  Alcotest.(check int) "read reaches the label" 2 (D.read ());
  Alcotest.(check bool) "not hardware" false D.is_hardware;
  let s = D.snapshot () in
  Alcotest.(check bool) "snapshot does not precede labels" true (s >= 2);
  Alcotest.(check bool) "later label strictly above snapshot" true
    (D.advance () > s)

let delayed_across_domains () =
  (* Ties are by design (racers of one increment share its label), but a
     label must still exceed every *completed* label: the stamp is past
     any completed label before a later advance loads it. *)
  let module D = Hwts.Timestamp.Delayed () in
  let results = zoo_across_domains ~strict:true D.advance in
  let all = List.concat results in
  Alcotest.(check bool) "read covers every label" true
    (D.read () >= List.fold_left max 0 all)

let multislot_basics () =
  let module M = Hwts.Timestamp.Multislot () in
  Alcotest.(check int) "initial sum" 1 (M.read ());
  Alcotest.(check int) "first advance" 2 (M.advance ());
  Alcotest.(check bool) "read reaches the label" true (M.read () >= 2);
  let s = M.snapshot () in
  Alcotest.(check bool) "snapshot does not precede labels" true (s >= 2);
  Alcotest.(check bool) "later label strictly above snapshot" true
    (M.advance () > s);
  Alcotest.(check bool) "floor below stable read" true
    (M.read_floor () <= M.read ())

let multislot_across_domains () =
  let module M = Hwts.Timestamp.Multislot () in
  let results = zoo_across_domains ~strict:true M.advance in
  let all = List.concat results in
  Alcotest.(check bool) "summed read covers every label" true
    (M.read () >= List.fold_left max 0 all)

let tl2_basics () =
  Sync.Slot.with_slot @@ fun _ ->
  let module T = Hwts.Timestamp.Tl2 () in
  let a = T.advance () in
  let b = T.advance () in
  Alcotest.(check bool) "same-domain labels bump epochs" true
    (a asr 8 < b asr 8);
  let s = T.snapshot () in
  Alcotest.(check bool) "snapshot closes the epoch at its top" true
    (s land 255 = 255);
  Alcotest.(check bool) "snapshot covers earlier labels" true (s >= b);
  Alcotest.(check bool) "later label strictly above snapshot, raw order"
    true
    (T.advance () > s);
  Alcotest.(check bool) "floor below shared stamp" true
    (T.read_floor () <= T.read ())

let tl2_unique_across_domains () =
  (* Same-epoch labels from different domains are unordered (id low
     bits), so the register check runs at epoch granularity; but every
     (epoch, id) pair is issued at most once, so labels are globally
     unique — the property delayed/multislot give up. *)
  let module T = Hwts.Timestamp.Tl2 () in
  let per_domain = 5_000 in
  let seen_epoch = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let results =
    Util.spawn_workers 8 (fun _ ->
        List.init per_domain (fun _ ->
            let s = Atomic.get seen_epoch in
            let l = T.advance () in
            if l asr 8 < s then ignore (Atomic.fetch_and_add violations 1);
            let rec fold () =
              let cur = Atomic.get seen_epoch in
              let e = l asr 8 in
              if e > cur && not (Atomic.compare_and_set seen_epoch cur e) then
                fold ()
            in
            fold ();
            l))
  in
  Alcotest.(check int) "no cross-domain epoch regression" 0
    (Atomic.get violations);
  let all = List.concat results in
  Alcotest.(check int) "tl2 labels unique across 8 domains" (8 * per_domain)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun seq ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-domain strictly increasing" true
        (increasing seq))
    results

let label_orders () =
  let open Hwts.Labeling in
  Alcotest.(check string) "raw order name" "raw" raw_order.order_name;
  Alcotest.(check int) "raw compares plainly" (-1)
    (raw_order.compare_labels 3 4);
  let eo = epoch_order ~bits:8 in
  Alcotest.(check int) "same epoch ties" 0
    (eo.compare_labels ((7 lsl 8) lor 3) ((7 lsl 8) lor 200));
  Alcotest.(check bool) "later epoch above" true
    (eo.compare_labels (8 lsl 8) ((7 lsl 8) lor 255) > 0);
  Alcotest.(check string) "tl2 gets the epoch comparator" "epoch>>8"
    (order_of_provider "tl2").order_name;
  Alcotest.(check string) "tl2-prefixed providers too" "epoch>>8"
    (order_of_provider "tl2-adaptive").order_name;
  List.iter
    (fun p ->
      Alcotest.(check string)
        (p ^ " compares raw") "raw"
        (order_of_provider p).order_name)
    [ "logical"; "delayed"; "multislot"; "rdtscp-strict"; "adaptive" ]

let zoo_config_knobs () =
  let open Hwts.Timestamp.Zoo_config in
  let saved = (delay_init (), delay_max (), ms_slots (), ms_delay ()) in
  Fun.protect ~finally:(fun () ->
      let a, b, c, d = saved in
      set_delay_init a; set_delay_max b; set_ms_slots c; set_ms_delay d)
  @@ fun () ->
  set_delay_init 8;
  Alcotest.(check int) "delay_init set" 8 (delay_init ());
  set_ms_slots 16;
  Alcotest.(check int) "ms_slots set" 16 (ms_slots ());
  let rejects f = match f () with
    | () -> Alcotest.fail "out-of-range knob accepted"
    | exception Invalid_argument _ -> ()
  in
  rejects (fun () -> set_delay_init 0);
  rejects (fun () -> set_delay_max 0);
  rejects (fun () -> set_ms_slots 0);
  rejects (fun () -> set_ms_slots 65);
  rejects (fun () -> set_ms_delay 0)

let adaptive_starts_logical () =
  let module A = Hwts.Timestamp.Adaptive (Hwts.Timestamp.Hardware) () in
  Alcotest.(check bool) "not a hardware provider per se" false A.is_hardware;
  Alcotest.(check bool) "starts in logical mode" true
    (A.ctl.Hwts.Timestamp.mode () = `Logical);
  let last = ref 0 in
  for _ = 1 to 5_000 do
    let l = A.advance () in
    if l <= !last then Alcotest.fail "adaptive label not strictly increasing";
    last := l;
    if A.read () < l then Alcotest.fail "read fell below a published label"
  done;
  (* one quiet domain never trips the contention sensor *)
  Alcotest.(check int) "no spontaneous switches" 0
    (A.ctl.Hwts.Timestamp.switch_count ());
  let s = A.snapshot () in
  Alcotest.(check bool) "snapshot between labels" true
    (s >= !last && A.advance () > s)

let adaptive_forced_switch_monotone () =
  (* Frozen hardware base: every TSC read returns the same value, so any
     monotonicity across the logical->tsc and tsc->logical folds comes
     from the provider's own label discipline, not from the clock moving
     underneath the test. *)
  let module M = Hwts.Timestamp.Mock () in
  M.set 1_000;
  M.freeze ();
  let module A = Hwts.Timestamp.Adaptive (M) () in
  let ctl = A.ctl in
  let labels = ref [] in
  let take n =
    for _ = 1 to n do
      labels := A.advance () :: !labels
    done
  in
  take 100;
  Alcotest.(check bool) "force up-switch accepted" true
    (ctl.Hwts.Timestamp.force `Tsc);
  Alcotest.(check bool) "now in tsc mode" true
    (ctl.Hwts.Timestamp.mode () = `Tsc);
  take 100;
  Alcotest.(check bool) "force down-switch accepted" true
    (ctl.Hwts.Timestamp.force `Logical);
  take 100;
  Alcotest.(check bool) "second up-switch accepted" true
    (ctl.Hwts.Timestamp.force `Tsc);
  take 100;
  let seq = List.rev !labels in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    "labels strictly increase across every forced migration" true
    (strictly_increasing seq);
  Alcotest.(check int) "three migrations recorded" 3
    (ctl.Hwts.Timestamp.switch_count ());
  Alcotest.(check (list string)) "switch directions, chronological"
    [ "logical->tsc"; "tsc->logical"; "logical->tsc" ]
    (List.map fst (ctl.Hwts.Timestamp.switch_points ()));
  (* forcing the mode it is already in is a no-op *)
  Alcotest.(check bool) "redundant force rejected" false
    (ctl.Hwts.Timestamp.force `Tsc)

let adaptive_unique_across_domains () =
  (* 8 domains race on [advance] while the coordinator-elected domain 0
     force-migrates the provider back and forth: labels must stay globally
     unique and must exceed any label that was completed (published in the
     [seen] register) before the advance began — the same discipline the
     sharded strict test demands, here across live mode folds. *)
  let module A = Hwts.Timestamp.Adaptive (Hwts.Timestamp.Hardware) () in
  let ctl = A.ctl in
  let per_domain = 5_000 in
  let seen = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let results =
    Util.spawn_workers 8 (fun me ->
        List.init per_domain (fun i ->
            if me = 0 && i mod 500 = 0 then
              ignore
                (ctl.Hwts.Timestamp.force
                   (if i mod 1_000 = 0 then `Tsc else `Logical));
            let s = Atomic.get seen in
            let l = A.advance () in
            if l <= s then ignore (Atomic.fetch_and_add violations 1);
            let rec fold () =
              let cur = Atomic.get seen in
              if l > cur && not (Atomic.compare_and_set seen cur l) then fold ()
            in
            fold ();
            l))
  in
  Alcotest.(check int) "no cross-domain monotonicity violation" 0
    (Atomic.get violations);
  let all = List.concat results in
  Alcotest.(check int) "labels unique across 8 domains and mode folds"
    (8 * per_domain)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "migrations actually happened" true
    (ctl.Hwts.Timestamp.switch_count () >= 2);
  List.iter
    (fun seq ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-domain strictly increasing" true
        (increasing seq))
    results

let adaptive_zoo_tour_monotone () =
  (* Frozen hardware base, one domain forced around the whole ladder:
     every fold must lift the incoming mode's space past everything
     issued, so the label sequence is strictly increasing end to end. *)
  let module M = Hwts.Timestamp.Mock () in
  M.set 1_000;
  M.freeze ();
  let module A = Hwts.Timestamp.Adaptive (M) () in
  Sync.Slot.with_slot @@ fun _ ->
  let ctl = A.ctl in
  let labels = ref [] in
  let take n =
    for _ = 1 to n do
      labels := A.advance () :: !labels
    done
  in
  take 50;
  let tour = [ `Delayed; `Multislot; `Tl2; `Tsc; `Logical ] in
  List.iter
    (fun m ->
      Alcotest.(check bool) "forced switch accepted" true
        (ctl.Hwts.Timestamp.force m);
      Alcotest.(check bool) "mode reads back" true
        (ctl.Hwts.Timestamp.mode () = m);
      take 50;
      let s = A.snapshot () in
      Alcotest.(check bool) "snapshot covers issued labels" true
        (s >= List.hd !labels);
      Alcotest.(check bool) "label after snapshot strictly above" true
        (A.advance () > s))
    tour;
  let seq = List.rev !labels in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "labels strictly increase around the whole zoo"
    true
    (strictly_increasing seq);
  Alcotest.(check int) "five migrations recorded" 5
    (ctl.Hwts.Timestamp.switch_count ());
  Alcotest.(check (list string)) "ladder directions, chronological"
    [
      "logical->delayed"; "delayed->multislot"; "multislot->tl2";
      "tl2->tsc"; "tsc->logical";
    ]
    (List.map fst (ctl.Hwts.Timestamp.switch_points ()));
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) ("cost mode name valid: " ^ name) true
        (List.mem name [ "logical"; "delayed"; "multislot"; "tl2"; "tsc" ]);
      Alcotest.(check bool) "cost positive" true (c > 0))
    (ctl.Hwts.Timestamp.acquire_cost ())

let adaptive_zoo_concurrent_folds () =
  (* 8 domains race while domain 0 drags the provider around the ladder:
     per-domain sequences stay strictly increasing, and no label falls
     below a previously *completed* one (ties allowed: delayed, multislot
     and tl2 modes all share labels across domains by design). *)
  let module A = Hwts.Timestamp.Adaptive (Hwts.Timestamp.Hardware) () in
  let ctl = A.ctl in
  let tour = [| `Delayed; `Multislot; `Tl2; `Tsc; `Logical |] in
  let per_domain = 5_000 in
  let seen = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let results =
    Util.spawn_workers 8 (fun me ->
        List.init per_domain (fun i ->
            if me = 0 && i mod 400 = 0 then
              ignore (ctl.Hwts.Timestamp.force tour.((i / 400) mod 5));
            let s = Atomic.get seen in
            let l = A.advance () in
            if l < s then ignore (Atomic.fetch_and_add violations 1);
            let rec fold () =
              let cur = Atomic.get seen in
              if l > cur && not (Atomic.compare_and_set seen cur l) then fold ()
            in
            fold ();
            l))
  in
  Alcotest.(check int) "no label below a completed label" 0
    (Atomic.get violations);
  Alcotest.(check bool) "migrations actually happened" true
    (ctl.Hwts.Timestamp.switch_count () >= 4);
  List.iter
    (fun seq ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-domain strictly increasing" true
        (increasing seq))
    results

let adaptive_config_knobs () =
  let saved_epoch = Hwts.Timestamp.Adaptive_config.epoch_ops () in
  let saved_hyst = Hwts.Timestamp.Adaptive_config.hysteresis () in
  Fun.protect ~finally:(fun () ->
      Hwts.Timestamp.Adaptive_config.set_epoch_ops saved_epoch;
      Hwts.Timestamp.Adaptive_config.set_hysteresis saved_hyst)
  @@ fun () ->
  Hwts.Timestamp.Adaptive_config.set_epoch_ops 128;
  Alcotest.(check int) "epoch_ops set" 128
    (Hwts.Timestamp.Adaptive_config.epoch_ops ());
  (match Hwts.Timestamp.Adaptive_config.set_epoch_ops 0 with
  | () -> Alcotest.fail "epoch_ops 0 should be rejected"
  | exception Invalid_argument _ -> ());
  (match Hwts.Timestamp.Adaptive_config.set_hysteresis 0 with
  | () -> Alcotest.fail "hysteresis 0 should be rejected"
  | exception Invalid_argument _ -> ())

let mock_controls () =
  let module M = Hwts.Timestamp.Mock () in
  Alcotest.(check int) "initial" 1 (M.read ());
  M.set 42;
  Alcotest.(check int) "set" 42 (M.read ());
  Alcotest.(check int) "advance returns current" 42 (M.advance ());
  Alcotest.(check int) "auto increment" 43 (M.read ());
  M.freeze ();
  Alcotest.(check int) "frozen advance" 43 (M.advance ());
  Alcotest.(check int) "frozen advance again" 43 (M.advance ());
  M.thaw ();
  Alcotest.(check int) "thawed" 43 (M.advance ());
  Alcotest.(check int) "moves again" 44 (M.read ())

let providers_list () =
  let names = List.map fst Hwts.Timestamp.providers in
  Alcotest.(check (list string)) "names"
    [ "rdtscp"; "rdtscp-nofence"; "rdtsc"; "rdtsc-nofence" ]
    names;
  List.iter
    (fun (_, (module P : Hwts.Timestamp.S)) ->
      Alcotest.(check bool) "hardware" true P.is_hardware;
      Alcotest.(check bool) "usable" true (P.advance () > 0))
    Hwts.Timestamp.providers

let labeling_taxonomy () =
  Alcotest.(check int) "four profiles" 4 (List.length Hwts.Labeling.all);
  Alcotest.(check bool) "dcss not portable" false
    (Hwts.Labeling.tsc_applicable Hwts.Labeling.ebr_rq_lock_free);
  Alcotest.(check bool) "others portable" true
    (List.for_all Hwts.Labeling.tsc_applicable
       [
         Hwts.Labeling.bundling;
         Hwts.Labeling.vcas;
         Hwts.Labeling.ebr_rq_lock_based;
       ]);
  let benefit p = Hwts.Labeling.expected_benefit p in
  Alcotest.(check bool) "vcas high" true (benefit Hwts.Labeling.vcas = `High);
  Alcotest.(check bool) "ebr-rq low" true
    (benefit Hwts.Labeling.ebr_rq_lock_based = `Low);
  Alcotest.(check bool) "lock-free ebr-rq none" true
    (benefit Hwts.Labeling.ebr_rq_lock_free = `None);
  Alcotest.(check bool) "bundling moderate" true
    (benefit Hwts.Labeling.bundling = `Moderate)

let () =
  Alcotest.run "timestamp"
    [
      ( "providers",
        [
          Alcotest.test_case "logical basics" `Quick logical_basics;
          Alcotest.test_case "logical instances independent" `Quick
            logical_instances_independent;
          Alcotest.test_case "logical unique across domains" `Slow
            logical_unique_across_domains;
          Alcotest.test_case "logical snapshot semantics" `Quick
            logical_snapshot_excludes_later_labels;
          Alcotest.test_case "hardware snapshot" `Quick hardware_snapshot;
          Alcotest.test_case "hardware monotone" `Quick hardware_monotone;
          Alcotest.test_case "hardware cross-domain" `Quick
            hardware_cross_domain_monotone;
          Alcotest.test_case "strict strictly increasing" `Quick
            strict_strictly_increasing;
          Alcotest.test_case "strict-sharded strictly increasing" `Quick
            strict_sharded_strictly_increasing;
          Alcotest.test_case "strict-sharded across 8 domains" `Slow
            strict_sharded_across_domains;
          Alcotest.test_case "strict concurrent unique" `Slow
            strict_concurrent_unique;
          Alcotest.test_case "delayed basics" `Quick delayed_basics;
          Alcotest.test_case "delayed across 8 domains" `Slow
            delayed_across_domains;
          Alcotest.test_case "multislot basics" `Quick multislot_basics;
          Alcotest.test_case "multislot across 8 domains" `Slow
            multislot_across_domains;
          Alcotest.test_case "tl2 basics" `Quick tl2_basics;
          Alcotest.test_case "tl2 unique across 8 domains" `Slow
            tl2_unique_across_domains;
          Alcotest.test_case "label orders" `Quick label_orders;
          Alcotest.test_case "zoo config knobs" `Quick zoo_config_knobs;
          Alcotest.test_case "adaptive starts logical" `Quick
            adaptive_starts_logical;
          Alcotest.test_case "adaptive zoo tour monotone (frozen base)"
            `Quick adaptive_zoo_tour_monotone;
          Alcotest.test_case "adaptive zoo concurrent folds across 8 domains"
            `Slow adaptive_zoo_concurrent_folds;
          Alcotest.test_case "adaptive forced-switch monotone (frozen base)"
            `Quick adaptive_forced_switch_monotone;
          Alcotest.test_case "adaptive unique across 8 domains with migrations"
            `Slow adaptive_unique_across_domains;
          Alcotest.test_case "adaptive config knobs" `Quick
            adaptive_config_knobs;
          Alcotest.test_case "mock controls" `Quick mock_controls;
          Alcotest.test_case "providers list" `Quick providers_list;
          Alcotest.test_case "labeling taxonomy" `Quick labeling_taxonomy;
        ] );
    ]
