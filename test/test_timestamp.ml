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

let strict_sharded_across_domains clock () =
  (* 8 domains race on [advance]; each checks its fresh label against the
     global maximum of *completed* advances (an atomic-max register read
     before, updated after).  A label seen in [seen] was published before
     this advance began, so strict cross-domain monotonicity requires the
     new label to exceed it; any <= is a violation.  Labels must also be
     globally unique (the slot-id low bits).  Over a frozen [clock] every
     label comes from the catch-up past the shared word. *)
  let module C = (val clock () : Hwts.Timestamp.S) in
  let module S = Hwts.Timestamp.Strict_sharded (C) () in
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
  (* each registry row names its provider's order: only tl2's labels
     carry identity bits below the order *)
  List.iter
    (fun (i : Workload.Targets.info) ->
      Alcotest.(check string)
        (i.name ^ " label order")
        (if i.key = `Tl2 then "epoch>>8" else "raw")
        i.label_order.order_name)
    Workload.Targets.registry

(* A registry row names what runs: the module [provider_of] builds for a
   row, tracing wrapper included, carries the row's name. *)
let registry_names_providers () =
  List.iter
    (fun (i : Workload.Targets.info) ->
      let module P = (val Workload.Targets.provider_of i.key) in
      Alcotest.(check string) "provider module name" i.name P.name)
    Workload.Targets.registry

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

(* ---------- the snapshot contract, every registered provider ---------- *)

(* Each provider exactly as a structure receives it
   ([Workload.Targets.provider_of], tracing wrapper included), held to
   the [snapshot] contract range queries rely on: a label issued after
   [snapshot] returns [s] is above [s], and [s] covers every label its
   caller issued before it.  Raw hardware stamps may tie within a cycle,
   so "above" is [>=] for them and [>] for every other provider. *)
let above (module P : Hwts.Timestamp.S) l s =
  if P.is_hardware then l >= s else l > s

let snapshot_contract (name, p) () =
  let module P = (val p : Hwts.Timestamp.S) in
  Sync.Slot.with_slot @@ fun _ ->
  let fail what = Alcotest.failf "%s: %s" name what in
  let last = ref 0 in
  for i = 1 to 2_000 do
    if i mod 5 = 0 then begin
      let s = P.snapshot () in
      if s < !last then fail "snapshot below a label issued before it";
      if P.read () < s then fail "read after a snapshot fell below it";
      let l = P.advance () in
      if not (above p l s) then fail "label after a snapshot not above it";
      last := l
    end
    else begin
      let l = P.advance () in
      if not (above p l !last) then fail "labels not increasing per domain";
      last := l;
      let f = P.read_floor () in
      if f > P.read () then fail "floor above a later read"
    end
  done

(* 4 domains mix snapshots and advances; each advance checks its label
   against an atomic-max register of *completed* snapshots, read before
   the advance began, so the label must be above all of them. *)
let snapshot_contract_across_domains (_, p) () =
  let module P = (val p : Hwts.Timestamp.S) in
  let snapped = Atomic.make 0 in
  let violations = Atomic.make 0 in
  ignore
    (Util.spawn_workers 4 (fun me ->
         for i = 1 to 2_000 do
           if (i + me) mod 4 = 0 then begin
             let s = P.snapshot () in
             let rec fold () =
               let cur = Atomic.get snapped in
               if s > cur && not (Atomic.compare_and_set snapped cur s) then
                 fold ()
             in
             fold ()
           end
           else begin
             let m = Atomic.get snapped in
             let l = P.advance () in
             if not (above p l m) then
               ignore (Atomic.fetch_and_add violations 1)
           end
         done));
  Alcotest.(check int) "no label at or below a completed snapshot" 0
    (Atomic.get violations)

(* A label is taken on every update's path, so no provider allocates
   per [advance] or per [read], tracing wrapper included.  The first
   calls set up the domain's own state and are not counted. *)
let allocates_nothing (name, p) () =
  let module P = (val p : Hwts.Timestamp.S) in
  Sync.Slot.with_slot @@ fun _ ->
  let calls = 10_000 in
  let words f =
    ignore (f ());
    snd
      (Util.allocated_words (fun () ->
           for _ = 1 to calls do
             ignore (Sys.opaque_identity (f ()))
           done))
  in
  Alcotest.(check int)
    (name ^ ": words in 10,000 advances")
    0 (words P.advance);
  Alcotest.(check int) (name ^ ": words in 10,000 reads") 0 (words P.read)

(* The strict provider over a frozen clock: every raw stamp ties, so each
   label comes from the within-domain bump or the catch-up past the
   shared word, paths a real TSC takes only on a same-cycle tie. *)
let frozen_strict =
  let module Frozen = Hwts.Timestamp.Mock () in
  Frozen.set 7;
  Frozen.freeze ();
  ( "rdtscp-strict over a frozen clock",
    (module Hwts.Timestamp.Strict_sharded (Frozen) () : Hwts.Timestamp.S) )

let contract_cases =
  List.concat_map
    (fun ((name, _) as provider) ->
      [
        Alcotest.test_case (name ^ " allocates nothing per label") `Quick
          (allocates_nothing provider);
        Alcotest.test_case (name ^ " snapshot contract") `Quick
          (snapshot_contract provider);
        Alcotest.test_case
          (name ^ " snapshot contract across 4 domains")
          `Slow
          (snapshot_contract_across_domains provider);
      ])
    (List.map
       (fun ts -> Workload.Targets.(ts_name ts, provider_of ts))
       Workload.Targets.all_ts
    @ [ frozen_strict ])

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
          Alcotest.test_case "strict-sharded strictly increasing" `Quick
            strict_sharded_strictly_increasing;
          Alcotest.test_case "strict-sharded across 8 domains" `Slow
            (strict_sharded_across_domains (fun () ->
                 (module Hwts.Timestamp.Hardware : Hwts.Timestamp.S)));
          Alcotest.test_case "strict-sharded over a frozen clock across 8 domains"
            `Slow
            (strict_sharded_across_domains (fun () ->
                 let module F = Hwts.Timestamp.Mock () in
                 F.set 50;
                 F.freeze ();
                 (module F : Hwts.Timestamp.S)));
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
          Alcotest.test_case "registry names its providers" `Quick
            registry_names_providers;
          Alcotest.test_case "mock controls" `Quick mock_controls;
          Alcotest.test_case "labeling taxonomy" `Quick labeling_taxonomy;
        ] );
      ("contract", contract_cases);
    ]
