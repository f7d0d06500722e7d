(* Snapshot-oracle and fault-injection subsystem tests: the oracle must
   reject hand-built bad histories (stale snapshot, torn snapshot, label
   outside the query interval), accept labeled histories recorded from
   real structures under fault injection, and the Pause engine must be
   inert unless enabled. *)

open Hwts_check

let ev = Lin_check.ev

let expect_violation what history =
  match Oracle.verify history with
  | Oracle.Violation _ -> ()
  | Oracle.Pass -> Alcotest.failf "%s: accepted by the oracle" what

let expect_pass ?initial what history =
  match Oracle.verify ?initial history with
  | Oracle.Pass -> ()
  | Oracle.Violation { minimized; _ } ->
    Alcotest.failf "%s: rejected; minimized counterexample:\n%s" what
      (Oracle.explain minimized)

(* ---------- hand-built bad histories ---------- *)

let stale_snapshot () =
  (* insert(3) completed strictly before the query began, nothing removes
     3, yet the claimed snapshot omits it *)
  expect_violation "stale snapshot"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev ~label:7 5 9 (Range (1, 10)) (Keys []);
    ]

let torn_snapshot () =
  (* the query sees the later insert but not the earlier one: no instant
     of the abstract set ever held {5} alone *)
  expect_violation "torn snapshot"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev 2 3 (Insert 5) (Bool true);
      ev ~label:7 6 9 (Range (1, 10)) (Keys [ 5 ]);
    ]

let label_outside_interval () =
  (* the result set is fine, but the claimed snapshot instant lies after
     the query returned — an impossible label *)
  expect_violation "label outside interval"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev ~label:20 5 9 (Range (1, 10)) (Keys [ 3 ]);
    ]

let label_pins_the_instant () =
  (* delete(3) finishes before the claimed instant 15, so a query labeled
     15 must not see 3 — although the same history without the label is
     linearizable (the query may order before the delete) *)
  let labeled =
    [
      ev 10 11 (Delete 3) (Bool true);
      ev ~label:15 5 20 (Range (1, 10)) (Keys [ 3 ]);
    ]
  in
  (match Oracle.verify ~initial:[ 3 ] labeled with
  | Oracle.Violation _ -> ()
  | Oracle.Pass -> Alcotest.fail "label=15 snapshot containing 3 accepted");
  expect_pass ~initial:[ 3 ] "same history unlabeled"
    [
      ev 10 11 (Delete 3) (Bool true);
      ev 5 20 (Range (1, 10)) (Keys [ 3 ]);
    ]

let labeled_history_accepted () =
  expect_pass "consistent labeled history"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev 2 12 (Insert 5) (Bool true);
      ev ~label:7 5 9 (Range (1, 10)) (Keys [ 3; 5 ]);
      ev 13 14 (Delete 3) (Bool true);
      ev ~label:16 15 18 (Range (1, 10)) (Keys [ 5 ]);
    ]

(* ---------- multi-point (one handle, one label) histories ---------- *)

let multi_torn_handle () =
  (* insert(3) completed before insert(5) began, so no cut of the set
     ever held 5 without 3 — yet one handle claims to have seen exactly
     that.  A per-probe (contains-style) reading would accept this; the
     one-cut-per-handle criterion must not. *)
  expect_violation "torn multi_get handle"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev 2 3 (Insert 5) (Bool true);
      ev ~label:7 6 9 (Multi_get [ 3; 5 ]) (Bools [ false; true ]);
    ]

let multi_stale_handle () =
  expect_violation "stale multi_get"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev ~label:7 5 9 (Multi_get [ 3 ]) (Bools [ false ]);
    ]

let multi_label_pins_the_instant () =
  (* same discipline as labeled ranges: the handle's label pins every
     constituent probe at one instant, so a delete that finished before
     the label must already be visible *)
  (match
     Oracle.verify ~initial:[ 3 ]
       [
         ev 10 11 (Delete 3) (Bool true);
         ev ~label:15 5 20 (Multi_get [ 3; 7 ]) (Bools [ true; false ]);
       ]
   with
  | Oracle.Violation _ -> ()
  | Oracle.Pass -> Alcotest.fail "label=15 handle still seeing 3 accepted");
  expect_pass ~initial:[ 3 ] "same handle unlabeled"
    [
      ev 10 11 (Delete 3) (Bool true);
      ev 5 20 (Multi_get [ 3; 7 ]) (Bools [ true; false ]);
    ]

let multi_label_outside_interval () =
  expect_violation "multi label outside interval"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev ~label:20 5 9 (Multi_get [ 3 ]) (Bools [ true ]);
    ]

let multi_shape_mismatch () =
  (* one answer per probe, or the history is unexplainable *)
  expect_violation "bools/keys arity mismatch"
    [ ev ~label:1 0 2 (Multi_get [ 3; 5 ]) (Bools [ false ]) ];
  expect_violation "keyss/ranges arity mismatch"
    [ ev ~label:1 0 2 (Multi_range [ (1, 10) ]) (Keyss [ []; [] ]) ]

let multi_range_consistent () =
  expect_pass ~initial:[ 3; 8 ] "multi_range sees one cut"
    [
      ev 0 10 (Insert 5) (Bool true);
      ev ~label:4 2 6 (Multi_range [ (1, 4); (4, 9) ])
        (Keyss [ [ 3 ]; [ 5; 8 ] ]);
    ];
  (* the two windows overlap at 5: a handle that reports 5 in one window
     and omits it from the other tore its cut *)
  expect_violation "multi_range torn across windows"
    [
      ev 0 10 (Insert 5) (Bool true);
      ev ~label:4 2 6 (Multi_range [ (1, 5); (5, 9) ]) (Keyss [ [ 5 ]; [] ]);
    ]

let multi_out_of_window_keys () =
  (* keys the bitmask cannot represent are simply never members; the
     engine answers false for them and the checker agrees *)
  expect_pass "out-of-window probes answer false"
    [
      ev 0 1 (Insert 3) (Bool true);
      ev ~label:4 3 5 (Multi_get [ -4; 3; 700 ]) (Bools [ false; true; false ]);
    ];
  expect_violation "out-of-window probe claiming true"
    [ ev ~label:4 3 5 (Multi_get [ 700 ]) (Bools [ true ]) ]

let minimizer_shrinks () =
  (* noise that stays consistent in every sub-history, so the minimal
     counterexample can only be the stale pair *)
  let noise =
    [
      ev 100 101 (Contains 9) (Bool false);
      ev 102 103 (Insert 7) (Bool true);
      ev 104 105 (Delete 8) (Bool false);
    ]
  in
  let bad =
    [
      ev 0 1 (Insert 3) (Bool true);
      ev ~label:7 5 9 (Range (1, 10)) (Keys []);
    ]
    @ noise
  in
  match Oracle.verify bad with
  | Oracle.Pass -> Alcotest.fail "bad history accepted"
  | Oracle.Violation { minimized; events } ->
    Alcotest.(check bool)
      "minimized still fails" false
      (Lin_check.check minimized);
    Alcotest.(check bool)
      "minimized is smaller" true
      (List.length minimized < List.length events);
    (* the noise ops are irrelevant: the core violation is 2 events *)
    Alcotest.(check int) "minimal size" 2 (List.length minimized)

let minimizer_keeps_pending_ops () =
  (* range(7,13) -> {} completes while delete(7) is still pending, and
     that delete explains it; the genuine violation comes later.  A
     prefix cut in completion order alone would drop the delete and
     blame the range. *)
  let initial = [ 2; 7 ] in
  let blameless = ev 20 30 (Range (7, 13)) (Keys []) in
  let bad = ev 200 210 (Range (1, 5)) (Keys [ 4 ]) in
  let history = [ ev 10 100 (Delete 7) (Bool true); blameless; bad ] in
  match Oracle.verify ~initial history with
  | Oracle.Pass -> Alcotest.fail "range(1,5) -> {4} accepted"
  | Oracle.Violation { minimized; _ } ->
    let explain = Oracle.explain ~initial minimized in
    Alcotest.(check bool) ("keeps range(1,5):\n" ^ explain) true
      (List.memq bad minimized);
    Alcotest.(check bool) ("drops range(7,13):\n" ^ explain) false
      (List.memq blameless minimized);
    let culprit =
      List.fold_left
        (fun c e -> if e.Lin_check.end_t > c.Lin_check.end_t then e else c)
        (List.hd minimized) minimized
    in
    Alcotest.(check bool) "range(1,5) is the culprit" true (culprit == bad)

(* ---------- the Pause engine ---------- *)

let pause_inert_by_default () =
  Alcotest.(check bool) "disabled" false (Sync.Pause.enabled ());
  let before = Sync.Pause.injected () in
  for _ = 1 to 1000 do
    Sync.Pause.point ()
  done;
  Alcotest.(check int) "no injections" before (Sync.Pause.injected ())

let pause_injects_when_enabled () =
  Sync.Pause.enable ~period:2 ~seed:42 ();
  let before = Sync.Pause.injected () in
  for _ = 1 to 256 do
    Sync.Pause.point ()
  done;
  Sync.Pause.disable ();
  Alcotest.(check bool) "injected" true (Sync.Pause.injected () > before);
  Alcotest.(check bool) "off again" false (Sync.Pause.enabled ())

(* ---------- recorded histories under fault injection ---------- *)

let torture ?(multi = false) ?reclaim structure provider () =
  let cfg =
    {
      (Torture.default_config ?reclaim ~multi ~structure ~provider
         ~seed:0xC0FFEE ())
      with
      rounds = 4;
    }
  in
  let o = Torture.run cfg in
  (match o.Torture.failure with
  | None -> ()
  | Some f ->
    (* leave the full history behind as a replayable fixture, tagged with
       the backend off the default and with the multi-point mode (like
       the checked-in multi fixture), since those cases share structure,
       provider and seed with the plain one *)
    let file =
      Printf.sprintf "check-%s-%s%s%s-seed%d.trace" structure
        (Workload.Targets.ts_name provider)
        (match reclaim with
        | Some r -> "-" ^ Workload.Targets.reclaim_name r
        | None -> "")
        (if multi then "-multi" else "")
        cfg.Torture.seed
    in
    let path = Filename.concat (Sys.getcwd ()) file in
    Torture.write_trace ~path cfg f;
    Alcotest.failf
      "%s/%s: oracle violation in round %d (reproduced=%b), trace in %s\n%s"
      structure
      (Workload.Targets.ts_name provider)
      f.Torture.round f.Torture.reproduced path
      (Oracle.explain ~initial:f.Torture.initial f.Torture.minimized));
  Alcotest.(check bool)
    "fault schedule fired" true
    (o.Torture.faults_injected > 0)

let torture_cases =
  (* one structure per technique family, under both the logical and the
     strict-hardware provider; the two labelings of the Natarajan–Mittal
     tree under the flock/verlib clocks too *)
  let mk (structure, provider) =
    Alcotest.test_case
      (Printf.sprintf "%s/%s recorded history"
         structure
         (Workload.Targets.ts_name provider))
      `Slow
      (torture structure provider)
  in
  List.map mk
    [
      ("skiplist-bundle", `Logical);
      ("skiplist-bundle", `Hardware_strict);
      ("bst-vcas", `Logical);
      ("bst-vcas", `Hardware_strict);
      ("bst-vcas", `Delayed);
      ("bst-vcas", `Multislot);
      ("bst-vcas", `Tl2);
      ("citrus-bundle", `Logical);
      ("citrus-bundle", `Hardware_strict);
      ("citrus-bundle", `Tl2);
      ("citrus-vcas", `Logical);
      ("citrus-vcas", `Hardware_strict);
      ("citrus-ebrrq", `Logical);
      ("citrus-ebrrq", `Hardware_strict);
      ("bst-ebrrq-lockfree", `Logical);
      ("bst-ebrrq-lockfree", `Hardware_strict);
      ("bst-ebrrq-lockfree", `Delayed);
      ("bst-ebrrq-lockfree", `Multislot);
      ("bst-ebrrq-lockfree", `Tl2);
    ]
  (* The Citrus relocation's grace wait and citrus-ebrrq's limbo recovery
     go through the reclamation backend, so the three Citrus trees also
     run under both QSBR backends. *)
  @ List.concat_map
      (fun reclaim ->
        List.map
          (fun structure ->
            Alcotest.test_case
              (Printf.sprintf "%s/logical/%s recorded history" structure
                 (Workload.Targets.reclaim_name reclaim))
              `Slow
              (torture ~reclaim structure `Logical))
          [ "citrus-vcas"; "citrus-bundle"; "citrus-ebrrq" ])
      [ `Qsbr; `Qsbr_tsc ]

(* Multi-point rounds: every structure in the zoo, under three providers,
   so the one-cut-per-handle claim of Hwts_snapshot is oracle-verified
   against each snap recipe. *)
let torture_multi_cases =
  let mk (structure, provider) =
    Alcotest.test_case
      (Printf.sprintf "%s/%s multi-point history" structure
         (Workload.Targets.ts_name provider))
      `Slow
      (torture ~multi:true structure provider)
  in
  let structures =
    [
      "bst-vcas"; "bst-vcas-kv"; "bst-ebrrq-lockfree"; "citrus-vcas";
      "citrus-bundle"; "citrus-ebrrq"; "skiplist-bundle"; "skiplist-vcas";
      "lazylist-bundle";
    ]
  in
  List.map mk
    (List.concat_map
       (fun s -> [ (s, `Logical); (s, `Hardware_strict); (s, `Tl2) ])
       structures)

(* ---------- checked-in fixtures ----------

   One replayable fixture per new provider family: the config line
   carries the full seeded round, so the replay re-runs the exact
   workload/fault schedule against today's implementation and the oracle
   re-verifies it with the provider's own label comparator — a
   regression trap for label-discipline changes in the zoo. *)

let fixture_files =
  [
    "fixtures/check-bst-vcas-delayed-seed61893.trace";
    "fixtures/check-bst-vcas-multislot-seed61893.trace";
    "fixtures/check-bst-vcas-tl2-seed61893.trace";
    "fixtures/check-skiplist-bundle-rdtscp-strict-multi-seed61893.trace";
    (* the round that once showed a snapshot holding a key that a
       concurrent delete called absent (insert labeled, not yet fully
       linked) *)
    "fixtures/check-skiplist-bundle-rdtscp-strict-multi-seed12648430.trace";
  ]

let replay_fixture path () =
  match Torture.read_fixture path with
  | Error e -> Alcotest.failf "unreadable fixture: %s" e
  | Ok (cfg, round_seed) ->
    let initial, events = Torture.run_round cfg ~round_seed in
    Alcotest.(check bool) "replay produced a history" true (events <> []);
    (match
       Oracle.verify ~initial ~order:(Torture.order_of cfg) events
     with
    | Oracle.Pass -> ()
    | Oracle.Violation { minimized; _ } ->
      Alcotest.failf "fixture replay fails the oracle:\n%s"
        (Oracle.explain ~initial minimized))

let fixture_cases =
  List.map
    (fun path ->
      Alcotest.test_case (Filename.basename path) `Slow (replay_fixture path))
    fixture_files

(* ---------- config validation and artifacts ---------- *)

let config_rejects_oversize () =
  let cfg = Torture.default_config ~structure:"bst-vcas" ~provider:`Logical ~seed:1 () in
  Alcotest.check_raises "too many events"
    (Invalid_argument "check: domains*ops_per_domain must be <= 62")
    (fun () ->
      ignore (Torture.run { cfg with domains = 8; ops_per_domain = 8 }))

let trace_artifact () =
  let cfg = Torture.default_config ~structure:"bst-vcas" ~provider:`Logical ~seed:7 () in
  let f =
    {
      Torture.round = 1;
      round_seed = 7;
      initial = [ 3 ];
      events =
        [
          ev 0 1 (Insert 5) (Bool true);
          ev ~label:7 5 9 (Range (1, 10)) (Keys []);
        ];
      minimized = [ ev ~label:7 5 9 (Range (1, 10)) (Keys []) ];
      reproduced = true;
    }
  in
  let path = Filename.temp_file "hwts" ".trace" in
  Torture.write_trace ~path cfg f;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "trace header" Torture.trace_header first;
  Alcotest.(check string)
    "conventional name" "check-bst-vcas-logical-seed7.trace"
    (Torture.trace_path cfg)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "stale snapshot" `Quick stale_snapshot;
          Alcotest.test_case "torn snapshot" `Quick torn_snapshot;
          Alcotest.test_case "label outside interval" `Quick
            label_outside_interval;
          Alcotest.test_case "label pins the instant" `Quick
            label_pins_the_instant;
          Alcotest.test_case "labeled history accepted" `Quick
            labeled_history_accepted;
          Alcotest.test_case "multi: torn handle" `Quick multi_torn_handle;
          Alcotest.test_case "multi: stale handle" `Quick multi_stale_handle;
          Alcotest.test_case "multi: label pins the instant" `Quick
            multi_label_pins_the_instant;
          Alcotest.test_case "multi: label outside interval" `Quick
            multi_label_outside_interval;
          Alcotest.test_case "multi: shape mismatch" `Quick
            multi_shape_mismatch;
          Alcotest.test_case "multi: range cut consistency" `Quick
            multi_range_consistent;
          Alcotest.test_case "multi: out-of-window keys" `Quick
            multi_out_of_window_keys;
          Alcotest.test_case "minimizer shrinks" `Quick minimizer_shrinks;
          Alcotest.test_case "minimizer keeps pending ops" `Quick
            minimizer_keeps_pending_ops;
        ] );
      ( "pause",
        [
          Alcotest.test_case "inert by default" `Quick pause_inert_by_default;
          Alcotest.test_case "injects when enabled" `Quick
            pause_injects_when_enabled;
        ] );
      ("torture", torture_cases);
      ("torture-multi", torture_multi_cases);
      ("fixtures", fixture_cases);
      ( "driver",
        [
          Alcotest.test_case "oversize config rejected" `Quick
            config_rejects_oversize;
          Alcotest.test_case "trace artifact" `Quick trace_artifact;
        ] );
    ]
