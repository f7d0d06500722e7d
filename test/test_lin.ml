(* Linearizability tests: checker self-tests on hand-built histories, then
   recorded multi-domain histories for every structure's elemental ops. *)

open Hwts_check.Lin_check

let ev s e op result = ev s e op (Bool result)

let checker_accepts_sequential () =
  let h =
    [
      ev 0 1 (Insert 3) true;
      ev 2 3 (Contains 3) true;
      ev 4 5 (Delete 3) true;
      ev 6 7 (Contains 3) false;
    ]
  in
  Alcotest.(check bool) "sequential history" true (check h)

let checker_accepts_overlap () =
  (* two overlapping inserts of the same key: either may win *)
  let h =
    [
      ev 0 10 (Insert 5) true;
      ev 1 9 (Insert 5) false;
      ev 20 21 (Contains 5) true;
    ]
  in
  Alcotest.(check bool) "overlapping inserts" true (check h)

let checker_rejects_lost_update () =
  (* insert completed strictly before the contains began, yet unseen,
     and nothing else touches the key: not linearizable *)
  let h = [ ev 0 1 (Insert 4) true; ev 5 6 (Contains 4) false ] in
  Alcotest.(check bool) "lost update rejected" false (check h)

let checker_rejects_double_insert () =
  (* both non-overlapping inserts of one key claim success, no delete *)
  let h = [ ev 0 1 (Insert 2) true; ev 5 6 (Insert 2) true ] in
  Alcotest.(check bool) "double insert rejected" false (check h)

let checker_respects_initial_state () =
  let h = [ ev 0 1 (Contains 7) true; ev 2 3 (Insert 7) false ] in
  Alcotest.(check bool) "prefilled key visible" true (check ~initial:[ 7 ] h)

let checker_reordering_window () =
  (* contains false is fine while overlapping the insert *)
  let h = [ ev 0 10 (Insert 1) true; ev 2 3 (Contains 1) false ] in
  Alcotest.(check bool) "overlap may order either way" true (check h)

(* ---------- recorded histories ---------- *)

let history_rounds = 15
let domains = 3
let ops_per_domain = 15
let key_space = 10

(* A seeded elemental-op workload on [domains] domains, recorded with
   intervals stamped by the fenced TSC. *)
let record_history ~seed ~insert ~delete ~contains =
  let recorder =
    Hwts_check.Recorder.create ~now:Tsc.rdtscp_lfence ~domains
  in
  ignore
    (Util.spawn_workers domains (fun me ->
         let rng = Dstruct.Prng.make ~seed:(seed + (me * 101)) in
         for _ = 1 to ops_per_domain do
           let k = Dstruct.Prng.below rng key_space in
           let op, run =
             match Dstruct.Prng.below rng 3 with
             | 0 -> (Insert k, insert)
             | 1 -> (Delete k, delete)
             | _ -> (Contains k, contains)
           in
           ignore
             (Hwts_check.Recorder.run recorder ~dom:me op (fun () ->
                  (Bool (run k), None)))
         done));
  Hwts_check.Recorder.events recorder

let check_structure name ~insert ~delete ~contains ~make () =
  for round = 1 to history_rounds do
    let t = make () in
    let history =
      record_history ~seed:(round * 1733) ~insert:(insert t)
        ~delete:(delete t) ~contains:(contains t)
    in
    if not (check history) then
      Alcotest.failf "%s: non-linearizable history in round %d (%d events)"
        name round (List.length history)
  done

(* Each base algorithm, checked through every structure that ships it,
   under every reclamation backend where that structure has a choice (the
   per-provider cases below use the default backend only).  Each op ends
   with [offline], so no worker domain exits inside a grace period. *)
let algorithm_cases =
  let open Workload.Targets in
  let check_on name =
    List.iter
      (fun reclaim ->
        let inst = instance ~reclaim name `Logical in
        let module S = (val inst.structure) in
        let settled op t k =
          let r = op t k in
          S.offline t;
          r
        in
        check_structure
          (S.name ^ "/" ^ inst.reclaim)
          ~make:S.create ~insert:(settled S.insert) ~delete:(settled S.delete)
          ~contains:(settled S.contains) ())
      (if reclaim_sensitive name then all_reclaims else [ `Ebr ])
  in
  let mk algorithm structures =
    Alcotest.test_case (algorithm ^ " elemental linearizability") `Slow
      (fun () -> List.iter check_on structures)
  in
  [
    mk "lazy-list" [ "lazylist-bundle" ];
    mk "nm-bst" [ "bst-vcas"; "bst-vcas-kv" ];
    mk "citrus" [ "citrus-vcas"; "citrus-bundle"; "citrus-ebrrq" ];
    mk "lazy-skiplist" [ "skiplist-bundle" ];
    mk "lockfree-skiplist" [ "skiplist-vcas" ];
  ]

let rq_cases =
  let mk (module S : Dstruct.Ordered_set.RQ) =
    Alcotest.test_case (S.name ^ " elemental linearizability") `Slow
      (check_structure S.name ~make:S.create
         ~insert:(fun t k -> S.insert t k)
         ~delete:(fun t k -> S.delete t k)
         ~contains:(fun t k -> S.contains t k))
  in
  List.concat_map
    (fun (_, make) -> List.map (fun ts -> mk (make ts)) Workload.Targets.all_ts)
    Workload.Targets.all

let () =
  Alcotest.run "linearizability"
    [
      ( "checker",
        [
          Alcotest.test_case "sequential" `Quick checker_accepts_sequential;
          Alcotest.test_case "overlap" `Quick checker_accepts_overlap;
          Alcotest.test_case "lost update" `Quick checker_rejects_lost_update;
          Alcotest.test_case "double insert" `Quick checker_rejects_double_insert;
          Alcotest.test_case "initial state" `Quick checker_respects_initial_state;
          Alcotest.test_case "reordering window" `Quick checker_reordering_window;
        ] );
      ("histories", algorithm_cases @ rq_cases);
    ]
