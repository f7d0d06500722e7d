(* The snapshot engine: one label, one pin, many reads.  Correctness of
   the multi-point operators against a live structure, handle lifecycle
   (idempotent close, closed-handle rejection, exception safety), and
   the acquires/reads accounting the headline bench gates on. *)

let instance () =
  (Workload.Targets.instance "skiplist-bundle" `Logical)
    .Workload.Targets.structure

let primes = [ 2; 3; 5; 7; 11; 13; 17; 19 ]

let engine_operators () =
  let (module S) = instance () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) primes;
  Hwts_snapshot.with_snapshot (module S) t @@ fun s ->
  Alcotest.(check bool) "get member" true (Hwts_snapshot.get s 5);
  Alcotest.(check bool) "get absent" false (Hwts_snapshot.get s 6);
  Alcotest.(check (array bool))
    "multi_get positional"
    [| true; false; true; false |]
    (Hwts_snapshot.multi_get s [| 2; 4; 19; 100 |]);
  Alcotest.(check (array int))
    "keys sorted" [| 3; 5; 7 |]
    (Hwts_snapshot.keys s ~lo:3 ~hi:10);
  Alcotest.(check (list int))
    "range is keys as a list" [ 3; 5; 7 ]
    (Hwts_snapshot.range s ~lo:3 ~hi:10);
  Alcotest.(check (array (array int)))
    "multi_range positional"
    [| [| 2; 3; 5 |]; [| 5; 7; 11 |]; [||] |]
    (Hwts_snapshot.multi_range s [| (1, 6); (5, 12); (40, 50) |]);
  Alcotest.(check (array int))
    "keys of an empty range" [||]
    (Hwts_snapshot.keys s ~lo:40 ~hi:50);
  Alcotest.(check (array int))
    "keys of an inverted range" [||]
    (Hwts_snapshot.keys s ~lo:10 ~hi:3)

let one_label_per_handle () =
  (* the cut must not move while the handle is open, whatever happens to
     the structure after acquisition *)
  let (module S) = instance () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) primes;
  let s = Hwts_snapshot.acquire (module S) t in
  let before = Hwts_snapshot.range s ~lo:1 ~hi:100 in
  ignore (S.insert t 4);
  ignore (S.delete t 7);
  Alcotest.(check (list int))
    "cut frozen at the label" before
    (Hwts_snapshot.range s ~lo:1 ~hi:100);
  Alcotest.(check bool) "frozen membership" false (Hwts_snapshot.get s 4);
  Hwts_snapshot.close s;
  (* post-close, fresh handles see the mutations *)
  Hwts_snapshot.with_snapshot (module S) t @@ fun s2 ->
  Alcotest.(check bool) "new handle sees insert" true (Hwts_snapshot.get s2 4);
  Alcotest.(check bool) "new handle sees delete" false (Hwts_snapshot.get s2 7)

let lifecycle () =
  let (module S) = instance () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) primes;
  let s = Hwts_snapshot.acquire (module S) t in
  Alcotest.(check bool) "open" true (Hwts_snapshot.is_open s);
  Alcotest.(check int) "no reads yet" 0 (Hwts_snapshot.reads s);
  ignore (Hwts_snapshot.multi_get s [| 2; 3; 4 |]);
  ignore (Hwts_snapshot.range s ~lo:1 ~hi:10);
  Alcotest.(check int) "reads counted per constituent" 4
    (Hwts_snapshot.reads s);
  Hwts_snapshot.close s;
  Hwts_snapshot.close s (* idempotent *);
  Alcotest.(check bool) "closed" false (Hwts_snapshot.is_open s);
  Alcotest.check_raises "closed handle rejects reads"
    (Invalid_argument "Hwts_snapshot.get: closed handle") (fun () ->
      ignore (Hwts_snapshot.get s 2))

let with_snapshot_is_exception_safe () =
  let (module S) = instance () in
  let t = S.create () in
  let leaked = ref None in
  (try
     Hwts_snapshot.with_snapshot (module S) t (fun s ->
         leaked := Some s;
         failwith "boom")
   with Failure _ -> ());
  match !leaked with
  | None -> Alcotest.fail "body never ran"
  | Some s ->
    Alcotest.(check bool) "closed on the exception path" false
      (Hwts_snapshot.is_open s)

let obs_accounting () =
  let prev = Hwts_obs.Config.enabled () in
  Hwts_obs.Config.set_enabled true;
  Fun.protect ~finally:(fun () -> Hwts_obs.Config.set_enabled prev)
  @@ fun () ->
  let acquires = Hwts_obs.Registry.counter ~scope:"snapshot" "acquires" in
  let reads = Hwts_obs.Registry.counter ~scope:"snapshot" "reads" in
  let a0 = Hwts_obs.Counter.sum acquires and r0 = Hwts_obs.Counter.sum reads in
  let (module S) = instance () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) primes;
  Hwts_snapshot.with_snapshot (module S) t (fun s ->
      ignore (Hwts_snapshot.multi_get s [| 1; 2; 3; 4; 5 |]));
  Alcotest.(check int) "one acquisition" (a0 + 1)
    (Hwts_obs.Counter.sum acquires);
  Alcotest.(check int) "five constituent reads" (r0 + 5)
    (Hwts_obs.Counter.sum reads)

let () =
  Alcotest.run "snapshot"
    [
      ( "engine",
        [
          Alcotest.test_case "multi-point operators" `Quick engine_operators;
          Alcotest.test_case "one label per handle" `Quick one_label_per_handle;
          Alcotest.test_case "lifecycle" `Quick lifecycle;
          Alcotest.test_case "with_snapshot exception safety" `Quick
            with_snapshot_is_exception_safe;
          Alcotest.test_case "obs accounting" `Quick obs_accounting;
        ] );
    ]
