(* Tests for the ORDO-style uncertainty clock. *)

let uncertainty_measured () =
  let u = Hwts.Ordo.measure_uncertainty ~rounds:16 () in
  (* communication is not free; on a single-vCPU box the round trip
     includes an OS scheduling quantum, so allow up to ~1 s *)
  Alcotest.(check bool) (Printf.sprintf "plausible bound (%d cycles)" u) true
    (u > 0 && u < 2_100_000_000)

let uncertainty_cached () =
  let a = Hwts.Ordo.uncertainty () in
  Alcotest.(check int) "stable" a (Hwts.Ordo.uncertainty ())

let cmp_windows () =
  let u = Hwts.Ordo.uncertainty () in
  Alcotest.(check bool) "clearly before" true (Hwts.Ordo.cmp 0 (u * 10) = `Before);
  Alcotest.(check bool) "clearly after" true (Hwts.Ordo.cmp (u * 10) 0 = `After);
  Alcotest.(check bool) "inside the window" true (Hwts.Ordo.cmp 100 101 = `Concurrent)

let provider_globally_ordered () =
  let module O = Hwts.Ordo.Timestamp () in
  Alcotest.(check bool) "hardware" true O.is_hardware;
  (* two sequential advances on one domain must be strictly ordered even
     under the uncertainty rule *)
  let a = O.advance () in
  let b = O.advance () in
  Alcotest.(check bool) "strictly separated" true (Hwts.Ordo.cmp a b = `Before);
  (* cross-domain: a value advanced after joining must order after *)
  let d = Domain.spawn (fun () -> O.advance ()) in
  let other = Domain.join d in
  let mine = O.advance () in
  Alcotest.(check bool) "cross-domain order" true
    (Hwts.Ordo.cmp other mine = `Before)

let provider_drives_structures () =
  let module O = Hwts.Ordo.Timestamp () in
  let module S = Rangequery.Bst_vcas.Make (O) in
  let t = S.create () in
  for k = 1 to 50 do
    ignore (S.insert t k)
  done;
  Alcotest.(check int) "rq size" 50 (Array.length (S.range_query t ~lo:1 ~hi:50))

let () =
  Alcotest.run "ordo"
    [
      ( "ordo",
        [
          Alcotest.test_case "uncertainty measured" `Quick uncertainty_measured;
          Alcotest.test_case "uncertainty cached" `Quick uncertainty_cached;
          Alcotest.test_case "cmp windows" `Quick cmp_windows;
          Alcotest.test_case "provider ordered" `Quick provider_globally_ordered;
          Alcotest.test_case "provider drives structures" `Slow
            provider_drives_structures;
        ] );
    ]
