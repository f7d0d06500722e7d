(* Tests for the ORDO-style clock-uncertainty bound. *)

(* Runs first, before anything has cached a bound. *)
let gauge_reads_the_cache () =
  let gauge () =
    match Hwts_obs.Registry.find "ordo.uncertainty_cycles" with
    | Some (Hwts_obs.Registry.Gauge f) -> f ()
    | _ -> Alcotest.fail "no ordo.uncertainty_cycles gauge"
  in
  Alcotest.(check (float 0.)) "0 before any measurement" 0. (gauge ());
  let exported =
    match Hwts_obs.Json.parse_lines (Hwts_obs.Registry.to_json_lines ()) with
    | Error e -> Alcotest.fail e
    | Ok lines ->
      List.find_map
        (fun m ->
          let open Hwts_obs.Json in
          match Option.bind (member "name" m) to_str with
          | Some "ordo.uncertainty_cycles" -> Option.bind (member "value" m) to_float
          | _ -> None)
        lines
  in
  Alcotest.(check (option (float 0.))) "exported as 0" (Some 0.) exported;
  Alcotest.(check (float 0.)) "exporting ran no handshake" 0. (gauge ());
  let u = Hwts.Ordo.uncertainty () in
  Alcotest.(check (float 0.)) "the measured bound" (float_of_int u) (gauge ())

let uncertainty_measured () =
  let u = Hwts.Ordo.measure_uncertainty ~rounds:16 () in
  (* communication is not free; on a single-vCPU box the round trip
     includes an OS scheduling quantum, so allow up to ~1 s *)
  Alcotest.(check bool) (Printf.sprintf "plausible bound (%d cycles)" u) true
    (u > 0 && u < 2_100_000_000)

let uncertainty_cached () =
  let a = Hwts.Ordo.uncertainty () in
  Alcotest.(check int) "stable" a (Hwts.Ordo.uncertainty ())

let () =
  Alcotest.run "ordo"
    [
      ( "ordo",
        [
          Alcotest.test_case "gauge reads the cached bound" `Quick
            gauge_reads_the_cache;
          Alcotest.test_case "uncertainty measured" `Quick uncertainty_measured;
          Alcotest.test_case "uncertainty cached" `Quick uncertainty_cached;
        ] );
    ]
