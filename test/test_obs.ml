(* Unit tests for the Hwts_obs observability library: sharded counters,
   log-bucketed histograms, the metric registry and its exporters. *)

let with_enabled b f =
  let prev = Hwts_obs.Config.enabled () in
  Hwts_obs.Config.set_enabled b;
  Fun.protect ~finally:(fun () -> Hwts_obs.Config.set_enabled prev) f

(* ---------- counters ---------- *)

let counter_sharded_sum () =
  with_enabled true (fun () ->
      let c = Hwts_obs.Counter.create "test.counter" in
      let per = 10_000 in
      ignore
        (Util.spawn_workers 4 (fun _ ->
             for _ = 1 to per do
               Hwts_obs.Counter.incr c
             done));
      Alcotest.(check int) "sum over 4 domains" (4 * per) (Hwts_obs.Counter.sum c);
      Hwts_obs.Counter.add c 5;
      Alcotest.(check int) "add" ((4 * per) + 5) (Hwts_obs.Counter.sum c);
      Hwts_obs.Counter.reset c;
      Alcotest.(check int) "reset" 0 (Hwts_obs.Counter.sum c))

let counter_kill_switch () =
  let c = Hwts_obs.Counter.create "test.kill" in
  with_enabled false (fun () ->
      Hwts_obs.Counter.incr c;
      Hwts_obs.Counter.add c 10);
  Alcotest.(check int) "disabled drops" 0 (Hwts_obs.Counter.sum c);
  with_enabled true (fun () -> Hwts_obs.Counter.incr c);
  Alcotest.(check int) "enabled counts" 1 (Hwts_obs.Counter.sum c)

(* The mid-run drift case: a depth gauge bracketed around a section must
   come back to zero no matter when [set_enabled] flips.  [exit] replays
   [enter]'s decision instead of re-reading the switch — with plain
   incr/add the first flip below would leave the gauge at +1 and the
   second would drive it to -1. *)
let counter_bracket_drift () =
  let c = Hwts_obs.Counter.create "test.bracket" in
  with_enabled true (fun () ->
      let entered = Hwts_obs.Counter.enter c in
      Alcotest.(check bool) "entered under enabled" true entered;
      Hwts_obs.Config.set_enabled false;
      Hwts_obs.Counter.exit c ~entered);
  Alcotest.(check int) "no drift when disabled mid-section" 0
    (Hwts_obs.Counter.sum c);
  with_enabled false (fun () ->
      let entered = Hwts_obs.Counter.enter c in
      Alcotest.(check bool) "declined under disabled" false entered;
      Hwts_obs.Config.set_enabled true;
      Hwts_obs.Counter.exit c ~entered);
  Alcotest.(check int) "no drift when enabled mid-section" 0
    (Hwts_obs.Counter.sum c)

(* A counter is its record, its slot array and one atomic per slot: a
   filler block around each atomic spaces nothing once the atomics are
   promoted, and cost 8 words a slot at start-up on every counter. *)
let counter_create_words () =
  let slots = Sync.Slot.max_slots in
  let _, words =
    Util.allocated_words (fun () -> Hwts_obs.Counter.create "test.words")
  in
  let bound = (slots * 2) + (slots + 1) + 64 in
  Alcotest.(check bool)
    (Printf.sprintf "create allocated %d words <= %d" words bound)
    true (words <= bound)

(* ---------- histograms ---------- *)

let histogram_bucket_boundaries () =
  let module H = Hwts_obs.Histogram in
  for v = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "exact %d" v) v (H.index_of v)
  done;
  Alcotest.(check int) "negative clamps" 0 (H.index_of (-5));
  (* bounds round-trip: both ends of each bucket map back to it, and the
     first value past [hi] lands in the next bucket *)
  for i = 0 to 200 do
    let lo, hi = H.bounds i in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d" i) i (H.index_of lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d" i) i (H.index_of hi);
    Alcotest.(check int)
      (Printf.sprintf "hi+1 of bucket %d" i)
      (i + 1)
      (H.index_of (hi + 1))
  done

let histogram_percentiles () =
  with_enabled true (fun () ->
      let module H = Hwts_obs.Histogram in
      let h = H.create "test.hist" in
      for v = 1 to 1000 do
        H.record h v
      done;
      Alcotest.(check int) "count" 1000 (H.count h);
      Alcotest.(check int) "max" 1000 (H.max_value h);
      Alcotest.(check (float 1e-9)) "mean exact" 500.5 (H.mean h);
      (* percentile reports the bucket's upper bound: never below the true
         rank value, and at most 25% above it (4 sub-buckets per octave) *)
      let check_p p expected =
        let v = H.percentile h p in
        Alcotest.(check bool)
          (Printf.sprintf "p%g=%.0f >= %.0f" p v expected)
          true (v >= expected);
        Alcotest.(check bool)
          (Printf.sprintf "p%g=%.0f within 25%% of %.0f" p v expected)
          true
          ((v -. expected) /. expected <= 0.25)
      in
      check_p 50. 500.;
      check_p 90. 900.;
      check_p 99. 990.;
      check_p 99.9 999.;
      Alcotest.(check (float 1e-9)) "p100 is the max" 1000. (H.percentile h 100.);
      H.reset h;
      Alcotest.(check int) "reset count" 0 (H.count h);
      Alcotest.(check (float 1e-9)) "empty percentile" 0. (H.percentile h 99.))

let histogram_concurrent () =
  with_enabled true (fun () ->
      let module H = Hwts_obs.Histogram in
      let h = H.create "test.hist.conc" in
      let per = 5_000 in
      ignore
        (Util.spawn_workers 4 (fun me ->
             for v = 1 to per do
               H.record h ((me * 1_000_000) + v)
             done));
      Alcotest.(check int) "count" (4 * per) (H.count h);
      Alcotest.(check int) "max" (3_000_000 + per) (H.max_value h))

(* ---------- JSON ---------- *)

let json_roundtrip () =
  let module J = Hwts_obs.Json in
  let v =
    J.Obj
      [
        ("name", J.Str "a.b\"c\\d\ne");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("whole", J.Float 2.0);
        ("t", J.Bool true);
        ("nothing", J.Null);
        ("l", J.List [ J.Int 1; J.Float 0.25; J.Str "x"; J.List [] ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip equal" true (v = v')
  | Error e -> Alcotest.failf "parse error: %s" e

let json_rejects_garbage () =
  let module J = Hwts_obs.Json in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "{\"a\":1}x"; "nul" ]

(* ---------- registry & exporters ---------- *)

let registry_roundtrip () =
  with_enabled true (fun () ->
      let module J = Hwts_obs.Json in
      let c = Hwts_obs.Registry.counter ~scope:"test" "exporter_counter" in
      let h = Hwts_obs.Registry.histogram ~scope:"test" "exporter_hist" in
      Hwts_obs.Counter.reset c;
      Hwts_obs.Histogram.reset h;
      Hwts_obs.Counter.add c 7;
      List.iter (Hwts_obs.Histogram.record h) [ 1; 10; 100; 1000 ];
      let out = Hwts_obs.Registry.to_json_lines () in
      match J.parse_lines out with
      | Error e -> Alcotest.failf "parse_lines: %s" e
      | Ok lines ->
        let find name =
          List.find_opt (fun l -> J.member "name" l = Some (J.Str name)) lines
        in
        (match find "test.exporter_counter" with
        | None -> Alcotest.fail "counter line missing"
        | Some l ->
          Alcotest.(check (option string)) "kind" (Some "counter")
            (Option.bind (J.member "type" l) J.to_str);
          Alcotest.(check (option int)) "value" (Some 7)
            (Option.bind (J.member "value" l) J.to_int));
        (match find "test.exporter_hist" with
        | None -> Alcotest.fail "histogram line missing"
        | Some l ->
          Alcotest.(check (option int)) "count" (Some 4)
            (Option.bind (J.member "count" l) J.to_int);
          List.iter
            (fun k ->
              Alcotest.(check bool) ("has " ^ k) true (J.member k l <> None))
            [ "mean"; "p50"; "p90"; "p99"; "p999"; "max" ]))

let registry_kind_clash () =
  ignore (Hwts_obs.Registry.counter "test.clash");
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Hwts_obs.Registry: \"test.clash\" already registered as a counter")
    (fun () -> ignore (Hwts_obs.Registry.histogram "test.clash"))

let registry_get_or_create () =
  let a = Hwts_obs.Registry.counter "test.shared" in
  let b = Hwts_obs.Registry.counter "test.shared" in
  Alcotest.(check bool) "same counter" true (a == b);
  with_enabled true (fun () ->
      Hwts_obs.Counter.reset a;
      Hwts_obs.Counter.incr a;
      Alcotest.(check int) "shared count" 1 (Hwts_obs.Counter.sum b))

let watermark_tracks_max () =
  with_enabled true (fun () ->
      let w = Hwts_obs.Watermark.create "test.hwm" in
      List.iter (Hwts_obs.Watermark.observe w) [ 3; 1; 7; 4 ];
      Alcotest.(check int) "max observed" 7 (Hwts_obs.Watermark.get w);
      Hwts_obs.Watermark.reset w;
      Alcotest.(check int) "reset" 0 (Hwts_obs.Watermark.get w))

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "sharded sum" `Quick counter_sharded_sum;
          Alcotest.test_case "kill switch" `Quick counter_kill_switch;
          Alcotest.test_case "bracket drift" `Quick counter_bracket_drift;
          Alcotest.test_case "create allocates its slots only" `Quick
            counter_create_words;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            histogram_bucket_boundaries;
          Alcotest.test_case "percentiles" `Quick histogram_percentiles;
          Alcotest.test_case "concurrent" `Quick histogram_concurrent;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
        ] );
      ( "registry",
        [
          Alcotest.test_case "json-lines roundtrip" `Quick registry_roundtrip;
          Alcotest.test_case "kind clash" `Quick registry_kind_clash;
          Alcotest.test_case "get-or-create" `Quick registry_get_or_create;
          Alcotest.test_case "watermark" `Quick watermark_tracks_max;
        ] );
    ]
