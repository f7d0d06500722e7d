(* Tests for the TSC stubs. *)

let readers =
  [
    ("rdtsc", Tsc.rdtsc);
    ("rdtscp", Tsc.rdtscp);
    ("rdtscp_lfence", Tsc.rdtscp_lfence);
    ("serializing_read", Tsc.serializing_read);
    ("monotonic_ns", Tsc.monotonic_ns);
  ]

let monotone () =
  List.iter
    (fun (name, reader) ->
      let last = ref 0 in
      for _ = 1 to 20_000 do
        let v = reader () in
        if v < !last then Alcotest.failf "%s went backwards" name;
        last := v
      done;
      Alcotest.(check bool) (name ^ " positive") true (!last > 0))
    readers

let cpuid_reader_monotone () =
  (* CPUID is very slow under virtualization; fewer iterations. *)
  let last = ref 0 in
  for _ = 1 to 100 do
    let v = Tsc.rdtsc_cpuid () in
    Alcotest.(check bool) "cpuid+rdtsc nondecreasing" true (v >= !last);
    last := v
  done

let invariant_probe () =
  (* On x86 the probe must answer; on this repo's CI machine it's true. *)
  if Tsc.is_x86 then
    Alcotest.(check bool) "invariant tsc available" true
      (Tsc.has_invariant_tsc ())
  else Alcotest.(check bool) "fallback mode" false (Tsc.has_invariant_tsc ())

let read_cached_staleness_bound () =
  let saved = Tsc.refresh_period () in
  Fun.protect ~finally:(fun () -> Tsc.set_refresh_period saved) @@ fun () ->
  Tsc.set_refresh_period 8;
  (* The cached reading is a *lower bound* on the clock: never ahead of a
     fenced read taken after it, and monotone within a domain. *)
  let last = ref 0 in
  for _ = 1 to 10_000 do
    let c = Tsc.read_cached () in
    let fenced = Tsc.rdtscp_lfence () in
    if c > fenced then
      Alcotest.failf "cached %d ahead of subsequent fenced read %d" c fenced;
    if c < !last then Alcotest.fail "cached reading went backwards";
    last := c
  done;
  (* Staleness is bounded by the refresh period: within 2 periods of calls
     the cache must refresh to at least a fresh reading taken now. *)
  let fresh = Tsc.rdtscp_lfence () in
  let caught_up = ref false in
  for _ = 1 to 2 * Tsc.refresh_period () do
    if Tsc.read_cached () >= fresh then caught_up := true
  done;
  Alcotest.(check bool) "cache refreshed within the period bound" true
    !caught_up;
  (* knob validation *)
  (match Tsc.set_refresh_period 0 with
  | () -> Alcotest.fail "set_refresh_period 0 should be rejected"
  | exception Invalid_argument _ -> ());
  Tsc.set_refresh_period 1;
  let a = Tsc.read_cached () in
  let b = Tsc.rdtscp () in
  let c = Tsc.read_cached () in
  Alcotest.(check bool) "period 1 refreshes every call" true (a <= b && b <= c)

let calibration () =
  let c = Tsc.cycles_per_ns () in
  Alcotest.(check bool) "plausible frequency" true (c > 0.3 && c < 10.);
  Alcotest.(check bool) "calibration is cached" true (Tsc.cycles_per_ns () = c);
  let ns = Tsc.cycles_to_ns 2100 in
  Alcotest.(check bool) "2100 cycles ~ 1000ns at ~2.1GHz" true
    (ns > 100. && ns < 10_000.)

let measured_costs () =
  let cost f = Tsc.measure_cost_cycles ~iters:20_000 f in
  let rdtsc = cost Tsc.rdtsc in
  let fenced = cost Tsc.rdtscp_lfence in
  Alcotest.(check bool) "positive" true (rdtsc > 0.);
  Alcotest.(check bool) "fence costs more than bare rdtsc" true (fenced > rdtsc)

(* A [(monotonic_ns, TSC)] reading of one instant: the TSC read sits
   between two monotonic reads and the tightest of a few brackets is kept,
   so a preemption between the two clocks' reads cannot skew a window
   measured from such pairs. *)
let clock_pair () =
  let best_width = ref max_int and best = ref (0, 0) in
  for _ = 1 to 5 do
    let t0 = Tsc.monotonic_ns () in
    let c = Tsc.rdtscp_lfence () in
    let t1 = Tsc.monotonic_ns () in
    if t1 - t0 < !best_width then begin
      best_width := t1 - t0;
      best := (t0 + ((t1 - t0) / 2), c)
    end
  done;
  !best

let wall_clock_agreement () =
  (* A busy 20ms window must measure its monotonic length in TSC cycles. *)
  let t0, c0 = clock_pair () in
  while Tsc.monotonic_ns () - t0 < 20_000_000 do
    Tsc.cpu_relax ()
  done;
  let t1, c1 = clock_pair () in
  let wall_ns = float_of_int (t1 - t0) in
  let err = abs_float (Tsc.cycles_to_ns (c1 - c0) -. wall_ns) /. wall_ns in
  Alcotest.(check bool) "within 10% of wall clock" true (err < 0.10)

let pinning () =
  (* Must not raise; on Linux with 1 cpu it pins to cpu 0. *)
  let r = Tsc.pin_to_cpu 3 in
  Alcotest.(check bool) "returns bool" true (r || not r);
  Alcotest.(check bool) "num_cpus positive" true (Tsc.num_cpus () >= 1)

let () =
  Alcotest.run "tsc"
    [
      ( "stubs",
        [
          Alcotest.test_case "monotone readers" `Quick monotone;
          Alcotest.test_case "cpuid reader" `Quick cpuid_reader_monotone;
          Alcotest.test_case "invariant probe" `Quick invariant_probe;
          Alcotest.test_case "read_cached staleness bound" `Quick
            read_cached_staleness_bound;
          Alcotest.test_case "calibration" `Quick calibration;
          Alcotest.test_case "measured costs" `Quick measured_costs;
          Alcotest.test_case "wall clock agreement" `Quick wall_clock_agreement;
          Alcotest.test_case "pinning" `Quick pinning;
        ] );
    ]
