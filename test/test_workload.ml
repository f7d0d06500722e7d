(* Tests for the workload generator, statistics and throughput harness. *)

let mix_roundtrip () =
  let m = Workload.Mix.make ~u:10 ~rq:10 ~c:80 in
  Alcotest.(check string) "label" "10-10-80" (Workload.Mix.label m);
  let m' = Workload.Mix.of_label "2-20-78" in
  Alcotest.(check string) "parse" "2-20-78" (Workload.Mix.label m')

let mix_invalid () =
  Alcotest.check_raises "sum != 100" (Invalid_argument
    "Mix.make: percentages must be non-negative and sum to 100") (fun () ->
      ignore (Workload.Mix.make ~u:50 ~rq:10 ~c:50));
  Alcotest.check_raises "bad label"
    (Invalid_argument "Mix.of_label: expected U-RQ-C, got nope") (fun () ->
      ignore (Workload.Mix.of_label "nope"))

let mix_distribution () =
  let m = Workload.Mix.make ~u:20 ~rq:10 ~c:70 in
  let rng = Util.rng 7 in
  let n = 100_000 in
  let ins = ref 0 and del = ref 0 and con = ref 0 and rq = ref 0 in
  for _ = 1 to n do
    match Workload.Mix.pick m rng ~key_range:1000 with
    | Workload.Mix.Insert k ->
      Alcotest.(check bool) "key range" true (k >= 1 && k <= 1000);
      incr ins
    | Workload.Mix.Delete _ -> incr del
    | Workload.Mix.Contains _ -> incr con
    | Workload.Mix.Range _ -> incr rq
  done;
  let pct x = 100. *. float_of_int x /. float_of_int n in
  Alcotest.(check bool) "updates ~20%" true (abs_float (pct (!ins + !del) -. 20.) < 1.5);
  Alcotest.(check bool) "inserts ~ deletes" true
    (abs_float (pct !ins -. pct !del) < 1.5);
  Alcotest.(check bool) "rq ~10%" true (abs_float (pct !rq -. 10.) < 1.5);
  Alcotest.(check bool) "contains ~70%" true (abs_float (pct !con -. 70.) < 1.5)

let mix_deterministic_stream () =
  (* the harness relies on seeded reproducibility of the op stream *)
  let m = Workload.Mix.make ~u:30 ~rq:20 ~c:50 in
  let draw seed =
    let rng = Util.rng seed in
    List.init 2_000 (fun _ -> Workload.Mix.pick m rng ~key_range:999)
  in
  Alcotest.(check bool) "same seed, same stream" true (draw 5 = draw 5);
  Alcotest.(check bool) "different seed differs" true (draw 5 <> draw 6)

let zipf_cdf_and_range () =
  let z = Workload.Zipf.make ~n:1_000 ~theta:0.99 in
  Alcotest.(check int) "n" 1_000 (Workload.Zipf.n z);
  let rng = Util.rng 17 in
  for _ = 1 to 10_000 do
    let k = Workload.Zipf.sample z rng in
    if k < 1 || k > 1_000 then Alcotest.failf "out of range: %d" k
  done

let zipf_skew () =
  let n = 1_000 and draws = 50_000 in
  let z = Workload.Zipf.make ~n ~theta:0.99 in
  let rng = Util.rng 23 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let k = Workload.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  let share k = float_of_int counts.(k) /. float_of_int draws in
  (* key 1 dwarfs the uniform share (1/1000) and key 2 ~ half of key 1 *)
  Alcotest.(check bool) "head heavy" true (share 1 > 0.05);
  Alcotest.(check bool) "rank 2 about half of rank 1" true
    (share 2 > share 1 *. 0.3 && share 2 < share 1 *. 0.8);
  Alcotest.(check bool) "tail light" true (share 900 < share 1 /. 20.)

let zipf_theta_zero_uniform () =
  let n = 100 and draws = 100_000 in
  let z = Workload.Zipf.make ~n ~theta:0. in
  let rng = Util.rng 29 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let k = Workload.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  let expected = float_of_int draws /. float_of_int n in
  Array.iteri
    (fun k c ->
      if k >= 1 && abs_float (float_of_int c -. expected) > expected *. 0.25
      then Alcotest.failf "theta=0 not uniform at key %d (%d)" k c)
    counts

(* The scramble is a bijection on [1, n]: same popularity masses, just
   relocated.  Check permutation-ness exactly and the distribution shape
   statistically (the hottest *scrambled* key must carry rank 1's mass,
   wherever it landed). *)
let zipf_scramble_permutation () =
  List.iter
    (fun n ->
      let z = Workload.Zipf.scrambled ~seed:42 (Workload.Zipf.make ~n ~theta:0.99) in
      let seen = Array.make (n + 1) false in
      for r = 1 to n do
        let k = Workload.Zipf.key_of_rank z r in
        if k < 1 || k > n then Alcotest.failf "n=%d rank %d -> %d" n r k;
        if seen.(k) then Alcotest.failf "n=%d key %d hit twice" n k;
        seen.(k) <- true
      done)
    [ 1; 2; 7; 64; 1_000 ];
  (* deterministic per seed; different seeds give different layouts *)
  let perm seed =
    let z = Workload.Zipf.scrambled ~seed (Workload.Zipf.make ~n:512 ~theta:0.99) in
    List.init 512 (fun i -> Workload.Zipf.key_of_rank z (i + 1))
  in
  Alcotest.(check bool) "seeded reproducible" true (perm 7 = perm 7);
  Alcotest.(check bool) "seeds differ" true (perm 7 <> perm 8);
  (* identity without scrambling *)
  let id = Workload.Zipf.make ~n:64 ~theta:0.5 in
  for r = 1 to 64 do
    Alcotest.(check int) "identity" r (Workload.Zipf.key_of_rank id r)
  done

let zipf_scramble_shape () =
  let n = 1_000 and draws = 50_000 in
  let z = Workload.Zipf.scrambled ~seed:9 (Workload.Zipf.make ~n ~theta:0.99) in
  let rng = Util.rng 31 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let k = Workload.Zipf.sample z rng in
    if k < 1 || k > n then Alcotest.failf "out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  let share k = float_of_int counts.(k) /. float_of_int draws in
  let hot1 = Workload.Zipf.key_of_rank z 1 in
  let hot2 = Workload.Zipf.key_of_rank z 2 in
  Alcotest.(check bool) "head mass follows the bijection" true (share hot1 > 0.05);
  Alcotest.(check bool) "rank 2 about half of rank 1" true
    (share hot2 > share hot1 *. 0.3 && share hot2 < share hot1 *. 0.8);
  (* the two hottest keys must not both sit in the first 1/8th of the key
     space (the unscrambled layout puts the entire head there) *)
  Alcotest.(check bool) "head keys spread out" true
    (hot1 > n / 8 || hot2 > n / 8)

let harness_zipf_runs () =
  let config =
    {
      Workload.Harness.default with
      threads = 1;
      seconds = 0.1;
      key_range = 1_024;
      zipf_theta = Some 0.99;
    }
  in
  let r = Workload.Harness.run (Workload.Targets.bst_vcas `Hardware) config in
  Alcotest.(check bool) "did work under skew" true (r.Workload.Harness.total_ops > 500)

let stats_known_values () =
  Alcotest.(check (float 1e-9)) "mean" 3. (Workload.Stats.mean [ 1.; 3.; 5. ]);
  Alcotest.(check (float 1e-9)) "stddev" 2. (Workload.Stats.stddev [ 1.; 3.; 5. ]);
  Alcotest.(check (float 1e-9)) "cv" (2. /. 3.)
    (Workload.Stats.coefficient_of_variation [ 1.; 3.; 5. ]);
  Alcotest.(check (float 1e-9)) "speedup" 2.5
    (Workload.Stats.speedup ~baseline:2. 5.);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0. (Workload.Stats.stddev [ 4. ])

let stats_degenerate_inputs () =
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Workload.Stats.mean []);
  Alcotest.(check (float 1e-9)) "stddev empty" 0. (Workload.Stats.stddev []);
  Alcotest.(check (float 1e-9)) "cv empty" 0.
    (Workload.Stats.coefficient_of_variation []);
  Alcotest.(check (float 1e-9)) "cv singleton" 0.
    (Workload.Stats.coefficient_of_variation [ 4. ]);
  Alcotest.(check (float 1e-9)) "cv of zeros" 0.
    (Workload.Stats.coefficient_of_variation [ 0.; 0.; 0. ])

let stats_percentile () =
  let p = Workload.Stats.percentile in
  Alcotest.(check (float 1e-9)) "empty" 0. (p 50. []);
  Alcotest.(check (float 1e-9)) "singleton" 7. (p 99. [ 7. ]);
  Alcotest.(check (float 1e-9)) "median odd" 3. (p 50. [ 5.; 1.; 3. ]);
  Alcotest.(check (float 1e-9)) "median even interpolates" 2.5
    (p 50. [ 4.; 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2. (p 25. [ 1.; 3.; 5. ]);
  Alcotest.(check (float 1e-9)) "p0 is min" 1. (p 0. [ 3.; 1.; 5. ]);
  Alcotest.(check (float 1e-9)) "p100 is max" 5. (p 100. [ 3.; 1.; 5. ]);
  Alcotest.(check (float 1e-9)) "clamped above" 5. (p 150. [ 3.; 1.; 5. ]);
  Alcotest.(check (float 1e-9)) "clamped below" 1. (p (-10.) [ 3.; 1.; 5. ])

(* With [fixed_ops] the op count is seed-determined, so toggling the obs
   kill switch must not change what the harness reports. *)
let harness_obs_kill_switch_deterministic () =
  let config =
    {
      Workload.Harness.default with
      threads = 2;
      key_range = 512;
      fixed_ops = Some 2_000;
    }
  in
  let run_once enabled =
    Hwts_obs.Config.set_enabled enabled;
    Workload.Harness.run (Workload.Targets.bst_vcas `Logical) config
  in
  let prev = Hwts_obs.Config.enabled () in
  Fun.protect
    ~finally:(fun () -> Hwts_obs.Config.set_enabled prev)
    (fun () ->
      let r_off = run_once false in
      let r_on = run_once true in
      Alcotest.(check int) "exact op count (off)" 4_000
        r_off.Workload.Harness.total_ops;
      Alcotest.(check int) "same total_ops" r_off.Workload.Harness.total_ops
        r_on.Workload.Harness.total_ops;
      Alcotest.(check (array int)) "same per-thread counts"
        r_off.Workload.Harness.per_thread r_on.Workload.Harness.per_thread;
      Alcotest.(check (array int)) "same per-class counts"
        r_off.Workload.Harness.per_class r_on.Workload.Harness.per_class;
      Alcotest.(check int) "per-class sums to total"
        r_on.Workload.Harness.total_ops
        (Array.fold_left ( + ) 0 r_on.Workload.Harness.per_class))

let harness_prefill_exact () =
  let (module S : Dstruct.Ordered_set.RQ) = Workload.Targets.bst_vcas `Hardware in
  let t = S.create () in
  let n = Workload.Harness.prefill (module S) t ~key_range:1_000 ~seed:3 in
  Alcotest.(check int) "prefill count" 500 n;
  Alcotest.(check int) "structure size" 500 (S.size t)

let harness_runs () =
  let config =
    {
      Workload.Harness.default with
      threads = 2;
      seconds = 0.15;
      key_range = 1_024;
    }
  in
  let r = Workload.Harness.run (Workload.Targets.citrus_bundle `Hardware) config in
  Alcotest.(check bool) "did work" true (r.Workload.Harness.total_ops > 1_000);
  Alcotest.(check int) "per-thread counts" 2 (Array.length r.per_thread);
  Alcotest.(check bool) "mops consistent" true
    (abs_float
       (r.mops
       -. (float_of_int r.total_ops /. r.elapsed /. 1e6))
    < 1e-6)

let harness_trials () =
  let config =
    { Workload.Harness.default with threads = 1; seconds = 0.1; key_range = 512 }
  in
  let rs = Workload.Harness.run_trials ~trials:3 (Workload.Targets.bst_vcas `Logical) config in
  Alcotest.(check int) "three trials" 3 (List.length rs);
  let mean, cv = Workload.Harness.mops_of_trials rs in
  Alcotest.(check bool) "mean positive" true (mean > 0.);
  Alcotest.(check bool) "cv finite" true (cv >= 0. && cv < 2.)

let targets_all_work () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun ts ->
          let (module S : Dstruct.Ordered_set.RQ) = make ts in
          let t = S.create () in
          Alcotest.(check bool) (name ^ " insert") true (S.insert t 5);
          Alcotest.(check bool) (name ^ " contains") true (S.contains t 5);
          ignore (S.insert t 7);
          Alcotest.(check (array int)) (name ^ " rq") [| 5; 7 |]
            (S.range_query t ~lo:1 ~hi:10);
          Alcotest.(check bool) (name ^ " delete") true (S.delete t 5))
        Workload.Targets.all_ts)
    Workload.Targets.all;
  let (module LF : Dstruct.Ordered_set.RQ) =
    Workload.Targets.bst_ebrrq_lockfree `Hardware_strict
  in
  let t = LF.create () in
  ignore (LF.insert t 9);
  Alcotest.(check (array int)) "lock-free ebr-rq rq" [| 9 |] (LF.range_query t ~lo:1 ~hi:10)

let provider_registry () =
  let open Workload.Targets in
  Alcotest.(check (list string)) "canonical names, registry order"
    [
      "logical"; "delayed"; "multislot"; "tl2"; "rdtscp"; "rdtscp-strict";
    ]
    (List.map (fun i -> i.name) registry);
  (* every name-keyed surface round-trips through the registry *)
  List.iter
    (fun i ->
      Alcotest.(check bool) ("ts_of_name " ^ i.name) true
        (ts_of_name i.name = Some i.key);
      Alcotest.(check string) ("ts_name of " ^ i.name) i.name (ts_name i.key);
      List.iter
        (fun a ->
          Alcotest.(check bool) ("alias " ^ a) true (ts_of_name a = Some i.key))
        i.aliases;
      let help = provider_help () in
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (i.name ^ " in --provider help") true
        (contains help i.name))
    registry;
  Alcotest.(check (option reject)) "unknown name rejected" None
    (ts_of_name "nope");
  (* instance wires the reader to the same clock the structure labels
     with, for every provider in the zoo *)
  List.iter
    (fun i ->
      let inst = instance "bst-vcas" i.key in
      Alcotest.(check string) "instance provider name" i.name inst.provider;
      Alcotest.(check bool) "reader usable" true (inst.now () >= 0))
    registry

(* The swept zoo is the one provider list the check and trace-report
   defaults, the scaling sweep and the benchkit coverage rules derive
   from: every entry must be a registered provider, named once. *)
let zoo_within_registry () =
  let open Workload.Targets in
  List.iter
    (fun ts ->
      Alcotest.(check bool) (ts_name ts ^ " registered") true
        (List.mem ts all_ts);
      Alcotest.(check bool) (ts_name ts ^ " resolves by name") true
        (ts_of_name (ts_name ts) = Some ts))
    zoo;
  Alcotest.(check int) "no provider swept twice" (List.length zoo)
    (List.length (List.sort_uniq compare zoo));
  (* the served workloads run these two providers *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " swept") true
        (List.mem n (List.map ts_name zoo)))
    [ "logical"; "rdtscp-strict" ]

let () =
  Alcotest.run "workload"
    [
      ( "mix",
        [
          Alcotest.test_case "roundtrip" `Quick mix_roundtrip;
          Alcotest.test_case "invalid" `Quick mix_invalid;
          Alcotest.test_case "distribution" `Quick mix_distribution;
          Alcotest.test_case "deterministic stream" `Quick
            mix_deterministic_stream;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "cdf and range" `Quick zipf_cdf_and_range;
          Alcotest.test_case "skew" `Quick zipf_skew;
          Alcotest.test_case "theta=0 uniform" `Quick zipf_theta_zero_uniform;
          Alcotest.test_case "scramble permutation" `Quick
            zipf_scramble_permutation;
          Alcotest.test_case "scramble shape" `Quick zipf_scramble_shape;
          Alcotest.test_case "harness runs" `Slow harness_zipf_runs;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick stats_known_values;
          Alcotest.test_case "degenerate inputs" `Quick stats_degenerate_inputs;
          Alcotest.test_case "percentile" `Quick stats_percentile;
        ] );
      ( "harness",
        [
          Alcotest.test_case "prefill exact" `Quick harness_prefill_exact;
          Alcotest.test_case "obs kill switch deterministic" `Quick
            harness_obs_kill_switch_deterministic;
          Alcotest.test_case "runs" `Slow harness_runs;
          Alcotest.test_case "trials" `Slow harness_trials;
          Alcotest.test_case "targets all work" `Quick targets_all_work;
          Alcotest.test_case "provider registry" `Quick provider_registry;
          Alcotest.test_case "zoo within registry" `Quick zoo_within_registry;
        ] );
    ]
