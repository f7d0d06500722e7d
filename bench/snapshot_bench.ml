(* Headline amortization bench for Snapshot.t: one timestamp acquisition
   covering k reads, against the same k reads each paying for its own
   acquisition.

   Sweep: reads-per-snapshot k x provider x structure, two paired arms
   per point —

     snapshot     one [Hwts_snapshot] handle, one [multi_get] of k keys
     independent  k handles of one [get] each (the k=1 degenerate form)

   Both arms perform exactly the same constituent reads over the same
   key stream, so the only difference is how many label acquisitions
   (and registry pins) cover them.  The snapshot.acquires/reads
   counters gate the mechanism — acquires per read must be 1/k, not
   just "fast" — and best-of-trials throughput gates the symptom: the
   amortized arm must not fall below [-mops-floor] of the baseline.

   The provider axis is the paper's crossover argument: a TSC read
   costs more than a logical-clock load at k=1, but one acquisition
   amortized over k reads shrinks the provider's share of the op, so
   the rdtscp-strict/logical throughput ratio must drift toward 1 as k
   grows.  Per-structure crossover lines record that movement.

   Pairing discipline (Benchkit.Kit): each trial runs both arms back to
   back with a rotating starting arm, points keep medians, gates use
   each arm's best trial. *)

module J = Hwts_obs.Json
module Kit = Benchkit.Kit

let default_out = "BENCH_snapshot.json"

let structures = [ "skiplist-bundle"; "bst-vcas"; "citrus-ebrrq" ]

let providers : Workload.Targets.ts list =
  [ `Logical; `Adaptive; `Hardware_strict ]

let gate_ks = [ 4; 16; 64 ]

let counter name =
  match Hwts_obs.Registry.counter_value name with Some v -> v | None -> 0

(* One arm at one point: [reads] constituent reads in batches of [k],
   keys drawn uniformly from the prefilled range. *)
let run_leg (type a) (module S : Dstruct.Ordered_set.RQ with type t = a)
    (st : a) ~key_range ~k ~reads ~coalesced ~seed : Kit.row =
  Gc.compact ();
  Hwts_obs.Registry.reset_all ();
  let rng = Dstruct.Prng.make ~seed in
  let keys = Array.make k 0 in
  let iters = reads / k in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    for i = 0 to k - 1 do
      keys.(i) <- 1 + Dstruct.Prng.below rng key_range
    done;
    if coalesced then
      Hwts_snapshot.with_snapshot (module S) st (fun s ->
          ignore (Hwts_snapshot.multi_get s keys))
    else
      Array.iter
        (fun key ->
          Hwts_snapshot.with_snapshot (module S) st (fun s ->
              ignore (Hwts_snapshot.get s key)))
        keys
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let nreads = iters * k in
  [
    ("mops", J.Float (if dt > 0. then float_of_int nreads /. dt /. 1e6 else 0.));
    ( "acquires_per_read",
      J.Float
        (float_of_int (counter "snapshot.acquires")
        /. float_of_int (max 1 (counter "snapshot.reads"))) );
  ]

let () =
  let ks_spec = ref "1,4,16,64,256" in
  let reads = ref 32_768 in
  let key_range = ref 1_024 in
  let trials = ref 3 in
  let mops_floor = ref 0.95 in
  let eps = ref 0.10 in
  let seed = ref 0xC0FFEE in
  let out = ref default_out in
  Arg.parse
    [
      ( "-ks",
        Arg.Set_string ks_spec,
        " comma-separated reads-per-snapshot points (default 1,4,16,64,256)" );
      ( "-reads",
        Arg.Set_int reads,
        " constituent reads per leg, all k alike (default 32768)" );
      ("-key-range", Arg.Set_int key_range, " key range (default 1024)");
      ( "-trials",
        Arg.Set_int trials,
        " paired trials per point, medians kept (default 3)" );
      ( "-mops-floor",
        Arg.Set_float mops_floor,
        " snapshot arm must reach this fraction of the independent arm's \
         throughput (best-of-trials; default 0.95)" );
      ( "-eps",
        Arg.Set_float eps,
        " acquires/read slack: gate is <= (1+eps)/k (default 0.10)" );
      ("-seed", Arg.Set_int seed, " key-stream seed (default 0xC0FFEE)");
      ("-out", Arg.Set_string out, " output file (default BENCH_snapshot.json)");
    ]
    (fun _ -> ())
    "snapshot_bench: reads-per-snapshot amortization sweep (one label \
     acquisition covering k reads vs k single-read acquisitions)";
  let ks = Kit.counts ~what:"k values" !ks_spec in
  (* the acquires/reads counters ARE the measurement; live for both arms
     alike, so throughput ratios stay fair *)
  Hwts_obs.Config.set_enabled true;
  let meta =
    [
      ("structures", J.List (List.map (fun s -> J.Str s) structures));
      ( "providers",
        J.List (List.map (fun p -> J.Str (Workload.Targets.ts_name p)) providers) );
      ("ks", J.List (List.map (fun k -> J.Int k) ks));
      ("reads", J.Int !reads);
      ("key_range", J.Int !key_range);
      ("trials", J.Int !trials);
      ("mops_floor", J.Float !mops_floor);
      ("eps", J.Float !eps);
    ]
  in
  let all_ok =
    Kit.with_artifact ~path:!out ~family:"bench.snapshot" meta @@ fun emit ->
    Printf.printf "%-16s %-13s %5s %12s %12s %14s\n" "structure" "provider" "k"
      "snap Mops" "indep Mops" "acquires/read";
    let all_ok = ref true in
    List.iter
      (fun structure ->
        (* per (structure, k): snapshot-arm best mops by provider, for
           crossover *)
        let snap_mops = Hashtbl.create 32 in
        List.iter
          (fun provider ->
            let pname = Workload.Targets.ts_name provider in
            let inst = Workload.Targets.instance structure provider in
            let (module S) = inst.Workload.Targets.structure in
            let st = S.create () in
            ignore
              (Workload.Harness.prefill (module S) st ~key_range:!key_range
                 ~seed:!seed);
            S.offline st;
            List.iter
              (fun k ->
                (* arm 0 = snapshot, arm 1 = independent *)
                let legs =
                  Kit.paired ~arms:2 ~trials:!trials (fun ~trial arm ->
                      run_leg (module S) st ~key_range:!key_range ~k ~reads:!reads
                        ~coalesced:(arm = 0)
                        ~seed:(!seed + (1000 * trial) + arm))
                in
                let snap = Kit.summarize legs.(0) and indep = Kit.summarize legs.(1) in
                let acquires = Kit.num snap "acquires_per_read" in
                Hashtbl.replace snap_mops (pname, k) (Kit.best legs.(0) "mops");
                Printf.printf "%-16s %-13s %5d %12.3f %12.3f %14.5f\n%!" structure
                  pname k (Kit.num snap "mops") (Kit.num indep "mops") acquires;
                List.iter
                  (fun (arm, p) ->
                    emit "point"
                      ([
                         ("structure", J.Str structure);
                         ("provider", J.Str pname);
                         ("k", J.Int k);
                         ("arm", J.Str arm);
                       ]
                      @ p))
                  [ ("snapshot", snap); ("independent", indep) ];
                if List.mem k gate_ks then begin
                  let bound = (1. +. !eps) /. float_of_int k in
                  let acquires_ok = acquires <= bound in
                  let ratio = Kit.best_ratio legs.(0) legs.(1) "mops" in
                  let mops_ok = ratio >= !mops_floor in
                  if not (acquires_ok && mops_ok) then begin
                    all_ok := false;
                    Printf.printf
                      "  gate k=%d FAILED: acquires/read %.5f (bound %.5f, %s), \
                       mops ratio %.3f (%s)\n%!"
                      k acquires bound
                      (if acquires_ok then "ok" else "OVER")
                      ratio
                      (if mops_ok then "ok" else "BELOW FLOOR")
                  end;
                  emit "gate"
                    [
                      ("structure", J.Str structure);
                      ("provider", J.Str pname);
                      ("k", J.Int k);
                      ("acquires_per_read", J.Float acquires);
                      ("acquires_bound", J.Float bound);
                      ("acquires_ok", J.Bool acquires_ok);
                      ("mops_ratio", J.Float ratio);
                      ("mops_ok", J.Bool mops_ok);
                      ("ok", J.Bool (acquires_ok && mops_ok));
                    ]
                end)
              ks)
          providers;
        (* crossover movement: the strict-TSC arm's throughput relative to
           logical, per k — amortization must close the provider gap *)
        List.iter
          (fun k ->
            match
              ( Hashtbl.find_opt snap_mops ("logical", k),
                Hashtbl.find_opt snap_mops ("rdtscp-strict", k) )
            with
            | Some lg, Some st_m when lg > 0. ->
              emit "crossover"
                [
                  ("structure", J.Str structure);
                  ("k", J.Int k);
                  ("strict_vs_logical", J.Float (st_m /. lg));
                ]
            | _ -> ())
          ks)
      structures;
    emit "summary" [ ("ok", J.Bool !all_ok) ];
    !all_ok
  in
  Printf.printf "snapshot gate: %s\nwrote %s\n"
    (if all_ok then "ok" else "FAILED")
    !out;
  if not all_ok then exit 1
