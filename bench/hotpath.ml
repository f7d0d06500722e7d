(* Before/after microbench for the hot-path overhaul: per-domain scratch
   reuse, cached min-active pruning, and buffered range-query collection.

   Both mechanisms ship with runtime switches, so one binary measures both
   sides honestly: the baseline leg disables the scratch pools
   ([Sync.Scratch.set_enabled false] makes every [Scratch.get] return a
   fresh allocation) and pins the registry refresh period to 1 (a full
   slot scan on every prune) — exactly the pre-overhaul behavior.  The
   optimized leg restores the defaults.  Each leg replays the same fixed,
   seeded operation sequence against a freshly prefilled structure, so
   the only difference between legs is the mechanism under test.

   Reports Mops/s and minor-heap words allocated per operation (summed
   [Gc.minor_words] deltas of the worker domains), one JSON line per
   structure, to BENCH_hotpath.json.  Fixed-op legs make words/op
   essentially exact; the paired, rotated trials of Benchkit.Kit keep
   wall-clock drift off the Mops/s comparison. *)

module J = Hwts_obs.Json
module Kit = Benchkit.Kit

let default_out = "BENCH_hotpath.json"
let optimized_period = Rangequery.Rq_registry.refresh_period ()

let set_optimized on =
  Sync.Scratch.set_enabled on;
  Rangequery.Rq_registry.set_refresh_period (if on then optimized_period else 1)

let run_leg make config ~warmup : Kit.row =
  let r = Kit.harness_leg make config ~warmup in
  [
    ("mops", J.Float r.Workload.Harness.mops);
    ("words_per_op", J.Float r.words_per_op);
    ("minor_words", J.Float r.minor_words);
    ("total_ops", J.Int r.total_ops);
    ("elapsed", J.Float r.elapsed);
  ]

(* Per-structure key range: the O(n) list runs at a size it can carry, so
   its paired ratios measure the optimizations rather than pointer-chase
   saturation. *)
let config_for name config =
  {
    config with
    Workload.Harness.key_range =
      Workload.Targets.preferred_key_range name ~default:config.Workload.Harness.key_range;
  }

(* Guard mode: re-measure the optimized leg with fault injection left at
   its default (disabled) and compare against the recorded artifact.  The
   [Sync.Pause] sites threaded through the sync primitives and range-query
   hot paths must be free when disabled; allocation per op is seeded and
   fixed-op so it is compared near-exactly, while wall-clock throughput
   gets a generous shared-machine tolerance. *)
let run_guard ~path ~ts ~config ~warmup ~trials ~tol =
  let recorded =
    match Benchkit.Family.read_lines path with
    | Ok lines -> Benchkit.Family.(points hotpath lines)
    | Error e -> failwith ("guard: " ^ e)
  in
  if recorded = [] then failwith (Printf.sprintf "guard: no comparisons in %s" path);
  Printf.printf "%-16s %10s %10s %12s %12s  %s\n" "structure" "ref-mops" "now-mops" "ref-w/op"
    "now-w/op" "verdict";
  set_optimized true;
  let failures =
    List.filter
      (fun { Benchkit.Family.series = name; mops = ref_mops; words_per_op = ref_wpo; _ } ->
        match List.assoc_opt name Workload.Targets.all with
        | None -> false
        | Some make ->
          let legs =
            List.init trials (fun _ -> run_leg (make ts) (config_for name config) ~warmup)
          in
          let now = Kit.summarize legs in
          let now_mops = Kit.num now "mops" and now_wpo = Kit.num now "words_per_op" in
          (* words/op is deterministic up to GC bookkeeping: 2% + 1 word of
             slack; Mops/s absorbs machine drift via [tol]. *)
          let wpo_ok = now_wpo <= (ref_wpo *. 1.02) +. 1.0 in
          let mops_ok = now_mops >= ref_mops *. (1. -. tol) in
          Printf.printf "%-16s %10.3f %10.3f %12.1f %12.1f  %s\n%!" name ref_mops now_mops ref_wpo
            now_wpo
            (if not wpo_ok then "FAIL (allocation regression)"
             else if not mops_ok then "FAIL (throughput regression)"
             else "ok");
          not (wpo_ok && mops_ok))
      recorded
  in
  if failures <> [] then begin
    Printf.printf "guard: %d structure(s) regressed vs %s with faults disabled\n"
      (List.length failures) path;
    exit 1
  end
  else Printf.printf "guard: no overhead vs %s with faults disabled\n" path

let () =
  let threads = ref 1 in
  let ops = ref 200_000 in
  let warmup = ref 50_000 in
  let key_range = ref 16_384 in
  let rq_len = ref 100 in
  let out = ref default_out in
  let only = ref "" in
  let mix = ref "10-10-80" in
  let trials = ref 3 in
  let guard = ref "" in
  let guard_tol = ref 0.25 in
  let provider = ref "rdtscp" in
  Arg.parse
    [
      ( "-provider",
        Arg.Set_string provider,
        " timestamp provider (default rdtscp); any registry name:\n"
        ^ Workload.Targets.provider_help () );
      ("-threads", Arg.Set_int threads, " worker domains (default 1)");
      ("-ops", Arg.Set_int ops, " fixed ops per thread per leg (default 200k)");
      ("-warmup", Arg.Set_int warmup, " discarded warmup ops (default 50k)");
      ("-key-range", Arg.Set_int key_range, " key range (default 16384)");
      ("-rq-len", Arg.Set_int rq_len, " range-query length (default 100)");
      ("-out", Arg.Set_string out, " output file (default BENCH_hotpath.json)");
      ("-structure", Arg.Set_string only, " run only this structure");
      ("-mix", Arg.Set_string mix, " U-RQ-C mix label (default 10-10-80)");
      ("-trials", Arg.Set_int trials, " trials per leg, medians kept (default 3)");
      ( "-guard",
        Arg.Set_string guard,
        " compare a fresh optimized leg (faults disabled) against FILE \
         instead of rerunning the full before/after bench" );
      ( "-guard-tol",
        Arg.Set_float guard_tol,
        " relative Mops/s tolerance for -guard (default 0.25)" );
    ]
    (fun _ -> ())
    "hotpath: before/after scratch-reuse + cached-pruning microbench";
  (* Latency instrumentation off: the measured path should contain only
     the structures' own work. *)
  Hwts_obs.Config.set_enabled false;
  let ts = Kit.provider !provider in
  let config =
    {
      Workload.Harness.default with
      threads = !threads;
      key_range = !key_range;
      rq_len = !rq_len;
      fixed_ops = Some !ops;
      mix = Workload.Mix.of_label !mix;
    }
  in
  if !guard <> "" then begin
    run_guard ~path:!guard ~ts ~config ~warmup:!warmup ~trials:!trials ~tol:!guard_tol;
    exit 0
  end;
  let meta =
    [
      ("threads", J.Int !threads);
      ("ops_per_thread", J.Int !ops);
      ("key_range", J.Int !key_range);
      ("rq_len", J.Int !rq_len);
      ("mix", J.Str (Workload.Mix.label config.mix));
      ("provider", J.Str (Workload.Targets.ts_name ts));
      ("seed", J.Int config.seed);
      ("refresh_period", J.Int optimized_period);
      ("trials", J.Int !trials);
    ]
  in
  Kit.with_artifact ~path:!out ~family:"bench.hotpath" meta @@ fun emit ->
  Printf.printf "%-16s %10s %10s %12s %12s %8s %8s\n" "structure" "base-mops" "opt-mops"
    "base-w/op" "opt-w/op" "w-red%" "mops-x";
  List.iter
    (fun (name, make) ->
      if !only <> "" && name <> !only then ()
      else begin
        (* arm 0 = baseline, arm 1 = optimized *)
        let legs =
          Kit.paired ~arms:2 ~trials:!trials (fun ~trial:_ arm ->
              set_optimized (arm = 1);
              run_leg (make ts) (config_for name config) ~warmup:!warmup)
        in
        set_optimized true;
        let base = Kit.summarize legs.(0) and opt = Kit.summarize legs.(1) in
        let bw = Kit.num base "words_per_op" and ow = Kit.num opt "words_per_op" in
        let bm = Kit.num base "mops" and om = Kit.num opt "mops" in
        let reduction = if bw = 0. then 0. else (bw -. ow) /. bw *. 100. in
        let ratio = if bm = 0. then 0. else om /. bm in
        Printf.printf "%-16s %10.3f %10.3f %12.1f %12.1f %7.1f%% %8.2f\n%!" name bm om bw ow
          reduction ratio;
        emit "comparison"
          [
            ("structure", J.Str name);
            ("baseline", J.Obj base);
            ("optimized", J.Obj opt);
            ("words_per_op_reduction_pct", J.Float reduction);
            ("mops_ratio", J.Float ratio);
          ]
      end)
    Workload.Targets.all;
  Printf.printf "wrote %s\n" !out
