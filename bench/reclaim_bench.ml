(* Reclamation-backend sweep: the two structures that actually retire
   nodes (the lock-free EBR-RQ BST and the Citrus EBR-RQ port) under the
   three backends in lib/reclaim — per-op EBR, boundary-announcement
   QSBR, and QSBR-TSC, which orders grace with raw rdtscp stamps plus
   the Ordo skew bound instead of a shared epoch counter.

   The claim under test is the paper's thesis applied to reclamation:
   the announce store is EBR's per-op cost (two shared-array stores per
   operation), and a quiescence-based scheme moves that cost to loop
   boundaries, where it amortizes over the harness's whole check chunk.
   Every store to an announce slot in any backend increments
   reclaim.announce_stores, so the artifact can gate on the mechanism
   (announce stores per op must drop, strictly) and not just the
   symptom (throughput), which on a noisy box is the weaker signal.

   The flip side the artifact also records: QSBR frees nothing until
   every domain announces, so its limbo high-water mark is the price of
   the cheap fast path.  The EXPERIMENTS.md recipe plots exactly this
   trade (announce_per_op down, limbo_hwm up).

   Pairing discipline (Benchkit.Kit): each trial runs all backends back
   to back at the same (structure, domains) point with a rotating
   starting backend, points keep component-wise medians, and the
   throughput gate uses each leg's best trial so a stolen scheduler
   quantum cannot fail the gate on its own. *)

module J = Hwts_obs.Json
module Kit = Benchkit.Kit

let default_out = "BENCH_reclaim.json"

let backends : Workload.Targets.reclaim list = [ `Ebr; `Qsbr; `Qsbr_tsc ]
let backend_names = List.map Workload.Targets.reclaim_name backends

(* Only the structures whose deletes retire into limbo: the vcas/bundle
   Citrus ports use the backend for grace waits but never retire, so
   they have no announce-vs-limbo trade to measure. *)
let structures = [ "bst-ebrrq-lockfree"; "citrus-ebrrq" ]

let counter name =
  match Hwts_obs.Registry.counter_value name with Some v -> v | None -> 0

let watermark name =
  match Hwts_obs.Registry.find name with
  | Some (Hwts_obs.Registry.Watermark w) -> Hwts_obs.Watermark.get w
  | _ -> 0

(* Counters (and the limbo high-water mark) restart at zero after the
   warmup, so a leg's numbers cover exactly its measured ops. *)
let run_leg structure reclaim config ~warmup : Kit.row =
  let inst = Workload.Targets.instance ~reclaim structure `Logical in
  let r =
    Kit.harness_leg ~after_warmup:Hwts_obs.Registry.reset_all
      inst.Workload.Targets.structure config ~warmup
  in
  let ops = r.Workload.Harness.total_ops in
  [
    ("mops", J.Float r.mops);
    ("total_ops", J.Int ops);
    ( "announce_per_op",
      J.Float (float_of_int (counter "reclaim.announce_stores") /. float_of_int (max 1 ops)) );
    ("quiesces", J.Int (counter "reclaim.quiesces"));
    ("retired", J.Int (counter "reclaim.retired"));
    ("reclaimed", J.Int (counter "reclaim.reclaimed"));
    ("limbo_hwm", J.Int (watermark "reclaim.limbo_hwm"));
    ("grace_waits", J.Int (counter "reclaim.grace_waits"));
  ]

let () =
  let domains_spec = ref "1,2" in
  let ops = ref 20_000 in
  let warmup = ref 5_000 in
  let key_range = ref 1_024 in
  let rq_len = ref 50 in
  let mix = ref "50-10-40" in
  let trials = ref 3 in
  let mops_floor = ref 0.95 in
  let out = ref default_out in
  Arg.parse
    [
      ( "-domains",
        Arg.Set_string domains_spec,
        " comma-separated worker-domain counts (default 1,2)" );
      ("-ops", Arg.Set_int ops, " fixed ops per domain per leg (default 20k)");
      ("-warmup", Arg.Set_int warmup, " discarded warmup ops (default 5k)");
      ("-key-range", Arg.Set_int key_range, " key range (default 1024)");
      ("-rq-len", Arg.Set_int rq_len, " range-query length (default 50)");
      ( "-mix",
        Arg.Set_string mix,
        " U-RQ-C mix label (default 50-10-40: update-heavy, so retirement \
         is actually exercised)" );
      ( "-trials",
        Arg.Set_int trials,
        " paired trials per point, medians kept (default 3)" );
      ( "-mops-floor",
        Arg.Set_float mops_floor,
        " QSBR backends must reach this fraction of EBR throughput \
         (best-of-trials; default 0.95)" );
      ("-out", Arg.Set_string out, " output file (default BENCH_reclaim.json)");
    ]
    (fun _ -> ())
    "reclaim_bench: reclamation-backend sweep (announce stores per op, \
     limbo high water, throughput) over the retiring EBR-RQ structures";
  let domain_counts = Kit.counts ~what:"domain counts" !domains_spec in
  (* The announce-store counters are the measurement, so the registry
     must be live — unlike the throughput-only benches that switch it
     off.  It is live for every backend alike, so ratios are fair. *)
  Hwts_obs.Config.set_enabled true;
  let config domains =
    {
      Workload.Harness.default with
      threads = domains;
      key_range = !key_range;
      rq_len = !rq_len;
      fixed_ops = Some !ops;
      mix = Workload.Mix.of_label !mix;
    }
  in
  let meta =
    [
      ("domains", J.List (List.map (fun d -> J.Int d) domain_counts));
      ("ops_per_domain", J.Int !ops);
      ("key_range", J.Int !key_range);
      ("rq_len", J.Int !rq_len);
      ("mix", J.Str !mix);
      ("trials", J.Int !trials);
      ("mops_floor", J.Float !mops_floor);
      ("provider", J.Str "logical");
      ("reclaimers", J.List (List.map (fun n -> J.Str n) backend_names));
    ]
  in
  let all_ok =
    Kit.with_artifact ~path:!out ~family:"bench.reclaim" meta @@ fun emit ->
    Printf.printf "%-18s %-9s %7s %9s %12s %9s %9s %9s\n" "structure" "reclaim"
      "domains" "mops" "announce/op" "retired" "limbo^" "graces";
    let all_ok = ref true in
    List.iter
      (fun structure ->
        List.iter
          (fun d ->
            let arr = Array.of_list backends in
            let legs =
              Kit.paired ~arms:(Array.length arr) ~trials:!trials (fun ~trial:_ i ->
                  run_leg structure arr.(i) (config d) ~warmup:!warmup)
            in
            let points = Array.map Kit.summarize legs in
            Array.iteri
              (fun i p ->
                let rname = List.nth backend_names i in
                Printf.printf "%-18s %-9s %7d %9.3f %12.4f %9.0f %9.0f %9.0f\n%!"
                  structure rname d (Kit.num p "mops") (Kit.num p "announce_per_op")
                  (Kit.num p "retired") (Kit.num p "limbo_hwm") (Kit.num p "grace_waits");
                emit "point"
                  ([
                     ("structure", J.Str structure);
                     ("reclaim", J.Str rname);
                     ("domains", J.Int d);
                   ]
                  @ p))
              points;
            (* The gate, per point: both QSBR backends must beat EBR on the
               mechanism (strictly fewer announce stores per op) while
               keeping best-of-trials throughput above the floor. *)
            let ebr_announce = Kit.num points.(0) "announce_per_op" in
            for i = 1 to Array.length arr - 1 do
              let rname = List.nth backend_names i in
              let announce = Kit.num points.(i) "announce_per_op" in
              let ratio = Kit.best_ratio legs.(i) legs.(0) "mops" in
              let announce_ok = announce < ebr_announce in
              let mops_ok = ratio >= !mops_floor in
              if not (announce_ok && mops_ok) then all_ok := false;
              emit "gate"
                [
                  ("structure", J.Str structure);
                  ("reclaim", J.Str rname);
                  ("domains", J.Int d);
                  ("announce_per_op", J.Float announce);
                  ("ebr_announce_per_op", J.Float ebr_announce);
                  ("announce_ok", J.Bool announce_ok);
                  ("mops_ratio", J.Float ratio);
                  ("mops_ok", J.Bool mops_ok);
                  ("ok", J.Bool (announce_ok && mops_ok));
                ];
              Printf.printf
                "  gate %-9s vs ebr: announce %0.4f vs %0.4f (%s), mops ratio \
                 %.3f (%s)\n%!"
                rname announce ebr_announce
                (if announce_ok then "ok" else "NOT FEWER")
                ratio
                (if mops_ok then "ok" else "BELOW FLOOR")
            done)
          domain_counts)
      structures;
    emit "summary" [ ("ok", J.Bool !all_ok) ];
    !all_ok
  in
  Printf.printf "reclaim gate: %s\nwrote %s\n"
    (if all_ok then "ok" else "FAILED")
    !out;
  if not all_ok then exit 1
