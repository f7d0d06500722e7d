(* Domain-scaling sweep: every range-query structure under the full
   provider zoo — logical (fetch-and-add), the flock/verlib logical-clock
   optimizations (delayed-increment, multislot sum, TL2 epochs), the
   sharded strict TSC ("rdtscp-strict") and the adaptive provider — at
   1/2/4/8 worker domains (HWTS_DOMAINS / -domains to override).

   This is the Figure 1/2 experiment of the paper run as a regression
   artifact: the logical clock's single shared word is the point of
   contention its scaling pays for, so it wins at one domain (a local
   fetch-and-add beats a serialized RDTSCP) and loses as domains are
   added — the crossover.  The sweep records, per point, throughput,
   minor-heap words per operation, and the *per-domain* throughput
   spread (coefficient of variation over each worker's ops against its
   own clock): a shared-word clock shows up as spread before it shows up
   in the mean.

   Honesty note: the crossover is a cache-coherence phenomenon.  On a
   machine with fewer cores than domains, added domains time-slice
   instead of contending, so the shape is reported per structure — found
   or not — rather than asserted; the checked-in artifact states what
   this machine produced.

   The adaptive series is the PR's acceptance gauge: it should track the
   winner of the other two at every point (within the tolerance the
   "adaptive_margin" record states), because it *is* one of the other two
   at any instant, plus sensing overhead and switch cost.  Each adaptive
   point also records how often the provider migrated and at which labels
   (chronological switch points from the final trial).

   Pairing discipline (Benchkit.Kit): each trial runs all providers back
   to back at the same domain count, rotating which goes first, and
   points keep component-wise medians, so machine drift lands on every
   series equally. *)

module J = Hwts_obs.Json
module Kit = Benchkit.Kit

let default_out = "BENCH_scaling.json"

let run_leg make config ~warmup : Kit.row =
  let r = Kit.harness_leg make config ~warmup in
  [
    ("mops", J.Float r.Workload.Harness.mops);
    ("words_per_op", J.Float r.words_per_op);
    ("per_domain_mops_cv", J.Float (Workload.Harness.per_thread_mops_cv r));
    ("per_domain_imbalance", J.Float (Workload.Harness.imbalance r));
    ("total_ops", J.Int r.total_ops);
    ("elapsed", J.Float r.elapsed);
  ]

(* The swept provider zoo: the paper's two poles (logical FAA, sharded
   strict TSC), the three flock/verlib logical-clock optimizations, and
   the adaptive provider that self-selects among all of them. *)
let zoo : Workload.Targets.ts list =
  [ `Logical; `Delayed; `Multislot; `Tl2; `Hardware_strict; `Adaptive ]

let zoo_names = List.map Workload.Targets.ts_name zoo

(* Paired trials at one (structure, domain count): all zoo providers run
   back to back, the starting provider rotating by trial so no series
   systematically inherits a warm cache or a stolen quantum.  Each
   adaptive leg gets a *fresh* instance (its sensing state and switch log
   are per-instance); the leg's migration count and, for the final leg,
   the chronological switch points (direction, label at the fold) are
   kept alongside.  Scheduler preemption on a shared box only ever
   *slows* a leg, so the adaptive-margin gauge compares each provider's
   best trial; reported points keep medians. *)
let run_zoo name make config ~warmup ~trials =
  let switch_counts = ref [] and last_switch_points = ref [] in
  let providers = Array.of_list zoo in
  let legs =
    Kit.paired ~arms:(Array.length providers) ~trials (fun ~trial:_ i ->
        match providers.(i) with
        | `Adaptive ->
          let inst = Workload.Targets.instance name `Adaptive in
          let leg = run_leg inst.Workload.Targets.structure config ~warmup in
          Option.iter
            (fun ctl ->
              switch_counts := ctl.Hwts.Timestamp.switch_count () :: !switch_counts;
              last_switch_points := ctl.Hwts.Timestamp.switch_points ())
            inst.Workload.Targets.adaptive;
          leg
        | ts -> run_leg (make ts) config ~warmup)
  in
  ( Array.to_list (Array.map Kit.summarize legs),
    (Benchkit.Family.median !switch_counts, !last_switch_points),
    Array.to_list (Array.map (fun l -> Kit.best l "mops") legs) )

let print_point name provider d p =
  Printf.printf "%-18s %-14s %8d %10.3f %10.1f %8.3f %8.2f\n%!" name provider d
    (Kit.num p "mops") (Kit.num p "words_per_op") (Kit.num p "per_domain_mops_cv")
    (Kit.num p "per_domain_imbalance")

let () =
  let domains_spec =
    ref (try Sys.getenv "HWTS_DOMAINS" with Not_found -> "1,2,4,8")
  in
  let ops = ref 20_000 in
  let warmup = ref 5_000 in
  let key_range = ref 1_024 in
  let rq_len = ref 50 in
  let out = ref default_out in
  let only = ref "" in
  let mix = ref "10-10-80" in
  let trials = ref 3 in
  Arg.parse
    [
      ( "-domains",
        Arg.Set_string domains_spec,
        " comma-separated worker-domain counts (default $HWTS_DOMAINS or \
         1,2,4,8)" );
      ("-ops", Arg.Set_int ops, " fixed ops per domain per leg (default 20k)");
      ("-warmup", Arg.Set_int warmup, " discarded warmup ops (default 5k)");
      ( "-key-range",
        Arg.Set_int key_range,
        " key range, shared by every structure so cross-structure ratios \
         are apples-to-apples (default 1024)" );
      ("-rq-len", Arg.Set_int rq_len, " range-query length (default 50)");
      ("-out", Arg.Set_string out, " output file (default BENCH_scaling.json)");
      ("-structure", Arg.Set_string only, " run only this structure");
      ("-mix", Arg.Set_string mix, " U-RQ-C mix label (default 10-10-80)");
      ( "-trials",
        Arg.Set_int trials,
        " paired trials per point, medians kept (default 3)" );
    ]
    (fun _ -> ())
    "scaling: provider-zoo domain sweep (the Fig. 1/2 crossover plus the \
     flock/verlib logical-clock schemes)";
  let domain_counts = Kit.counts ~what:"domain counts" !domains_spec in
  Hwts_obs.Config.set_enabled false;
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
  let structures =
    List.filter
      (fun (name, _) -> !only = "" || name = !only)
      Workload.Targets.all
  in
  let meta =
    [
      ("domains", J.List (List.map (fun d -> J.Int d) domain_counts));
      ("ops_per_domain", J.Int !ops);
      ("key_range", J.Int !key_range);
      ("rq_len", J.Int !rq_len);
      ("mix", J.Str !mix);
      ("trials", J.Int !trials);
      ("providers", J.List (List.map (fun n -> J.Str n) zoo_names));
    ]
  in
  Kit.with_artifact ~path:!out ~family:"bench.scaling" meta @@ fun emit ->
  let point ~structure ~provider ~domains ?(extra = []) p =
    emit "point"
      ([
         ("structure", J.Str structure);
         ("provider", J.Str provider);
         ("domains", J.Int domains);
       ]
      @ p @ extra)
  in
  Printf.printf "%-18s %-14s %8s %10s %10s %8s %8s\n" "structure" "provider"
    "domains" "mops" "w/op" "cv" "imbal";
  let crossover_structures = ref [] in
  List.iter
    (fun (name, make) ->
      if not (Workload.Targets.supports name `Hardware_strict) then
        (* Logical-only structure: one series, no crossover to look for. *)
        List.iter
          (fun d ->
            let p = run_leg (make `Logical) (config d) ~warmup:!warmup in
            print_point name "logical" d p;
            point ~structure:name ~provider:"logical" ~domains:d p)
          domain_counts
      else begin
        let series =
          List.map
            (fun d ->
              let points, (switches, switch_points), bests =
                run_zoo name make (config d) ~warmup:!warmup ~trials:!trials
              in
              List.iter2
                (fun provider p ->
                  print_point name provider d p;
                  let extra =
                    if provider <> "adaptive" then []
                    else
                      [
                        ("switches", J.Int switches);
                        ( "switch_points",
                          J.List
                            (List.map
                               (fun (dir, label) ->
                                 J.Obj [ ("dir", J.Str dir); ("at", J.Int label) ])
                               switch_points) );
                      ]
                  in
                  point ~structure:name ~provider ~domains:d ~extra p)
                zoo_names points;
              (d, List.combine zoo_names points, bests))
            domain_counts
        in
        (* The acceptance gauge: at every point the adaptive series should
           be within tolerance of whichever fixed provider won there.
           Ratios come from each leg's best trial; the adaptive provider is
           the last zoo entry. *)
        let worst_ratio =
          List.fold_left
            (fun acc (_, _, bests) ->
              match List.rev bests with
              | ba :: fixed_rev ->
                let best = List.fold_left Float.max 0. fixed_rev in
                if best <= 0. then acc else Float.min acc (ba /. best)
              | [] -> acc)
            infinity series
        in
        let margin_ok = worst_ratio >= 0.9 in
        Printf.printf
          "%-18s adaptive margin: worst adaptive/best-of ratio %.3f (%s)\n%!"
          name worst_ratio
          (if margin_ok then "ok" else "BELOW 0.9");
        emit "adaptive_margin"
          [
            ("structure", J.Str name);
            ("worst_ratio", J.Float worst_ratio);
            ("ok", J.Bool margin_ok);
          ];
        (* The Fig. 1/2 shape: logical ahead at the smallest count, strict
           ahead at some larger one.  Alongside, the single-threaded-gap
           gauge of the zoo: which fixed provider wins at the smallest
           domain count, and whether any zoo scheme matches the logical
           baseline there (the gap the flock optimizations exist to
           close). *)
        let mops points provider = Kit.num (List.assoc provider points) "mops" in
        let d0, points0, _ = List.hd series in
        let log0 = mops points0 "logical" in
        let logical_wins_at_min = log0 >= mops points0 "rdtscp-strict" in
        let crossover =
          List.find_map
            (fun (d, points, _) ->
              if d > d0 && mops points "rdtscp-strict" > mops points "logical"
              then Some d
              else None)
            series
        in
        let zoo_best_at_min, zoo_best_name =
          List.fold_left
            (fun (bm, bn) (pname, p) ->
              let m = Kit.num p "mops" in
              if pname <> "adaptive" && m > bm then (m, pname) else (bm, bn))
            (0., "") points0
        in
        let shape_found = logical_wins_at_min && crossover <> None in
        if shape_found then crossover_structures := name :: !crossover_structures;
        emit "shape"
          [
            ("structure", J.Str name);
            ("min_domains", J.Int d0);
            ("logical_wins_at_min", J.Bool logical_wins_at_min);
            ( "crossover_domains",
              match crossover with Some d -> J.Int d | None -> J.Null );
            ("shape_found", J.Bool shape_found);
            ("zoo_best_at_min", J.Str zoo_best_name);
            ("zoo_closes_gap_at_min", J.Bool (zoo_best_at_min >= log0));
          ]
      end)
    structures;
  let crossovers = List.rev !crossover_structures in
  emit "summary"
    [
      ("crossover_structures", J.List (List.map (fun s -> J.Str s) crossovers));
      ("crossover_observed", J.Bool (crossovers <> []));
    ];
  (match crossovers with
  | [] ->
    Printf.printf
      "no logical->strict crossover on this machine (cores=%d); see the \
       honesty note in bench/scaling.ml\n"
      (Domain.recommended_domain_count ())
  | cs -> Printf.printf "crossover shape found for: %s\n" (String.concat ", " cs));
  Printf.printf "wrote %s\n" !out
