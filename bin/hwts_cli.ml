(* hwts-cli: operational front-end for the library.

   Subcommands:
     tsc-info    probe the hardware timestamp capabilities of this machine
     calibrate   measure primitive costs and print a Costs.t suggestion
     figure      regenerate one paper figure on the timing model
     run         run a real workload on a chosen structure/timestamp
     stress      concurrency smoke test of every range-query port
     stats       run a short workload and dump the metrics registry
     check       seeded fault-injection torture verified by the snapshot oracle

   Observability: `run` and `stress` accept --metrics-out FILE (JSON lines,
   see Hwts_obs.Registry); HWTS_OBS=0 in the environment disables every
   hook. *)

open Cmdliner

let tsc_info () =
  Printf.printf "x86:               %b\n" Tsc.is_x86;
  Printf.printf "invariant TSC:     %b\n" (Tsc.has_invariant_tsc ());
  Printf.printf "online CPUs:       %d\n" (Tsc.num_cpus ());
  Printf.printf "cycles per ns:     %.3f (%.2f GHz)\n" (Tsc.cycles_per_ns ())
    (Tsc.cycles_per_ns ());
  let a = Tsc.rdtscp_lfence () in
  let b = Tsc.rdtscp_lfence () in
  Printf.printf "rdtscp sample:     %d -> %d (delta %d cycles)\n" a b (b - a);
  Printf.printf "pin_to_cpu(0):     %b\n" (Tsc.pin_to_cpu 0);
  0

let calibrate () =
  let cost name f = Printf.printf "%-18s %8.1f cycles\n" name (Tsc.measure_cost_cycles f) in
  cost "rdtsc" Tsc.rdtsc;
  cost "rdtscp" Tsc.rdtscp;
  cost "rdtscp+lfence" Tsc.rdtscp_lfence;
  cost "cpuid+rdtsc" Tsc.rdtsc_cpuid;
  cost "monotonic-ns" Tsc.monotonic_ns;
  let module L = Hwts.Timestamp.Logical () in
  cost "logical-faa" (fun () -> L.advance ());
  Printf.printf
    "\nSuggested Model.Costs overrides: tsc_rdtscp_lfence = %.0f; tsc_rdtsc_cpuid = %.0f\n"
    (Tsc.measure_cost_cycles Tsc.rdtscp_lfence)
    (Tsc.measure_cost_cycles Tsc.rdtsc_cpuid);
  0

let figure id full csv =
  let duration = if full then 2_000_000. else 400_000. in
  let emit series =
    Format.printf "%a@." Model.Sweep.pp_series_table series;
    match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Model.Sweep.to_csv series);
      close_out oc;
      Printf.printf "(wrote %s)\n" path
  in
  let known = [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "labeling"; "lazylist" ] in
  if not (List.mem id known) then begin
    Printf.eprintf "unknown figure %S (expected one of: %s)\n" id
      (String.concat ", " known);
    1
  end
  else begin
    (* The bench executable holds the figure drivers; keep one source of
       truth by reusing the same sweep primitives here for a single id. *)
    let mix = Workload.Mix.of_label in
    let table label builder m =
      let series =
        [
          Model.Sweep.run_series ~duration ~label (fun env ->
              builder env ~mode:Model.Kernels.Logical ~mix:(mix m));
          Model.Sweep.run_series ~duration ~label:(label ^ "-RDTSCP")
            (fun env ->
              builder env ~mode:Model.Kernels.Hardware ~mix:(mix m));
        ]
      in
      Printf.printf "workload %s:\n" m;
      emit series
    in
    (match id with
    | "fig1" ->
      let series =
        List.map
          (fun (label, mode) ->
            Model.Sweep.run_series ~duration ~label (fun env ->
                Model.Kernels.ts_acquire env ~mode))
          [
            ("Logical TS", `Faa);
            ("RDTSCP", `Tsc Model.Costs.Rdtscp_lfence);
            ("RDTSC", `Tsc Model.Costs.Rdtsc_cpuid);
          ]
      in
      emit series
    | "fig2" -> table "vCAS" Model.Kernels.vcas_bst "10-10-80"
    | "fig3" ->
      table "vCAS" Model.Kernels.citrus_vcas "10-10-80";
      table "Bundle" Model.Kernels.citrus_bundle "10-10-80"
    | "fig4" -> table "EBR-RQ" Model.Kernels.citrus_ebrrq "10-10-80"
    | "fig5" -> table "Bundle" Model.Kernels.skiplist_bundle "20-10-70"
    | "labeling" ->
      List.iter
        (fun (name, g) ->
          let run mode label =
            Model.Sweep.run_series ~duration ~label (fun env ->
                Model.Kernels.labeling_sweep env ~mode ~granularity:g
                  ~mix:(mix "50-10-40"))
          in
          let base = run Model.Kernels.Logical name in
          let hw = run Model.Kernels.Hardware (name ^ "-RDTSCP") in
          Printf.printf "%-18s max RDTSCP speedup %.2fx\n" name
            (Model.Sweep.max_speedup hw ~baseline:base))
        [
          ("global-lock", `Global_lock);
          ("structural-lock", `Structural_lock);
          ("helped", `Helped);
        ]
    | "lazylist" ->
      let series =
        List.map
          (fun (label, mode) ->
            Model.Sweep.run_series ~duration ~label (fun env ->
                Model.Kernels.lazylist_bundle env ~mode ~mix:(mix "10-10-80")
                  ~size:1000))
          [ ("Bundle", Model.Kernels.Logical); ("Bundle-RDTSCP", Model.Kernels.Hardware) ]
      in
      emit series
    | _ -> ());
    0
  end

let structure_conv =
  let parse s =
    match List.assoc_opt s Workload.Targets.all with
    | Some make -> Ok (s, make)
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown structure %S (one of: %s)" s
             (String.concat ", " (List.map fst Workload.Targets.all))))
  in
  Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

let provider_conv : Workload.Targets.ts Arg.conv =
  let parse s =
    match Workload.Targets.ts_of_name s with
    | Some ts -> Ok ts
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown provider %S; known providers:\n%s" s
             (Workload.Targets.provider_help ())))
  in
  Arg.conv
    ( parse,
      fun ppf ts -> Format.pp_print_string ppf (Workload.Targets.ts_name ts) )

let reclaim_conv : Workload.Targets.reclaim Arg.conv =
  let parse s =
    match Workload.Targets.reclaim_of_name s with
    | Some r -> Ok r
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown reclamation backend %S; known backends:\n%s"
             s
             (Workload.Targets.reclaim_help ())))
  in
  Arg.conv
    ( parse,
      fun ppf r ->
        Format.pp_print_string ppf (Workload.Targets.reclaim_name r) )

(* [--provider] is the one uniform spelling; the older [--rdtscp] and
   [--strict] flags stay accepted so existing scripts keep working, but
   [--strict] warns (it now maps to the sharded strict scheme, which is
   what every bench has used since the multi-domain PR). *)
let ts_of_flags ~provider ~hardware ~strict : Workload.Targets.ts =
  match provider with
  | Some ts ->
    if hardware || strict then
      Printf.eprintf "hwts-cli: --provider overrides --rdtscp/--strict\n%!";
    ts
  | None ->
    if strict then begin
      Printf.eprintf
        "hwts-cli: warning: --strict is deprecated, use --provider sharded \
         (or --provider strict for the shared-word CAS scheme)\n%!";
      `Hardware_strict
    end
    else if hardware then `Hardware
    else `Logical

let check_supported name ts =
  if Workload.Targets.supports name ts then true
  else begin
    Printf.eprintf "%s cannot run over %s: the DCSS labeling needs the \
                    timestamp's address (use a logical clock)\n"
      name
      (Workload.Targets.ts_name ts);
    false
  end

let run_real (name, _) provider reclaim hardware strict threads seconds
    mix_label key_range zipf ops seed multiget multirange metrics_out
    trace_out =
  let ts = ts_of_flags ~provider ~hardware ~strict in
  if not (check_supported name ts) then 1
  else begin
  let config =
    {
      Workload.Harness.default with
      threads;
      seconds;
      key_range;
      mix = Workload.Mix.of_label mix_label;
      zipf_theta = zipf;
      fixed_ops = ops;
      seed;
      multiget;
      multirange;
    }
  in
  (* Asking for a trace capture implies turning tracing on, whatever the
     environment said. *)
  if trace_out <> None then Hwts_trace.Config.set_enabled true;
  let inst = Workload.Targets.instance ~reclaim name ts in
  let result = Workload.Harness.run inst.Workload.Targets.structure config in
  Printf.printf
    "%s(%s) threads=%d mix=%s range=%d: %.3f Mops/s (%d ops in %.2fs)\n" name
    (Workload.Targets.ts_name ts) threads mix_label key_range
    result.Workload.Harness.mops result.total_ops result.elapsed;
    (match metrics_out with
    | None -> ()
    | Some path ->
      Workload.Harness.write_metrics ~label:name
        ~provider:(Workload.Targets.ts_name ts)
        ~reclaim:(Workload.Targets.reclaim_name reclaim) result path;
      Printf.printf "(metrics -> %s)\n" path);
    (match trace_out with
    | None -> ()
    | Some path ->
      Hwts_trace.write_chrome path;
      Printf.printf "(chrome trace -> %s; load in chrome://tracing or \
                     ui.perfetto.dev)\n"
        path);
    0
  end

let stats (name, _) provider reclaim hardware strict threads seconds
    mix_label key_range format out =
  let ts = ts_of_flags ~provider ~hardware ~strict in
  if not (check_supported name ts) then 1
  else begin
  let config =
    {
      Workload.Harness.default with
      threads;
      seconds;
      key_range;
      mix = Workload.Mix.of_label mix_label;
    }
  in
  Hwts_obs.Registry.reset_all ();
  let inst = Workload.Targets.instance ~reclaim name ts in
  let result = Workload.Harness.run inst.Workload.Targets.structure config in
  Workload.Harness.ensure_canonical_metrics ();
  Printf.printf "%s(%s) threads=%d mix=%s: %.3f Mops/s (%d ops in %.2fs)\n\n"
    name
    (Workload.Targets.ts_name ts)
    threads mix_label result.Workload.Harness.mops result.total_ops
    result.elapsed;
  let body =
    match format with
    | `Table -> Hwts_obs.Registry.to_table ()
    | `Csv -> Hwts_obs.Registry.to_csv ()
    | `Json -> Hwts_obs.Registry.to_json_lines ()
  in
    (match out with
    | None -> print_string body
    | Some path ->
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Printf.printf "(wrote %s)\n" path);
    0
  end

let stress provider reclaim seed metrics_out =
  (* Backoff jitter draws from the seeded stream, so the whole smoke run
     is a function of --seed. *)
  Sync.Rand.set_seed seed;
  let wanted : Workload.Targets.ts list =
    match provider with Some ts -> [ ts ] | None -> Workload.Targets.all_ts
  in
  let ok = ref 0 in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun ts ->
          let inst = make reclaim ts in
          let (module S : Dstruct.Ordered_set.RQ) =
            inst.Workload.Targets.structure
          in
          let t = S.create () in
          for k = 1 to 1_000 do
            ignore (S.insert t (k * 2))
          done;
          (* the spawning domain is done mutating; under QSBR its slot
             must leave the grace protocol or nothing ever frees *)
          S.offline t;
          let domains =
            List.init 3 (fun i ->
                Domain.spawn (fun () ->
                    Sync.Slot.with_slot (fun _ ->
                        let rng = Dstruct.Prng.make ~seed:(seed + i + 1) in
                        for n = 1 to 5_000 do
                          let k = 1 + Dstruct.Prng.below rng 2_000 in
                          (match Dstruct.Prng.below rng 4 with
                          | 0 -> ignore (S.insert t k)
                          | 1 -> ignore (S.delete t k)
                          | 2 -> ignore (S.contains t k)
                          | _ -> ignore (S.range_query t ~lo:k ~hi:(k + 50)));
                          if n mod 64 = 0 then S.quiesce t
                        done;
                        S.offline t)))
          in
          List.iter Domain.join domains;
          incr ok;
          Printf.printf "  %-18s %-13s %-8s ok (size now %d)\n%!" name
            (Workload.Targets.ts_name ts)
            inst.Workload.Targets.reclaim (S.size t))
        (List.filter (Workload.Targets.supports name) wanted))
    Workload.Targets.all_instances;
  Printf.printf "stress: %d combinations passed\n" !ok;
  (match metrics_out with
  | None -> ()
  | Some path ->
    Workload.Harness.ensure_canonical_metrics ();
    Hwts_obs.Registry.write_json_lines path;
    Printf.printf "(metrics -> %s)\n" path);
  0

(* Torture driver: seeded randomized multi-domain rounds under fault
   injection, every recorded history checked by the snapshot oracle.  With
   no --structure/--provider it sweeps every structure under the logical,
   zoo (delayed/multislot/tl2), rdtscp-strict and adaptive providers; the
   first violation stops the sweep, prints the minimized counterexample,
   and leaves a replayable trace artifact. *)
let check structure provider reclaim seed rounds no_faults multi fixture_out =
  let structures =
    match structure with
    | Some (name, _) -> [ name ]
    | None -> List.map fst Workload.Targets.all
  in
  let providers : Workload.Targets.ts list =
    match provider with
    | Some p -> [ p ]
    | None ->
      [ `Logical; `Delayed; `Multislot; `Tl2; `Hardware_strict; `Adaptive ]
  in
  match (fixture_out, structures, providers) with
  | Some path, [ name ], [ ts ] -> (
    (* record one seeded round as a replayable fixture: the round must
       pass the oracle before it is worth checking in *)
    let cfg =
      {
        (Hwts_check.Torture.default_config ~reclaim ~multi ~structure:name
           ~provider:ts ~seed ())
        with
        rounds = 1;
        faults = not no_faults;
      }
    in
    let initial, events = Hwts_check.Torture.run_round cfg ~round_seed:seed in
    let order = Hwts_check.Torture.order_of cfg in
    match Hwts_check.Oracle.verify ~initial ~order events with
    | Hwts_check.Oracle.Violation _ ->
      Printf.eprintf
        "hwts-cli check: seed %#x fails the oracle on %s/%s; not writing a \
         fixture\n"
        seed name
        (Workload.Targets.ts_name ts);
      1
    | Hwts_check.Oracle.Pass ->
      Hwts_check.Torture.write_fixture ~path cfg ~round_seed:seed ~initial
        ~events;
      Printf.printf "%-20s %-13s fixture (%d events) -> %s\n" name
        (Workload.Targets.ts_name ts)
        (List.length events) path;
      0)
  | Some _, _, _ ->
    prerr_endline
      "hwts-cli check: --fixture-out needs exactly one structure and one \
       provider";
    2
  | None, _, _ ->
  let failed = ref false in
  List.iter
    (fun name ->
      List.iter
        (fun ts ->
          if (not !failed) && Workload.Targets.supports name ts then begin
            let cfg =
              {
                (Hwts_check.Torture.default_config ~reclaim ~multi
                   ~structure:name ~provider:ts ~seed ())
                with
                rounds;
                faults = not no_faults;
              }
            in
            let o = Hwts_check.Torture.run cfg in
            match o.Hwts_check.Torture.failure with
            | None ->
              Printf.printf "%-20s %-13s ok (%d rounds, %d events, %d faults)\n%!"
                name
                (Workload.Targets.ts_name ts)
                o.rounds_run o.events_total o.faults_injected
            | Some f ->
              failed := true;
              let path = Hwts_check.Torture.trace_path cfg in
              Hwts_check.Torture.write_trace ~path cfg f;
              Printf.printf
                "%-20s %-13s VIOLATION in round %d (round seed %#x, \
                 reproduced=%b)\nminimized counterexample:\n%s\
                 full history in %s\n%!"
                name
                (Workload.Targets.ts_name ts)
                f.round f.round_seed f.reproduced
                (Hwts_check.Oracle.explain ~initial:f.initial f.minimized)
                path
          end)
        providers)
    structures;
  if !failed then 1 else 0

(* Perf-trajectory gate: diff two bench artifacts, exit 1 on regression
   so CI can gate on it mechanically. *)
let trend base cur margin out =
  Benchkit.Trend.gate ~prog:"hwts-cli trend" ?out ~base ~cur ~margin ()

(* Tail-attribution sweep: run the traced harness for a small grid of
   structures x providers and collect which phase dominates each latency
   band into one JSON-lines artifact. *)
let trace_report structures providers threads ops key_range out =
  let parse_list ~what ~parse s =
    List.map
      (fun tok ->
        match parse (String.trim tok) with
        | Some v -> v
        | None -> failwith (Printf.sprintf "unknown %s %S" what tok))
      (String.split_on_char ',' s)
  in
  match
    ( parse_list ~what:"structure"
        ~parse:(fun s ->
          Option.map (fun m -> (s, m)) (List.assoc_opt s Workload.Targets.all))
        structures,
      parse_list ~what:"provider" ~parse:Workload.Targets.ts_of_name providers )
  with
  | exception Failure msg ->
    Printf.eprintf "hwts-cli trace-report: %s\n" msg;
    2
  | structures, providers ->
    Hwts_trace.Config.set_enabled true;
    let buf = Buffer.create 4096 in
    let emit j = Buffer.add_string buf (Hwts_obs.Json.to_string j ^ "\n") in
    emit
      (Hwts_obs.Json.Obj
         [
           ("name", Hwts_obs.Json.Str "trace.report");
           ("type", Hwts_obs.Json.Str "meta");
           ("threads", Hwts_obs.Json.Int threads);
           ("ops_per_thread", Hwts_obs.Json.Int ops);
           ("key_range", Hwts_obs.Json.Int key_range);
           ("sample_period", Hwts_obs.Json.Int (Hwts_trace.Config.sample_period ()));
           ("ring_capacity", Hwts_obs.Json.Int Hwts_trace.Config.capacity);
         ]);
    List.iter
      (fun (sname, make) ->
        List.iter
          (fun ts ->
            if Workload.Targets.supports sname ts then begin
              Hwts_trace.reset ();
              let config =
                {
                  Workload.Harness.default with
                  threads;
                  fixed_ops = Some ops;
                  key_range =
                    Workload.Targets.preferred_key_range sname
                      ~default:key_range;
                }
              in
              let result = Workload.Harness.run (make ts) config in
              let pname = Workload.Targets.ts_name ts in
              Printf.printf "%-16s %-14s %8.3f Mops/s" sname pname
                result.Workload.Harness.mops;
              List.iter
                (fun a ->
                  List.iter
                    (fun b ->
                      if b.Hwts_trace.band_label = "p99" then
                        Printf.printf "  p99(%s)=%s %.0f%%"
                          a.Hwts_trace.attr_class b.Hwts_trace.band_dominant
                          (100. *. b.Hwts_trace.band_dominant_share))
                    a.Hwts_trace.attr_bands)
                (Hwts_trace.tail_attribution ());
              print_newline ();
              Buffer.add_string buf
                (Hwts_trace.to_json_lines ~structure:sname ~provider:pname ())
            end)
          providers)
      structures;
    let oc = open_out out in
    Buffer.output_buffer oc buf;
    close_out oc;
    Printf.printf "(tail attribution -> %s)\n" out;
    0

(* command wiring *)

let tsc_info_cmd =
  Cmd.v (Cmd.info "tsc-info" ~doc:"Probe hardware timestamp capabilities")
    Term.(const tsc_info $ const ())

let calibrate_cmd =
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Measure primitive costs on this machine")
    Term.(const calibrate $ const ())

let figure_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE") in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Longer simulations") in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the series as CSV")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one paper figure on the timing model")
    Term.(const figure $ id $ full $ csv)

let structure_pos ?(default = false) () =
  if default then
    Arg.(
      value
      & pos 0 structure_conv (List.hd Workload.Targets.all)
      & info [] ~docv:"STRUCTURE" ~doc:"bst-vcas, citrus-vcas, ...")
  else
    Arg.(
      required
      & pos 0 (some structure_conv) None
      & info [] ~docv:"STRUCTURE" ~doc:"bst-vcas, citrus-vcas, ...")

let provider_opt =
  (* doc derives from the one registry in Workload.Targets, so help text
     can never drift from what ts_of_name accepts *)
  let doc =
    "Timestamp provider.  Known providers (aliases in parentheses):\n"
    ^ Workload.Targets.provider_help ()
    ^ "\nOverrides the legacy $(b,--rdtscp)/$(b,--strict) flags."
  in
  Arg.(
    value
    & opt (some provider_conv) None
    & info [ "provider" ] ~docv:"PROVIDER" ~doc)

let reclaim_opt =
  let doc =
    "Safe-memory-reclamation backend for the EBR-RQ/Citrus structures \
     (the others ignore it).  Known backends (aliases in parentheses):\n"
    ^ Workload.Targets.reclaim_help ()
  in
  Arg.(
    value
    & opt reclaim_conv `Ebr
    & info [ "reclaim" ] ~docv:"BACKEND" ~doc)

let hardware_flag =
  Arg.(value & flag & info [ "rdtscp"; "hardware" ] ~doc:"Use the TSC provider")

let strict_flag =
  Arg.(
    value
    & flag
    & info [ "strict" ]
        ~doc:
          "Deprecated alias for $(b,--provider sharded); prints a warning \
           and will be removed")

let threads_opt = Arg.(value & opt int 2 & info [ "t"; "threads" ])
let seconds_opt = Arg.(value & opt float 1.0 & info [ "d"; "duration"; "seconds" ])
let mix_opt = Arg.(value & opt string "10-10-80" & info [ "m"; "mix" ])
let range_opt = Arg.(value & opt int 16_384 & info [ "k"; "key-range" ])

let seed_opt =
  Arg.(
    value
    & opt int 0xC0FFEE
    & info [ "seed" ] ~docv:"N"
        ~doc:"PRNG seed for key streams (a fixed seed reproduces the run)")

let metrics_out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry as JSON lines to $(docv)")

let run_cmd =
  let zipf =
    Arg.(value & opt (some float) None & info [ "zipf" ] ~docv:"THETA"
           ~doc:"Zipfian key skew instead of uniform")
  in
  let ops =
    Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N"
           ~doc:"Run exactly $(docv) ops per thread (deterministic) instead \
                 of a fixed duration")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable phase tracing for the run and write a Chrome \
             trace_event JSON capture to $(docv) (load in \
             chrome://tracing or Perfetto)")
  in
  let multiget =
    Arg.(value & opt int 0 & info [ "multiget" ] ~docv:"K"
           ~doc:"When > 1, each contains draw becomes $(docv) membership \
                 probes against ONE snapshot handle (the multiget op \
                 class); keys come from the same (optionally Zipfian) \
                 sampler")
  in
  let multirange =
    Arg.(value & opt int 0 & info [ "multirange" ] ~docv:"K"
           ~doc:"When > 1, each range draw becomes $(docv) range scans \
                 against ONE snapshot handle (the multirange op class)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a real workload on this machine")
    Term.(
      const run_real $ structure_pos () $ provider_opt $ reclaim_opt
      $ hardware_flag $ strict_flag $ threads_opt $ seconds_opt $ mix_opt
      $ range_opt $ zipf $ ops $ seed_opt $ multiget $ multirange
      $ metrics_out_opt $ trace_out)

let stats_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FORMAT" ~doc:"table, csv or json")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write to $(docv) instead of stdout")
  in
  let seconds = Arg.(value & opt float 0.25 & info [ "d"; "duration"; "seconds" ]) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a short workload and print every registered metric")
    Term.(
      const stats $ structure_pos ~default:true () $ provider_opt
      $ reclaim_opt $ hardware_flag $ strict_flag $ threads_opt $ seconds
      $ mix_opt $ range_opt $ format $ out)

let stress_cmd =
  Cmd.v
    (Cmd.info "stress" ~doc:"Concurrency smoke test of every port")
    Term.(const stress $ provider_opt $ reclaim_opt $ seed_opt
          $ metrics_out_opt)

let check_cmd =
  let structure =
    Arg.(
      value
      & opt (some structure_conv) None
      & info [ "structure" ] ~docv:"STRUCTURE"
          ~doc:"Torture only $(docv) (default: every structure)")
  in
  let provider =
    Arg.(
      value
      & opt (some provider_conv) None
      & info [ "provider" ] ~docv:"PROVIDER"
          ~doc:
            "Torture only $(docv) (any registry provider; default: the \
             zoo — logical, delayed, multislot, tl2, sharded and adaptive)")
  in
  let rounds =
    Arg.(
      value & opt int 12
      & info [ "rounds" ] ~docv:"N" ~doc:"Seeded rounds per combination")
  in
  let no_faults =
    Arg.(
      value & flag
      & info [ "no-faults" ] ~doc:"Disable fault injection (schedule torture only)")
  in
  let multi =
    Arg.(
      value & flag
      & info [ "multi" ]
          ~doc:
            "Also draw multi-point snapshot ops (multi_get/multi_range \
             through one Snapshot.t handle each); the oracle then verifies \
             every constituent read against the handle's single label")
  in
  let fixture_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixture-out" ] ~docv:"FILE"
          ~doc:
            "Record one passing seeded round (for a single \
             structure/provider pair) as a replayable fixture instead of \
             running the torture")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Seeded fault-injection torture of the range-query ports, every \
          recorded history verified by the snapshot oracle")
    Term.(
      const check $ structure $ provider $ reclaim_opt $ seed_opt $ rounds
      $ no_faults $ multi $ fixture_out)

(* Load generator for a running hwts-serve: pipelined connections over
   the binary wire protocol, seeded mixed traffic, optional Zipfian
   skew.  Client-observed latency lands in serve.client.latency.* and
   goes out via --metrics-out. *)
let serve_load host port connections pipeline ops key_space mix_label rq_len
    theta batch multiget seed metrics_out =
  let cfg =
    {
      Serve.Client.host;
      port;
      connections;
      pipeline;
      ops;
      key_space;
      mix = Workload.Mix.of_label mix_label;
      rq_len;
      theta;
      batch;
      multiget;
      seed;
    }
  in
  match Serve.Client.run cfg with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "serve-load: %s:%d: %s\n" host port (Unix.error_message e);
    1
  | r ->
    Printf.printf
      "serve-load %s:%d conns=%d depth=%d mix=%s theta=%.2f: %d ops in %.2fs \
       (%.3f Mops/s), %d responses, %d errors\n"
      host port connections pipeline mix_label theta r.Serve.Client.ops_sent
      r.elapsed
      (float_of_int r.ops_sent /. r.elapsed /. 1e6)
      r.responses r.errors;
    (match metrics_out with
    | None -> ()
    | Some path ->
      Hwts_obs.Registry.write_json_lines path;
      Printf.printf "(metrics -> %s)\n" path);
    if r.errors > 0 then 1 else 0

let serve_load_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR")
  in
  let port =
    Arg.(
      value & opt int 7621
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"hwts-serve port")
  in
  let connections =
    Arg.(
      value & opt int 4
      & info [ "c"; "connections" ] ~docv:"N" ~doc:"Concurrent connections")
  in
  let pipeline =
    Arg.(
      value & opt int 8
      & info [ "pipeline" ] ~docv:"DEPTH"
          ~doc:
            "Outstanding requests per connection; depth >= 4 is where \
             snapshot coalescing starts to bite")
  in
  let ops =
    Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per connection")
  in
  let key_space =
    Arg.(
      value & opt int 16_384
      & info [ "k"; "key-space" ] ~docv:"N"
          ~doc:"Must match the server's --key-space")
  in
  let rq_len =
    Arg.(
      value & opt int 64
      & info [ "rq-len" ] ~docv:"N" ~doc:"Span of each range query")
  in
  let theta =
    Arg.(
      value & opt float 0.
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipfian key skew (scrambled across shards); 0 = uniform")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:"Group $(docv) ops into one wire Batch frame")
  in
  let multiget =
    Arg.(
      value & opt int 1
      & info [ "multiget" ] ~docv:"N"
          ~doc:
            "Ship membership probes as MultiGet frames of $(docv) keys \
             each, answered under one snapshot label; 1 = plain Get")
  in
  Cmd.v
    (Cmd.info "serve-load"
       ~doc:"Drive a running hwts-serve with pipelined mixed traffic")
    Term.(
      const serve_load $ host $ port $ connections $ pipeline $ ops
      $ key_space $ mix_opt $ rq_len $ theta $ batch $ multiget $ seed_opt
      $ metrics_out_opt)

let trend_cmd =
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE")
  in
  let cur =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT")
  in
  let margin =
    Arg.(
      value & opt float 0.25
      & info [ "margin" ] ~docv:"FRACTION"
          ~doc:
            "Noise margin: a series regresses when its median \
             current/baseline Mops/s ratio falls below 1 - $(docv)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the report as JSON lines")
  in
  Cmd.v
    (Cmd.info "trend"
       ~doc:
         "Diff two runs of one BENCH_*.json family (paired median Mops/s \
          ratios); exits 1 on a regression verdict, 2 when nothing is \
          comparable")
    Term.(const trend $ base $ cur $ margin $ out)

let trace_report_cmd =
  let structures =
    Arg.(
      value
      & opt string "bst-vcas,citrus-vcas,skiplist-bundle"
      & info [ "structures" ] ~docv:"LIST" ~doc:"Comma-separated structures")
  in
  let providers =
    (* the full zoo, so the tail-attribution artifact shows where every
       provider's acquire cost lands *)
    Arg.(
      value
      & opt string "logical,delayed,multislot,tl2,rdtscp-strict,adaptive"
      & info [ "providers" ] ~docv:"LIST" ~doc:"Comma-separated providers")
  in
  let threads = Arg.(value & opt int 2 & info [ "t"; "threads" ]) in
  let ops =
    Arg.(
      value & opt int 50_000
      & info [ "ops" ] ~docv:"N" ~doc:"Fixed ops per thread per combination")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_tailattr.json"
      & info [ "o"; "out" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Run the traced harness over a structure x provider grid and \
          write the per-class tail-latency attribution")
    Term.(
      const trace_report $ structures $ providers $ threads $ ops $ range_opt
      $ out)

let () =
  let doc = "hardware-timestamp range-query structures (IPPS'23 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "hwts-cli" ~doc)
          [
            tsc_info_cmd; calibrate_cmd; figure_cmd; run_cmd; stats_cmd;
            stress_cmd; check_cmd; serve_load_cmd; trend_cmd;
            trace_report_cmd;
          ]))
