(* Tests for the multicore timing model: topology, engine mechanics, and
   the qualitative properties every figure depends on. *)

let topo = Model.Topology.xeon_8160_quad

let topology_placement () =
  Alcotest.(check int) "192 hw threads" 192 (Model.Topology.total_threads topo);
  (* first 24 threads on distinct physical cores of socket 0 *)
  for i = 0 to 23 do
    let p = Model.Topology.place topo i in
    Alcotest.(check int) "socket 0" 0 p.Model.Topology.socket;
    Alcotest.(check int) "core i" i p.core;
    Alcotest.(check int) "smt 0" 0 p.smt
  done;
  (* next 24 are their hyperthread siblings *)
  let p24 = Model.Topology.place topo 24 in
  Alcotest.(check int) "sibling core" 0 p24.core;
  Alcotest.(check int) "sibling smt" 1 p24.Model.Topology.smt;
  (* thread 48 opens socket 1 *)
  let p48 = Model.Topology.place topo 48 in
  Alcotest.(check int) "socket 1" 1 p48.Model.Topology.socket

let topology_siblings () =
  (* with 24 threads nobody shares a core; with 25, thread 0 and 24 do *)
  Alcotest.(check bool) "24: no sibling" false
    (Model.Topology.sibling_active topo ~nthreads:24 0);
  Alcotest.(check bool) "25: t0 has sibling" true
    (Model.Topology.sibling_active topo ~nthreads:25 0);
  Alcotest.(check bool) "25: t24 has sibling" true
    (Model.Topology.sibling_active topo ~nthreads:25 24);
  Alcotest.(check bool) "25: t1 alone" false
    (Model.Topology.sibling_active topo ~nthreads:25 1)

let topology_axis () =
  let axis = Model.Topology.threads_axis topo in
  List.iter
    (fun landmark ->
      Alcotest.(check bool)
        (Printf.sprintf "axis has %d" landmark)
        true (List.mem landmark axis))
    [ 1; 24; 48; 96; 144; 192 ];
  Alcotest.(check bool) "sorted" true (List.sort compare axis = axis)

let costs_transfer_ordering () =
  let c = Model.Costs.default in
  let t ~same_core ~same_socket = Model.Costs.transfer c ~same_core ~same_socket in
  Alcotest.(check bool) "core < socket < cross" true
    (t ~same_core:true ~same_socket:true < t ~same_core:false ~same_socket:true
    && t ~same_core:false ~same_socket:true
       < t ~same_core:false ~same_socket:false)

let run_kernel ~nthreads kernel =
  let env = Model.Engine.make_env ~topology:topo ~nthreads () in
  let k = kernel env in
  Model.Engine.run env ~duration_cycles:200_000. k

let faa_does_not_scale () =
  let kernel env =
    let line = Model.Engine.new_line env in
    fun _ _ -> [ Model.Engine.Rmw line ]
  in
  let one = run_kernel ~nthreads:1 kernel in
  let many = run_kernel ~nthreads:48 kernel in
  Alcotest.(check bool) "serialized RMW caps throughput" true
    (many.Model.Engine.mops < one.Model.Engine.mops *. 1.5)

let tsc_scales_linearly () =
  let kernel _env _ = fun _ _ -> [ Model.Engine.Tsc Model.Costs.Rdtscp_lfence ] in
  let kernel env = kernel env () in
  let one = run_kernel ~nthreads:1 kernel in
  let many = run_kernel ~nthreads:24 kernel in
  let ratio = many.Model.Engine.mops /. one.Model.Engine.mops in
  Alcotest.(check bool)
    (Printf.sprintf "near-linear scaling (got %.1fx)" ratio)
    true
    (ratio > 20. && ratio <= 24.5)

let work_throughput_accurate () =
  (* one thread executing 1000-cycle ops at 2.1 GHz = 2.1 Mops/s *)
  let kernel _env = fun _ _ -> [ Model.Engine.Work 1000. ] in
  let r = run_kernel ~nthreads:1 kernel in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f Mops" r.Model.Engine.mops)
    true
    (abs_float (r.Model.Engine.mops -. 2.1) < 0.05)

let hyperthreads_slow_compute () =
  let kernel _env = fun _ _ -> [ Model.Engine.Work 1000. ] in
  let full_cores = run_kernel ~nthreads:24 kernel in
  let with_ht = run_kernel ~nthreads:48 kernel in
  let per_thread n (r : Model.Engine.result) = r.mops /. float_of_int n in
  Alcotest.(check bool) "per-thread slower with sibling" true
    (per_thread 48 with_ht < per_thread 24 full_cores);
  Alcotest.(check bool) "but total still higher" true
    (with_ht.Model.Engine.mops > full_cores.Model.Engine.mops)

let locks_serialize () =
  let kernel env =
    let line = Model.Engine.new_line env in
    fun _ _ -> [ Model.Engine.Locked (line, [ Model.Engine.Work 500. ]) ]
  in
  let many = run_kernel ~nthreads:48 kernel in
  (* at most one body at a time: <= 2.1e9/500 ops/s = 4.2 Mops/s *)
  Alcotest.(check bool) "critical sections serialized" true
    (many.Model.Engine.mops < 4.4)

let rwlock_readers_overlap () =
  (* bodies large enough that acquisition traffic is not the bottleneck *)
  let shared_kernel env =
    let rw = Model.Engine.new_rwlock env in
    fun _ _ -> [ Model.Engine.RwShared (rw, [ Model.Engine.Work 2000. ]) ]
  in
  let excl_kernel env =
    let rw = Model.Engine.new_rwlock env in
    fun _ _ -> [ Model.Engine.RwExcl (rw, [ Model.Engine.Work 2000. ]) ]
  in
  let shared = run_kernel ~nthreads:16 shared_kernel in
  let excl = run_kernel ~nthreads:16 excl_kernel in
  Alcotest.(check bool) "shared mode overlaps bodies" true
    (shared.Model.Engine.mops > excl.Model.Engine.mops *. 2.)

let deterministic () =
  let build env =
    let line = Model.Engine.new_line env in
    fun _ rng ->
      if Dstruct.Prng.below rng 2 = 0 then [ Model.Engine.Rmw line ]
      else [ Model.Engine.Work 100. ]
  in
  let a = run_kernel ~nthreads:8 build in
  let b = run_kernel ~nthreads:8 build in
  Alcotest.(check int) "same total ops" a.Model.Engine.total_ops
    b.Model.Engine.total_ops

(* qualitative figure properties, small axes for speed *)

let small_axis = [ 1; 24; 96; 192 ]

let figure_speedup builder ~mix_label =
  let mix = Workload.Mix.of_label mix_label in
  let run mode label =
    Model.Sweep.run_series ~duration:200_000. ~threads:small_axis ~label
      (fun env -> builder env ~mode ~mix)
  in
  let baseline = run Model.Kernels.Logical "l" in
  let hw = run Model.Kernels.Hardware "h" in
  Model.Sweep.max_speedup hw ~baseline

(* One module prints every figure for both the bench and the CLI: each
   sweeps all of its paper mixes, one table per sub-figure. *)
let figure_tables () =
  List.iter
    (fun (id, tables) ->
      let n = ref 0 in
      Model.Figures.run ~duration:20_000. id ~on_table:(fun _ series ->
          if series = [] then Alcotest.failf "%s: an empty table" id;
          incr n);
      Alcotest.(check int) (id ^ " tables") tables !n)
    [
      ("fig1", 2); ("fig2", 10); ("fig3", 6); ("fig4", 4); ("fig5", 5);
      ("labeling", 0); ("lazylist", 1); ("ablate", 0);
    ];
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Figures.run: unknown figure fig9") (fun () ->
      Model.Figures.run ~duration:20_000. "fig9")

let fig2_properties () =
  let rq10 = figure_speedup Model.Kernels.vcas_bst ~mix_label:"0-10-90" in
  let rq20 = figure_speedup Model.Kernels.vcas_bst ~mix_label:"0-20-80" in
  let upd = figure_speedup Model.Kernels.vcas_bst ~mix_label:"100-0-0" in
  Alcotest.(check bool) "rq10 gains" true (rq10 > 1.5);
  Alcotest.(check bool) "more RQs, more gain" true (rq20 > rq10);
  Alcotest.(check bool) "update-only indifferent" true
    (upd > 0.85 && upd < 1.15)

let fig3_properties () =
  let bundle_ro = figure_speedup Model.Kernels.citrus_bundle ~mix_label:"0-10-90" in
  let vcas_ro = figure_speedup Model.Kernels.citrus_vcas ~mix_label:"0-10-90" in
  let bundle_upd = figure_speedup Model.Kernels.citrus_bundle ~mix_label:"50-10-40" in
  Alcotest.(check bool) "bundle indifferent on read-only" true
    (bundle_ro > 0.9 && bundle_ro < 1.1);
  Alcotest.(check bool) "vcas gains on read-only" true (vcas_ro > 1.15);
  Alcotest.(check bool) "bundle gains on update-heavy" true (bundle_upd > 1.5)

let fig4_properties () =
  let s = figure_speedup Model.Kernels.citrus_ebrrq ~mix_label:"10-10-80" in
  Alcotest.(check bool)
    (Printf.sprintf "ebr-rq gains little (%.2fx)" s)
    true (s < 1.8);
  (* the NUMA/HT drop: throughput at 192 threads below the 24-thread peak *)
  let series =
    Model.Sweep.run_series ~duration:200_000. ~threads:[ 24; 192 ] ~label:"e"
      (fun env ->
        Model.Kernels.citrus_ebrrq env ~mode:Model.Kernels.Logical
          ~mix:(Workload.Mix.of_label "10-10-80"))
  in
  match series.Model.Sweep.points with
  | [ p24; p192 ] ->
    Alcotest.(check bool) "drop past one zone's cores" true
      (p192.Model.Sweep.mops < p24.Model.Sweep.mops *. 1.6)
  | _ -> Alcotest.fail "expected two points"

let fig5_properties () =
  let ro = figure_speedup Model.Kernels.skiplist_bundle ~mix_label:"0-10-90" in
  let upd = figure_speedup Model.Kernels.skiplist_bundle ~mix_label:"50-10-40" in
  Alcotest.(check bool) "read-heavy structure-bound" true (ro < 1.1);
  Alcotest.(check bool) "update-heavy gains" true (upd > 1.5)

let labeling_ordering () =
  let speedup g =
    let mix = Workload.Mix.of_label "50-10-40" in
    let run mode =
      Model.Sweep.run_series ~duration:200_000. ~threads:small_axis ~label:"x"
        (fun env -> Model.Kernels.labeling_sweep env ~mode ~granularity:g ~mix)
    in
    Model.Sweep.max_speedup (run Model.Kernels.Hardware)
      ~baseline:(run Model.Kernels.Logical)
  in
  let coarse = speedup `Global_lock in
  let fine = speedup `Structural_lock in
  let helped = speedup `Helped in
  Alcotest.(check bool)
    (Printf.sprintf "granularity ordering %.2f <= %.2f <= %.2f" coarse fine helped)
    true
    (coarse <= fine +. 0.2 && fine <= helped +. 0.3 && coarse < helped)

(* The orderings hold across every cost-model variation figure ablate
   prints, at its quick duration. *)
let ablation_orderings () =
  List.iter
    (fun r ->
      let open Model.Figures in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fig1 %.0fx > 100, fig2 %.2fx > 1, fig4 %.2fx < fig2"
           r.params r.fig1 r.fig2 r.fig4)
        true
        (r.fig1 > 100. && r.fig2 > 1. && r.fig4 < r.fig2))
    (Model.Figures.ablation ~duration:400_000.)

(* [hwts-cli figure labeling --csv F]: labeling prints no sweep table,
   so there is nothing to write: no file, exit 1.  (Under `dune runtest`
   the cwd is _build/default/test.) *)
let figure_csv_without_a_table () =
  match
    List.find_opt Sys.file_exists [ "../bin/hwts_cli.exe"; "_build/default/bin/hwts_cli.exe" ]
  with
  | None -> Alcotest.skip ()
  | Some exe ->
    let path = Filename.concat (Filename.get_temp_dir_name ()) "hwts_figure_labeling.csv" in
    if Sys.file_exists path then Sys.remove path;
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process exe [| exe; "figure"; "labeling"; "--csv"; path |] null null null
    in
    Unix.close null;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> Alcotest.(check int) "exit status" 1 c
    | _ -> Alcotest.fail "killed by a signal");
    Alcotest.(check bool) "no file written" false (Sys.file_exists path)

let () =
  Alcotest.run "model"
    [
      ( "topology",
        [
          Alcotest.test_case "placement" `Quick topology_placement;
          Alcotest.test_case "siblings" `Quick topology_siblings;
          Alcotest.test_case "axis" `Quick topology_axis;
          Alcotest.test_case "transfer ordering" `Quick costs_transfer_ordering;
        ] );
      ( "engine",
        [
          Alcotest.test_case "faa does not scale" `Quick faa_does_not_scale;
          Alcotest.test_case "tsc scales" `Quick tsc_scales_linearly;
          Alcotest.test_case "work throughput" `Quick work_throughput_accurate;
          Alcotest.test_case "hyperthreads" `Quick hyperthreads_slow_compute;
          Alcotest.test_case "locks serialize" `Quick locks_serialize;
          Alcotest.test_case "rwlock shared overlaps" `Quick
            rwlock_readers_overlap;
          Alcotest.test_case "deterministic" `Quick deterministic;
        ] );
      ( "figures",
        [
          Alcotest.test_case "shared sweeps, every mix" `Quick figure_tables;
          Alcotest.test_case "figure --csv with no sweep table" `Quick
            figure_csv_without_a_table;
          Alcotest.test_case "fig2 properties" `Slow fig2_properties;
          Alcotest.test_case "fig3 properties" `Slow fig3_properties;
          Alcotest.test_case "fig4 properties" `Slow fig4_properties;
          Alcotest.test_case "fig5 properties" `Slow fig5_properties;
          Alcotest.test_case "labeling ordering" `Slow labeling_ordering;
          Alcotest.test_case "ablation orderings" `Slow ablation_orderings;
        ] );
    ]
