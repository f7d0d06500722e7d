(* Figures 1-5 and the Section-IV ablations, regenerated on the timing
   model: one table per paper sub-figure (workload mix), columns = the
   technique under logical vs hardware timestamps.  [hwts-cli figure]
   prints these; [on_table] sees every table as it is printed. *)

let ids =
  [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "labeling"; "lazylist"; "ablate" ]
let mix = Workload.Mix.of_label

type ctx = { duration : float; on_table : string -> Sweep.series list -> unit }

let table ctx title series =
  Format.printf "%a@?" Sweep.pp_series_table series;
  ctx.on_table title series

let pair ctx ~label run =
  [
    Sweep.run_series ~duration:ctx.duration ~label (run Kernels.Logical);
    Sweep.run_series ~duration:ctx.duration ~label:(label ^ "-RDTSCP")
      (run Kernels.Hardware);
  ]

let workload_series ctx ~label builder m =
  pair ctx ~label (fun mode env -> builder env ~mode ~mix:m)

let speedup_line ~paper_hint = function
  | [ baseline; hw ] ->
    Printf.printf "  max RDTSCP/logical speedup: %.2fx%s\n"
      (Sweep.max_speedup hw ~baseline)
      (match paper_hint with "" -> "" | h -> "  (paper: " ^ h ^ ")")
  | _ -> ()

let report ctx ~title ~paper_hint series =
  table ctx title series;
  speedup_line ~paper_hint series;
  print_newline ()

let sub ctx ~name ~builder ~label ?(paper = "") m_label =
  let title = Printf.sprintf "%s, workload %s (U-RQ-C)" name m_label in
  Printf.printf "### %s\n" title;
  report ctx ~title ~paper_hint:paper
    (workload_series ctx ~label builder (mix m_label))

(* Figure 1: timestamp acquisition, logical fetch-and-add vs the TSC
   readers with and without their fences, on the model's 192-hyperthread
   machine. *)
let fig1_modes =
  [
    ("Logical TS", `Faa);
    ("RDTSC", `Tsc Costs.Rdtsc_cpuid);
    ("RDTSCP", `Tsc Costs.Rdtscp_lfence);
    ("RDTSC (no fence)", `Tsc Costs.Rdtsc);
    ("RDTSCP (no fence)", `Tsc Costs.Rdtscp);
  ]

let fig1_series ctx builder =
  List.map
    (fun (label, mode) ->
      Sweep.run_series ~duration:ctx.duration ~label (fun env ->
          builder env ~mode))
    fig1_modes

let fig1 ctx =
  let top_title = "fig1 (top): timestamp acquisition throughput" in
  Printf.printf "## %s [model, Mops/s]\n" top_title;
  let top = fig1_series ctx Kernels.ts_acquire in
  table ctx top_title top;
  print_newline ();
  (match top with
  | logical :: _ ->
    Printf.printf
      "  RDTSCP vs Logical TS: max speedup %.0fx (paper reports ~95x)\n\n"
      (Sweep.max_speedup (List.nth top 2) ~baseline:logical)
  | [] -> ());
  let bottom_title = "fig1 (bottom): acquisition mixed with private work" in
  Printf.printf "## %s [model, Mops/s]\n" bottom_title;
  let bottom = fig1_series ctx Kernels.ts_mixed_work in
  table ctx bottom_title bottom;
  print_newline ();
  match bottom with
  | logical :: _ ->
    let rdtscp = List.nth bottom 2 in
    Printf.printf
      "  RDTSCP vs Logical TS: max speedup %.1fx (paper reports ~2.6x)\n"
      (Sweep.max_speedup rdtscp ~baseline:logical);
    (* single-thread inversion: the logical counter wins in cache *)
    (match
       ( Sweep.speedup_at rdtscp ~baseline:logical 1,
         Sweep.speedup_at rdtscp ~baseline:logical 192 )
     with
    | Some s1, Some s192 ->
      Printf.printf
        "  single-thread RDTSCP/Logical = %.2f (expected < 1), at 192 = %.2f\n\n"
        s1 s192
    | _ -> print_newline ())
  | [] -> ()

let fig2 ctx =
  print_endline "## fig2: vCAS lock-free BST [model, Mops/s]";
  let s = sub ctx ~name:"fig2 vcas-bst" ~builder:Kernels.vcas_bst ~label:"vCAS" in
  s ~paper:"~3x" "0-10-90";
  s "2-10-88";
  s "10-10-80";
  s "20-10-70";
  s ~paper:"1.6-5x band" "50-10-40";
  s ~paper:">5.5x" "0-20-80";
  s "2-20-78";
  s "10-20-70";
  s "20-20-60";
  s ~paper:"no difference" "100-0-0"

let fig3 ctx =
  print_endline "## fig3: Citrus tree with vCAS and Bundling [model, Mops/s]";
  List.iter
    (fun (m_label, paper) ->
      let title = Printf.sprintf "fig3 citrus, workload %s (U-RQ-C)" m_label in
      Printf.printf "### %s\n" title;
      let m = mix m_label in
      let series =
        workload_series ctx ~label:"vCAS" Kernels.citrus_vcas m
        @ workload_series ctx ~label:"Bundle" Kernels.citrus_bundle m
      in
      table ctx title series;
      match series with
      | [ vb; vh; bb; bh ] ->
        Printf.printf
          "  vCAS max speedup %.2fx; Bundle max speedup %.2fx%s\n\n"
          (Sweep.max_speedup vh ~baseline:vb)
          (Sweep.max_speedup bh ~baseline:bb)
          (match paper with "" -> "" | h -> "  (paper: " ^ h ^ ")")
      | _ -> print_newline ())
    [
      ("0-10-90", "vCAS gains, Bundle none (updates advance its clock)");
      ("0-20-80", "");
      ("2-10-88", "");
      ("10-10-80", "");
      ("20-10-70", "");
      ("50-10-40", "both gain; vCAS catches Bundling");
    ]

let fig4 ctx =
  print_endline "## fig4: Citrus tree with EBR-RQ [model, Mops/s]";
  let s =
    sub ctx ~name:"fig4 ebr-rq" ~builder:Kernels.citrus_ebrrq ~label:"EBR-RQ"
  in
  s ~paper:"little speedup; drop past 24 threads" "2-10-88";
  s "10-10-80";
  s "20-10-70";
  s ~paper:"TSC occasionally slightly worse" "50-10-40"

let fig5 ctx =
  print_endline "## fig5: Skip list with Bundling [model, Mops/s]";
  let s =
    sub ctx ~name:"fig5 skiplist-bundle" ~builder:Kernels.skiplist_bundle
      ~label:"Bundle"
  in
  s ~paper:"no speedup (structure-bound)" "0-10-90";
  s ~paper:"speedup" "20-10-70";
  s ~paper:"speedup" "50-10-40";
  print_endline
    "### fig5 addendum: vCAS on the skip list (tested and omitted by the paper)";
  List.iter
    (fun m_label ->
      Printf.printf "workload %s:\n" m_label;
      report ctx
        ~title:(Printf.sprintf "fig5 addendum vcas-skiplist, workload %s" m_label)
        ~paper_hint:"no gain observed (omitted from the paper)"
        (workload_series ctx ~label:"vCAS-SL" Kernels.skiplist_vcas
           (mix m_label)))
    [ "0-10-90"; "10-10-80" ]

let lazylist ctx =
  print_endline
    "## lazylist (negative result the paper omitted): traversal-bound";
  let title = "lazy list, workload 10-10-80, 1000 elements" in
  Printf.printf "### %s\n" title;
  let m = mix "10-10-80" in
  report ctx ~title ~paper_hint:"no improvement"
    (pair ctx ~label:"Bundle" (fun mode env ->
         Kernels.lazylist_bundle env ~mode ~mix:m ~size:1000))

let labeling ctx =
  print_endline "## labeling ablation (Section IV): one workload, three disciplines";
  print_endline
    "   (speedup of RDTSCP over logical per labeling granularity, mix 50-10-40)";
  let m = mix "50-10-40" in
  List.iter
    (fun (name, g) ->
      match
        pair ctx ~label:name (fun mode env ->
            Kernels.labeling_sweep env ~mode ~granularity:g ~mix:m)
      with
      | [ baseline; hw ] ->
        Printf.printf "  %-18s max RDTSCP speedup %.2fx\n%!" name
          (Sweep.max_speedup hw ~baseline)
      | _ -> ())
    [
      ("global-lock", `Global_lock);
      ("structural-lock", `Structural_lock);
      ("helped", `Helped);
    ];
  print_endline
    "   expected ordering: helped >= structural-lock >> global-lock";
  print_newline ()

(* Cost-model sensitivity: how the headline ratios move as the coherence
   parameters vary.  Backs EXPERIMENTS.md's claim that the residual
   deviations from the paper's absolute numbers are calibration, not
   mechanism: the orderings never flip across a 4x parameter range. *)
type ablation_row = { params : string; fig1 : float; fig2 : float; fig4 : float }

let ablation_params =
  let base = Costs.default in
  let cross c =
    (Printf.sprintf "cross_socket=%.0f" c, { base with Costs.cross_socket = c })
  in
  [
    ("default (cross=260)", base);
    cross 100.;
    cross 180.;
    cross 400.;
    ("rmw_extra=40", { base with Costs.rmw_extra = 40. });
    ( "no hyperthread penalty",
      { base with Costs.ht_compute_factor = 1.; ht_memory_factor = 1. } );
    ("slow fenced rdtscp (100cy)", { base with Costs.tsc_rdtscp_lfence = 100. });
  ]

let ablation_row ~duration (params, costs) =
  let speedup run ~hw ~baseline =
    let series mode =
      Sweep.run_series ~duration ~costs ~threads:[ 1; 24; 96; 192 ] ~label:"x"
        (run mode)
    in
    Sweep.max_speedup (series hw) ~baseline:(series baseline)
  in
  let workload builder m_label mode env = builder env ~mode ~mix:(mix m_label) in
  {
    params;
    fig1 =
      speedup
        (fun mode env -> Kernels.ts_acquire env ~mode)
        ~hw:(`Tsc Costs.Rdtscp_lfence) ~baseline:`Faa;
    fig2 =
      speedup
        (workload Kernels.vcas_bst "0-10-90")
        ~hw:Kernels.Hardware ~baseline:Kernels.Logical;
    fig4 =
      speedup
        (workload Kernels.citrus_ebrrq "10-10-80")
        ~hw:Kernels.Hardware ~baseline:Kernels.Logical;
  }

let ablation ~duration = List.map (ablation_row ~duration) ablation_params

let ablate ctx =
  print_endline "## ablate: cost-model sensitivity";
  print_endline
    "   (fig1 = raw acquisition ratio; fig2 = vCAS BST 0-10-90 speedup; fig4 = EBR-RQ 10-10-80 speedup)";
  Printf.printf "  %-34s %10s %10s %10s\n" "parameters" "fig1" "fig2" "fig4";
  List.iter
    (fun p ->
      let r = ablation_row ~duration:ctx.duration p in
      Printf.printf "  %-34s %9.0fx %9.2fx %9.2fx\n%!" r.params r.fig1 r.fig2
        r.fig4)
    ablation_params;
  print_endline
    "   invariants: fig1 >> 1 and fig2 > 1 in every row; fig4 stays near 1";
  print_newline ()

let run ?(on_table = fun _ _ -> ()) ~duration id =
  let ctx = { duration; on_table } in
  (match id with
  | "fig1" -> fig1 ctx
  | "fig2" -> fig2 ctx
  | "fig3" -> fig3 ctx
  | "fig4" -> fig4 ctx
  | "fig5" -> fig5 ctx
  | "labeling" -> labeling ctx
  | "lazylist" -> lazylist ctx
  | "ablate" -> ablate ctx
  | _ -> invalid_arg ("Figures.run: unknown figure " ^ id));
  flush stdout
