(* Benchmark driver: regenerates every table and figure of the paper.

   Usage: dune exec bench/main.exe -- [SECTIONS] [--full]

   Sections: micro fig1 fig2 fig3 fig4 fig5 real ties labeling lazylist
   (default: all of them, quick durations). *)

let all_sections =
  [
    "micro"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "ties"; "labeling";
    "lazylist"; "ablate"; "real";
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let wanted = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let wanted = if wanted = [] then all_sections else wanted in
  let duration = if full then 2_000_000. else 400_000. in
  let seconds = if full then 3.0 else 0.5 in
  let trials = if full then 5 else 2 in
  Printf.printf
    "hwts bench — reproduction of 'Opportunities and Limitations of Hardware \
     Timestamps in Concurrent Data Structures' (IPPS'23)\n";
  Printf.printf
    "mode: %s | model: 4 sockets x 24 cores x 2 HT (paper's Xeon 8160 box) | \
     host: %d cpus, invariant TSC %b\n\n%!"
    (if full then "full" else "quick")
    (Tsc.num_cpus ()) (Tsc.has_invariant_tsc ());
  let run name f = if List.mem name wanted then f () in
  run "micro" (fun () -> Micro.run ());
  let figure id = run id (fun () -> Model.Figures.run ~duration id) in
  figure "fig1";
  run "fig1" Fig1.run_real;
  List.iter figure [ "fig2"; "fig3"; "fig4"; "fig5" ];
  run "ties" (fun () -> Ties_bench.run ());
  figure "labeling";
  figure "lazylist";
  run "ablate" (fun () -> Ablate.run ~duration ());
  run "real" (fun () -> Real_hw.run ~seconds ~trials ())
