(* Standalone perf-trajectory gate (the bench-side twin of `hwts-cli
   trend`): diff two runs of one BENCH_*.json family by paired median
   Mops/s ratios, exit 1 on a regression verdict.  Also provides
   -perturb, the self-test fixture `make trend-guard` uses: a copy of an
   artifact with every throughput figure scaled must trip the gate, the
   unscaled one must not. *)

let () =
  let margin = ref 0.25 in
  let out = ref "" in
  let perturb = ref nan in
  let perturb_series = ref "" in
  let spec =
    [
      ( "-margin",
        Arg.Set_float margin,
        " noise margin on median ratios (default 0.25)" );
      ("-out", Arg.Set_string out, " write the JSON-lines report (or the perturbed copy) here");
      ( "-perturb",
        Arg.Set_float perturb,
        " FACTOR  write a copy of the (single) input with Mops/s scaled by \
         FACTOR to -out, instead of diffing" );
      ( "-perturb-series",
        Arg.Set_string perturb_series,
        " SERIES  with -perturb: scale only the named series (e.g. \
         bst-vcas/tl2); errors if the series has no points" );
    ]
  in
  let positional = ref [] in
  Arg.parse spec
    (fun a -> positional := a :: !positional)
    "trendcheck [-margin M] BASELINE CURRENT\n\
     trendcheck -perturb FACTOR -out FILE BASELINE";
  let out_opt = if !out = "" then None else Some !out in
  match (List.rev !positional, Float.is_nan !perturb) with
  | [ src ], false -> (
    let dst =
      match out_opt with
      | Some dst -> dst
      | None ->
        prerr_endline "trendcheck: -perturb requires -out";
        exit 2
    in
    let only = if !perturb_series = "" then None else Some !perturb_series in
    match
      Benchkit.Trend.write_perturbed ?only ~src ~dst ~factor:!perturb ()
    with
    | Ok () ->
      Printf.printf "wrote %s (mops x %g%s)\n" dst !perturb
        (if !perturb_series = "" then "" else ", series " ^ !perturb_series)
    | Error e ->
      Printf.eprintf "trendcheck: %s\n" e;
      exit 2)
  | [ base; cur ], true ->
    exit
      (Benchkit.Trend.gate ~prog:"trendcheck" ?out:out_opt ~base ~cur
         ~margin:!margin ())
  | _ ->
    prerr_endline
      "trendcheck: expected BASELINE CURRENT (or -perturb FACTOR -out FILE \
       BASELINE)";
    exit 2
