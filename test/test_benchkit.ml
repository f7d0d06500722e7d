(* Unit tests for Benchkit: the shared runner's pairing and medians, the
   family specs against every checked-in artifact and against broken
   copies of them, and the trend gate that reads those specs. *)

module J = Hwts_obs.Json
module Kit = Benchkit.Kit
module Family = Benchkit.Family
module Trend = Benchkit.Trend

(* ---------- runner ---------- *)

let kit_paired_rotation () =
  let order = ref [] in
  let legs =
    Kit.paired ~arms:3 ~trials:3 (fun ~trial arm ->
        order := arm :: !order;
        (trial, arm))
  in
  Alcotest.(check (list int)) "each trial starts one arm later"
    [ 0; 1; 2; 1; 2; 0; 2; 0; 1 ] (List.rev !order);
  Array.iteri
    (fun arm l ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "arm %d legs, latest first" arm)
        [ (2, arm); (1, arm); (0, arm) ]
        l)
    legs

let kit_summarize () =
  let leg m n = [ ("mops", J.Float m); ("ops", J.Int n); ("tag", J.Str "x") ] in
  let p = Kit.summarize [ leg 3. 30; leg 1. 10; leg 2. 20; leg 4. 40 ] in
  Alcotest.(check (list string)) "first leg's field order" [ "mops"; "ops"; "tag" ]
    (List.map fst p);
  (* the upper median of an even count, as every sweep has reported it *)
  Alcotest.(check (float 0.)) "float median" 3. (Kit.num p "mops");
  Alcotest.(check bool) "ints stay ints" true (List.assoc "ops" p = J.Int 30);
  Alcotest.(check bool) "non-numbers kept" true (List.assoc "tag" p = J.Str "x");
  Alcotest.(check bool) "absent field is nan" true (Float.is_nan (Kit.num p "nope"));
  let legs = [ leg 3. 0; leg 5. 0 ] in
  Alcotest.(check (float 0.)) "best of trials" 5. (Kit.best legs "mops");
  Alcotest.(check (float 1e-9)) "best ratio" 0.5
    (Kit.best_ratio [ leg 1. 0; leg 2.5 0 ] legs "mops");
  Alcotest.(check (float 0.)) "empty denominator" 1.
    (Kit.best_ratio legs [ leg 0. 0 ] "mops");
  Alcotest.(check (list int)) "counts" [ 1; 4; 16 ] (Kit.counts ~what:"k" "16, 4,x,1,4,0")

(* ---------- family specs ---------- *)

let read path =
  match Family.read_lines path with
  | Ok lines -> lines
  | Error e -> Alcotest.failf "cannot read %s: %s" path e

let artifacts =
  [
    ("BENCH_scaling.json", "bench.scaling");
    ("BENCH_serve.json", "bench.serve");
    ("BENCH_reclaim.json", "bench.reclaim");
    ("BENCH_snapshot.json", "bench.snapshot");
    ("BENCH_hotpath.json", "bench.hotpath");
    ("BENCH_tailattr.json", "trace.report");
    ("BENCH_obs.json", "harness.run");
  ]

let checked_in_artifacts_validate () =
  List.iter
    (fun (file, family) ->
      let lines = read (Filename.concat ".." file) in
      let f = Family.detect lines in
      Alcotest.(check string) (file ^ " family") family f.Family.name;
      match Family.validate f lines with
      | Ok _ -> ()
      | Error es -> Alcotest.failf "%s: %s" file (String.concat "; " es))
    artifacts

(* Rewrite one field on the lines matching [sel]. *)
let set sel field v lines =
  List.map
    (fun l ->
      match l with
      | J.Obj fields when Family.matches sel l ->
        J.Obj (List.map (fun (k, x) -> if k = field then (k, v) else (k, x)) fields)
      | l -> l)
    lines

let drop sel lines = List.filter (fun l -> not (Family.matches sel l)) lines

let expect_error what substring family lines =
  match Family.validate family lines with
  | Ok _ -> Alcotest.failf "%s: broken artifact validated" what
  | Error es ->
    let contains s =
      let n = String.length substring in
      let rec at i = i + n <= String.length s && (String.sub s i n = substring || at (i + 1)) in
      at 0
    in
    if not (List.exists contains es) then
      Alcotest.failf "%s: no error mentions %S (got: %s)" what substring
        (String.concat "; " es)

let point = [ ("type", J.Str "point") ]

let broken_artifacts_rejected () =
  let scaling = read "../BENCH_scaling.json" in
  expect_error "zoo provider missing" "cover provider=tl2" Family.scaling
    (drop (point @ [ ("provider", J.Str "tl2") ]) scaling);
  expect_error "margin line missing" "has no type=adaptive_margin line" Family.scaling
    (drop [ ("type", J.Str "adaptive_margin") ] scaling);
  expect_error "one domain count" "distinct domains" Family.scaling
    (drop (point @ [ ("domains", J.Int 2) ]) (drop (point @ [ ("domains", J.Int 4) ]) scaling));
  let serve = read "../BENCH_serve.json" in
  expect_error "coalescing acquires as often" "acquires_per_range" Family.serve
    (set (point @ [ ("coalesce", J.Bool true); ("pipeline", J.Int 16) ])
       "acquires_per_range" (J.Float 1.5) serve);
  expect_error "no deep pipelines" "pairs with pipeline >= 4" Family.serve
    (drop (point @ [ ("pipeline", J.Int 4) ]) (drop (point @ [ ("pipeline", J.Int 16) ]) serve));
  let reclaim = read "../BENCH_reclaim.json" in
  expect_error "failed summary" "ok is not true" Family.reclaim
    (set [ ("type", J.Str "summary") ] "ok" (J.Bool false) reclaim);
  expect_error "failed gate" "announce_ok is not true" Family.reclaim
    (set [ ("type", J.Str "gate"); ("reclaim", J.Str "qsbr") ] "announce_ok" (J.Bool false)
       reclaim);
  let snapshot = read "../BENCH_snapshot.json" in
  expect_error "acquires not amortized" "not strictly decreasing" Family.snapshot
    (set
       (point @ [ ("arm", J.Str "snapshot"); ("k", J.Int 64) ])
       "acquires_per_read" (J.Float 1.0) snapshot);
  expect_error "unknown arm" "arm is not one of" Family.snapshot
    (set (point @ [ ("arm", J.Str "independent") ]) "arm" (J.Str "other") snapshot);
  let hotpath = read "../BENCH_hotpath.json" in
  expect_error "nested field missing" "no optimized.words_per_op" Family.hotpath
    (List.map
       (fun l ->
         match (l, J.member "optimized" l) with
         | J.Obj fields, Some (J.Obj opt) ->
           J.Obj
             (List.map
                (fun (k, v) ->
                  if k = "optimized" then (k, J.Obj (List.remove_assoc "words_per_op" opt))
                  else (k, v))
                fields)
         | l, _ -> l)
       hotpath);
  expect_error "empty metrics export" "no name=timestamp.strict.ties lines" Family.metrics []

let detection () =
  Alcotest.(check string) "unclaimed lines are a metrics export" "harness.run"
    (Family.detect [ J.Obj [ ("name", J.Str "x.y"); ("type", J.Str "counter") ] ]).Family.name;
  let report = Trend.compare_lines ~base:[] ~cur:[] ~margin:0.25 in
  match J.parse_lines (Trend.to_json_lines report) with
  | Ok lines ->
    Alcotest.(check string) "a trend report" "trend.check" (Family.detect lines).Family.name
  | Error e -> Alcotest.failf "trend json unparseable: %s" e

(* ---------- trend gate ---------- *)


let mk_point series subkey mops =
  J.Obj
    [
      ("name", J.Str "bench.scaling");
      ("type", J.Str "point");
      ("structure", J.Str series);
      ("provider", J.Str "logical");
      ("domains", J.Int subkey);
      ("mops", J.Float mops);
      ("words_per_op", J.Float 10.);
    ]

let trend_verdicts () =
  let base =
    [ mk_point "a" 1 1.0; mk_point "a" 2 2.0; mk_point "b" 1 4.0 ]
  in
  let same = Trend.compare_lines ~base ~cur:base ~margin:0.25 in
  Alcotest.(check string) "identical inputs are ok" "ok"
    (Trend.verdict_name same.Trend.verdict);
  Alcotest.(check int) "all series paired" 2
    (List.length same.Trend.series);
  let slow =
    [ mk_point "a" 1 0.5; mk_point "a" 2 1.0; mk_point "b" 1 4.0 ]
  in
  let reg = Trend.compare_lines ~base ~cur:slow ~margin:0.25 in
  Alcotest.(check string) "halved series regresses" "regression"
    (Trend.verdict_name reg.Trend.verdict);
  let fast =
    [ mk_point "a" 1 2.0; mk_point "a" 2 4.0; mk_point "b" 1 8.0 ]
  in
  let imp = Trend.compare_lines ~base ~cur:fast ~margin:0.25 in
  Alcotest.(check string) "doubled overall improves" "improvement"
    (Trend.verdict_name imp.Trend.verdict);
  (* within-margin noise is not a verdict either way *)
  let noisy = [ mk_point "a" 1 0.9; mk_point "a" 2 2.1; mk_point "b" 1 3.9 ] in
  let ok = Trend.compare_lines ~base ~cur:noisy ~margin:0.25 in
  Alcotest.(check string) "noise within margin is ok" "ok"
    (Trend.verdict_name ok.Trend.verdict);
  (* unpaired points are surfaced, not silently dropped *)
  let extra = mk_point "c" 1 1.0 :: base in
  let un = Trend.compare_lines ~base ~cur:extra ~margin:0.25 in
  Alcotest.(check int) "unmatched counted" 1 un.Trend.unmatched

let mk_zoo_point provider subkey mops =
  J.Obj
    [
      ("name", J.Str "bench.scaling");
      ("type", J.Str "point");
      ("structure", J.Str "bst-vcas");
      ("provider", J.Str provider);
      ("domains", J.Int subkey);
      ("mops", J.Float mops);
      ("words_per_op", J.Float 10.);
    ]

let zoo_providers =
  [ "logical"; "delayed"; "multislot"; "tl2"; "rdtscp-strict"; "adaptive" ]

let trend_zoo_series_matching () =
  (* Every zoo provider forms its own series: a regression in one
     provider's points must trip the gate even when the other five hold,
     and the pairing must never cross providers. *)
  let base =
    List.concat_map
      (fun p -> [ mk_zoo_point p 1 2.0; mk_zoo_point p 2 4.0 ])
      zoo_providers
  in
  let cur =
    List.map
      (fun l ->
        match l with
        | J.Obj fields
          when List.assoc_opt "provider" fields = Some (J.Str "tl2") ->
          J.Obj
            (List.map
               (fun (k, v) ->
                 match (k, v) with
                 | "mops", J.Float m -> (k, J.Float (m *. 0.5))
                 | _ -> (k, v))
               fields)
        | l -> l)
      base
  in
  let r = Trend.compare_lines ~base ~cur ~margin:0.25 in
  Alcotest.(check int) "one series per provider" (List.length zoo_providers)
    (List.length r.Trend.series);
  Alcotest.(check string) "halved tl2 series regresses" "regression"
    (Trend.verdict_name r.Trend.verdict);
  List.iter
    (fun (s : Trend.series_diff) ->
      let expect = if s.Trend.sd_series = "bst-vcas/tl2" then 0.5 else 1.0 in
      Alcotest.(check (float 0.001))
        ("median ratio for " ^ s.Trend.sd_series)
        expect s.Trend.sd_median_ratio)
    r.Trend.series

let perturb_single_series () =
  (* write_perturbed ~only: the file-level twin of the series test, used
     by `make trend-guard` to prove the gate sees one provider regress. *)
  let src = Filename.temp_file "trend-zoo" ".json" in
  let dst = Filename.temp_file "trend-zoo-perturbed" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove src; Sys.remove dst)
  @@ fun () ->
  let oc = open_out src in
  List.iter
    (fun p ->
      output_string oc (J.to_string (mk_zoo_point p 1 2.0));
      output_char oc '\n')
    zoo_providers;
  close_out oc;
  (match
     Trend.write_perturbed ~only:"bst-vcas/multislot" ~src ~dst ~factor:0.4
       ()
   with
  | Error e -> Alcotest.failf "perturb failed: %s" e
  | Ok () -> ());
  (match Trend.compare_files ~base:src ~cur:dst ~margin:0.25 with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok r ->
    Alcotest.(check string) "single-series perturbation trips the gate"
      "regression"
      (Trend.verdict_name r.Trend.verdict);
    List.iter
      (fun (s : Trend.series_diff) ->
        let expect =
          if s.Trend.sd_series = "bst-vcas/multislot" then 0.4 else 1.0
        in
        Alcotest.(check (float 0.001))
          ("ratio for " ^ s.Trend.sd_series)
          expect s.Trend.sd_median_ratio)
      r.Trend.series);
  (* a series with no points is an error, not a silent no-op *)
  match
    Trend.write_perturbed ~only:"bst-vcas/nope" ~src ~dst ~factor:0.4 ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "perturbing a missing series should error"

let trend_report_roundtrip () =
  let base = [ mk_point "a" 1 1.0; mk_point "b" 1 2.0 ] in
  let cur = [ mk_point "a" 1 0.5; mk_point "b" 1 2.0 ] in
  let r = Trend.compare_lines ~base ~cur ~margin:0.25 in
  match J.parse_lines (Trend.to_json_lines ~base:"B" ~cur:"C" r) with
  | Error e -> Alcotest.failf "trend json unparseable: %s" e
  | Ok lines ->
    let of_type t =
      List.filter
        (fun l -> Option.bind (J.member "type" l) J.to_str = Some t)
        lines
    in
    Alcotest.(check int) "one meta line" 1 (List.length (of_type "meta"));
    Alcotest.(check int) "one line per series" 2
      (List.length (of_type "series"));
    (match of_type "verdict" with
    | [ v ] ->
      Alcotest.(check (option string)) "verdict value" (Some "regression")
        (Option.bind (J.member "verdict" v) J.to_str)
    | _ -> Alcotest.fail "expected exactly one verdict line")


let trend_family_mismatch () =
  let write lines =
    let path = Filename.temp_file "trend-family" ".json" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (J.to_string l ^ "\n")) lines;
    close_out oc;
    path
  in
  let scaling = write [ mk_point "a" 1 1.0 ] in
  let reclaim =
    write
      [
        J.Obj
          [
            ("name", J.Str "bench.reclaim");
            ("type", J.Str "point");
            ("structure", J.Str "a");
            ("reclaim", J.Str "ebr");
            ("domains", J.Int 1);
            ("mops", J.Float 1.0);
          ];
      ]
  in
  let tailattr = write [ J.Obj [ ("name", J.Str "trace.report"); ("type", J.Str "meta") ] ] in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ scaling; reclaim; tailattr ])
  @@ fun () ->
  (match Trend.compare_files ~base:scaling ~cur:reclaim ~margin:0.25 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two families compared");
  (match Trend.compare_files ~base:tailattr ~cur:tailattr ~margin:0.25 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a family without throughput compared");
  match Trend.compare_files ~base:reclaim ~cur:reclaim ~margin:0.25 with
  | Ok r ->
    Alcotest.(check string) "reported family" "bench.reclaim" r.Trend.family;
    Alcotest.(check (list string)) "series from the spec" [ "a/ebr" ]
      (List.map (fun s -> s.Trend.sd_series) r.Trend.series)
  | Error e -> Alcotest.failf "same-family diff failed: %s" e

let () =
  Alcotest.run "benchkit"
    [
      ( "kit",
        [
          Alcotest.test_case "paired rotation" `Quick kit_paired_rotation;
          Alcotest.test_case "summarize medians" `Quick kit_summarize;
        ] );
      ( "family",
        [
          Alcotest.test_case "checked-in artifacts validate" `Quick
            checked_in_artifacts_validate;
          Alcotest.test_case "broken artifacts rejected" `Quick
            broken_artifacts_rejected;
          Alcotest.test_case "detection" `Quick detection;
        ] );
      ( "trend",
        [
          Alcotest.test_case "verdicts" `Quick trend_verdicts;
          Alcotest.test_case "report round-trip" `Quick trend_report_roundtrip;
          Alcotest.test_case "zoo series matching" `Quick
            trend_zoo_series_matching;
          Alcotest.test_case "single-series perturbation" `Quick
            perturb_single_series;
          Alcotest.test_case "family mismatch refused" `Quick
            trend_family_mismatch;
        ] );
    ]
