(* Perf-trajectory gate: diff two runs of one artifact family.

   Both files are JSON lines.  The family spec (Family) says which lines
   are comparable points and how they group into series, so any two
   checked-in runs of the same family can be compared.  Ratios are
   current/baseline Mops/s; the verdict is taken on per-series medians
   with a noise margin, so one noisy point cannot flip the gate on a
   shared machine. *)

module J = Hwts_obs.Json

type series_diff = {
  sd_series : string;
  sd_points : int;
  sd_median_ratio : float;
  sd_min_ratio : float;
  sd_max_ratio : float;
  sd_words_ratio : float;
}

type verdict = Ok_ | Regression | Improvement

type report = {
  family : string;
  margin : float;
  series : series_diff list;
  overall_median : float;
  verdict : verdict;
  unmatched : int;
}

let verdict_name = function
  | Ok_ -> "ok"
  | Regression -> "regression"
  | Improvement -> "improvement"

let compare_lines ~base ~cur ~margin =
  let family = Family.detect base in
  let bp = Family.points family base and cp = Family.points family cur in
  let pairs, unmatched =
    List.fold_left
      (fun (pairs, missing) (c : Family.point) ->
        match
          List.find_opt
            (fun (b : Family.point) -> b.series = c.series && b.subkey = c.subkey)
            bp
        with
        | Some b when b.mops > 0. -> ((c.series, b, c) :: pairs, missing)
        | _ -> (pairs, missing + 1))
      ([], 0) cp
  in
  let names = List.sort_uniq compare (List.map (fun (s, _, _) -> s) pairs) in
  let series =
    List.map
      (fun name ->
        let here =
          List.filter_map (fun (s, b, c) -> if s = name then Some (b, c) else None) pairs
        in
        let ratios = List.map (fun ((b : Family.point), (c : Family.point)) -> c.mops /. b.mops) here in
        let wr =
          List.filter_map
            (fun ((b : Family.point), (c : Family.point)) ->
              if b.words_per_op > 0. then Some (c.words_per_op /. b.words_per_op) else None)
            here
        in
        {
          sd_series = name;
          sd_points = List.length here;
          sd_median_ratio = Family.median ratios;
          sd_min_ratio = List.fold_left Float.min infinity ratios;
          sd_max_ratio = List.fold_left Float.max 0. ratios;
          sd_words_ratio = (if wr = [] then 1. else Family.median wr);
        })
      names
  in
  let overall =
    if series = [] then 0. else Family.median (List.map (fun s -> s.sd_median_ratio) series)
  in
  let verdict =
    if series = [] then Ok_
    else if List.exists (fun s -> s.sd_median_ratio < 1. -. margin) series then Regression
    else if overall > 1. +. margin then Improvement
    else Ok_
  in
  { family = family.Family.name; margin; series; overall_median = overall; verdict; unmatched }

let compare_files ~base ~cur ~margin =
  match (Family.read_lines base, Family.read_lines cur) with
  | Error e, _ | _, Error e -> Error e
  | Ok b, Ok c ->
    let fb = Family.detect b and fc = Family.detect c in
    if fb.Family.name <> fc.Family.name then
      Error
        (Printf.sprintf "%s is a %s artifact but %s is a %s artifact" base fb.Family.name cur
           fc.Family.name)
    else if fb.Family.trend = None then
      Error (Printf.sprintf "%s artifacts carry no throughput to compare" fb.Family.name)
    else Ok (compare_lines ~base:b ~cur:c ~margin)

let to_json_lines ?base ?cur r =
  let opt name v = match v with None -> [] | Some s -> [ (name, J.Str s) ] in
  let line ty fields = J.Obj ((("name", J.Str "trend.check") :: ("type", J.Str ty) :: fields)) in
  let meta =
    line "meta"
      ((("family", J.Str r.family) :: opt "base" base)
      @ opt "cur" cur
      @ [ ("margin", J.Float r.margin); ("unmatched", J.Int r.unmatched) ])
  in
  let series =
    List.map
      (fun s ->
        line "series"
          [
            ("series", J.Str s.sd_series);
            ("points", J.Int s.sd_points);
            ("median_ratio", J.Float s.sd_median_ratio);
            ("min_ratio", J.Float s.sd_min_ratio);
            ("max_ratio", J.Float s.sd_max_ratio);
            ("words_per_op_ratio", J.Float s.sd_words_ratio);
          ])
      r.series
  in
  let verdict =
    line "verdict"
      [
        ("verdict", J.Str (verdict_name r.verdict));
        ("overall_median", J.Float r.overall_median);
        ("series_compared", J.Int (List.length r.series));
      ]
  in
  String.concat "" (List.map (fun l -> J.to_string l ^ "\n") ((meta :: series) @ [ verdict ]))

let print_human r =
  Printf.printf "%s\n%-40s %6s %8s %8s %8s\n" r.family "series" "points" "median" "min" "max";
  List.iter
    (fun s ->
      Printf.printf "%-40s %6d %8.3f %8.3f %8.3f%s\n" s.sd_series s.sd_points s.sd_median_ratio
        s.sd_min_ratio s.sd_max_ratio
        (if s.sd_median_ratio < 1. -. r.margin then "  << REGRESSION" else ""))
    r.series;
  Printf.printf
    "verdict: %s (overall median %.3f, margin %.2f, %d series, %d unmatched points)\n"
    (verdict_name r.verdict) r.overall_median r.margin (List.length r.series) r.unmatched

(* The gate's self-test fixture: a copy of [src] with the family's
   throughput scaled by [factor] (a slowed copy must trip the gate;
   factor 1.0 must not).  [only] restricts the scaling to one series, so
   the gate is also proven sensitive to one series regressing while the
   rest hold. *)
let write_perturbed ?only ~src ~dst ~factor () =
  match Family.read_lines src with
  | Error e -> Error e
  | Ok lines -> (
    match Family.scale_mops (Family.detect lines) ?only ~factor lines with
    | _, 0 ->
      Error
        (match only with
        | Some s -> src ^ ": no points in series " ^ s
        | None -> src ^ ": no scalable lines")
    | rewritten, _ ->
      let oc = open_out dst in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun l ->
              output_string oc (J.to_string l);
              output_char oc '\n')
            rewritten);
      Ok ())

let gate ~prog ?out ~base ~cur ~margin () =
  match compare_files ~base ~cur ~margin with
  | Error e ->
    Printf.eprintf "%s: %s\n" prog e;
    2
  | Ok r when r.series = [] ->
    Printf.eprintf "%s: no comparable points between %s and %s\n" prog base cur;
    2
  | Ok r ->
    print_human r;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (to_json_lines ~base ~cur r);
        close_out oc;
        Printf.printf "(report -> %s)\n" path)
      out;
    if r.verdict = Regression then 1 else 0
