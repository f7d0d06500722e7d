(* Artifact family specs, their validator, and the trend points they
   expose.  Every check a family needs is one of a handful of rule
   shapes evaluated over the parsed lines, so adding a family means
   writing a list, not another validator. *)

module J = Hwts_obs.Json

type kind = Str | Int | Float | Bool | One_of of string list | Within of float * float
type sel = (string * J.t) list
type pred = Lower of string | Ratio_at_least of string * float

type rule =
  | Some_lines of sel
  | One_line of sel
  | Fields of sel * (string * kind) list
  | Holds of sel * string list
  | Covers of sel * string * string list
  | Distinct of sel * string * int
  | Matched of sel * string * sel
  | Pairs of {
      a : sel;
      b : sel;
      on : string list;
      from : string * int;
      preds : pred list;
    }
  | Decreasing of { sel : sel; series : string list; axis : string; metric : string }

type trend = {
  points : sel;
  series : string list;
  subkey : string list;
  mops : string;
  words : string option;
}

type t = { name : string; rules : rule list; trend : trend option }

let get l path =
  List.fold_left
    (fun acc key -> Option.bind acc (J.member key))
    (Some l)
    (String.split_on_char '.' path)

let matches sel l = List.for_all (fun (f, v) -> get l f = Some v) sel
let select sel lines = List.filter (matches sel) lines

let render = function
  | J.Str s -> s
  | J.Int i -> string_of_int i
  | J.Float f -> Printf.sprintf "%g" f
  | J.Bool b -> string_of_bool b
  | J.Null -> "null"
  | J.List _ | J.Obj _ -> "?"

(* Bool fields read as "coalesce=true", so a series name says which arm
   it is. *)
let key fields l =
  String.concat "/"
    (List.map
       (fun f ->
         match get l f with
         | Some (J.Bool b) -> Printf.sprintf "%s=%b" f b
         | Some v -> render v
         | None -> "?")
       fields)

let describe sel =
  String.concat " " (List.map (fun (f, v) -> f ^ "=" ^ render v) sel)

let has kind v =
  match (kind, v) with
  | Str, J.Str _ | Bool, J.Bool _ -> true
  | Int, v -> J.to_int v <> None
  | Float, v -> J.to_float v <> None
  | One_of xs, J.Str s -> List.mem s xs
  | Within (lo, hi), v -> (
    match J.to_float v with Some f -> f >= lo && f <= hi | None -> false)
  | _ -> false

let kind_name = function
  | Str -> "a string"
  | Int -> "an integer"
  | Float -> "a number"
  | Bool -> "a bool"
  | One_of xs -> "one of " ^ String.concat "|" xs
  | Within (lo, hi) -> Printf.sprintf "a number in [%g,%g]" lo hi

(* Names a line in error messages by whichever axis fields it has. *)
let ident l =
  match
    List.filter_map
      (fun f -> Option.map render (get l f))
      [ "structure"; "provider"; "reclaim"; "arm"; "domains"; "k"; "connections"; "pipeline" ]
  with
  | [] -> "-"
  | vs -> String.concat "/" vs

let distinct f lines =
  List.sort_uniq compare (List.filter_map (fun l -> Option.map render (get l f)) lines)

let num l f = Option.bind (get l f) J.to_float

let median = function
  | [] -> invalid_arg "Family.median: no values"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)

let check lines rule =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match rule with
  | Some_lines sel ->
    if select sel lines = [] then err "no %s lines" (describe sel)
  | One_line sel ->
    let n = List.length (select sel lines) in
    if n <> 1 then err "expected exactly one %s line, found %d" (describe sel) n
  | Fields (sel, fields) ->
    List.iter
      (fun l ->
        List.iter
          (fun (f, kind) ->
            match get l f with
            | Some v when has kind v -> ()
            | Some _ -> err "%s line %s: %s is not %s" (describe sel) (ident l) f (kind_name kind)
            | None -> err "%s line %s: no %s" (describe sel) (ident l) f)
          fields)
      (select sel lines)
  | Holds (sel, fields) ->
    List.iter
      (fun l ->
        List.iter
          (fun f ->
            if get l f <> Some (J.Bool true) then
              err "%s line %s: %s is not true" (describe sel) (ident l) f)
          fields)
      (select sel lines)
  | Covers (sel, f, values) ->
    let found = distinct f (select sel lines) in
    List.iter
      (fun v ->
        if not (List.mem v found) then
          err "%s lines must cover %s=%s (found: %s)" (describe sel) f v
            (String.concat ", " found))
      values
  | Distinct (sel, f, n) ->
    let found = List.length (distinct f (select sel lines)) in
    if found < n then
      err "%s lines must cover >= %d distinct %s (found %d)" (describe sel) n f found
  | Matched (a, f, b) ->
    let targets = distinct f (select b lines) in
    List.iter
      (fun v ->
        if not (List.mem v targets) then
          err "%s line with %s=%s has no %s line" (describe a) f v (describe b))
      (distinct f (select a lines))
  | Pairs { a; b; on; from = axis, bound; preds } ->
    let bs = select b lines in
    let pairs =
      List.filter_map
        (fun x ->
          match Option.bind (get x axis) J.to_int with
          | Some v when v >= bound ->
            List.find_opt (fun y -> List.for_all (fun f -> get x f = get y f) on) bs
            |> Option.map (fun y -> (x, y))
          | _ -> None)
        (select a lines)
    in
    if pairs = [] then
      err "no (%s) vs (%s) pairs with %s >= %d" (describe a) (describe b) axis bound;
    List.iter
      (fun (x, y) ->
        List.iter
          (fun pred ->
            match pred with
            | Lower f -> (
              match (num x f, num y f) with
              | Some u, Some v when u < v -> ()
              | u, v ->
                err "%s: %s %s not strictly below %s" (ident x) f
                  (Option.fold ~none:"?" ~some:string_of_float u)
                  (Option.fold ~none:"?" ~some:string_of_float v))
            | Ratio_at_least (f, r) -> (
              match (num x f, num y f) with
              | Some u, Some v when v > 0. && u /. v < r ->
                err "%s: %s ratio %.3f below %g" (ident x) f (u /. v) r
              | Some _, Some _ -> ()
              | _ -> err "%s: %s missing from a pair" (ident x) f))
          preds)
      pairs
  | Decreasing { sel; series; axis; metric } ->
    let selected = select sel lines in
    List.iter
      (fun s ->
        let rec down = function
          | (k1, m1) :: ((k2, m2) :: _ as rest) ->
            if m2 >= m1 then
              err "%s: %s not strictly decreasing (%g at %s=%d -> %g at %s=%d)" s metric m1
                axis k1 m2 axis k2;
            down rest
          | _ -> ()
        in
        List.filter (fun l -> key series l = s) selected
        |> List.filter_map (fun l ->
               match (Option.bind (get l axis) J.to_int, num l metric) with
               | Some k, Some m -> Some (k, m)
               | _ -> None)
        |> List.sort compare |> down)
      (List.sort_uniq compare (List.map (key series) selected)));
  !errors

let validate t lines =
  match List.concat_map (check lines) t.rules with
  | [] ->
    let counts =
      distinct "type" lines
      |> List.map (fun ty ->
             Printf.sprintf "%d %s" (List.length (select [ ("type", J.Str ty) ] lines)) ty)
    in
    Ok (Printf.sprintf "%s (%s)" t.name (String.concat ", " counts))
  | es -> Error (List.sort_uniq compare es)

(* ---------- the specs ---------- *)

let ty name = [ ("type", J.Str name) ]
let meta = ty "meta" and summary = ty "summary" and point = ty "point" and gate = ty "gate"
let zoo = [ "logical"; "delayed"; "multislot"; "tl2"; "rdtscp-strict"; "adaptive" ]

(* A sweep artifact's meta row states the machine it ran on. *)
let sweep_meta = [ Some_lines meta; Fields (meta, [ ("cores", Int) ]) ]

(* A sweep whose runner gates its own headline: one summary that passed. *)
let self_gated = [ One_line summary; Holds (summary, [ "ok" ]) ]

let scaling =
  let adaptive = point @ [ ("provider", J.Str "adaptive") ] in
  {
    name = "bench.scaling";
    rules =
      sweep_meta
      @ [
          Some_lines summary;
          Some_lines (ty "shape");
          Fields
            ( point,
              [
                ("structure", Str);
                ("provider", Str);
                ("domains", Int);
                ("mops", Float);
                ("words_per_op", Float);
                ("per_domain_mops_cv", Float);
              ] );
          Covers (point, "provider", zoo);
          Distinct (point, "domains", 2);
          Distinct (point, "structure", 4);
          Fields (adaptive, [ ("switches", Int) ]);
          Matched (adaptive, "structure", ty "adaptive_margin");
        ];
    trend =
      Some
        {
          points = point;
          series = [ "structure"; "provider" ];
          subkey = [ "domains" ];
          mops = "mops";
          words = Some "words_per_op";
        };
  }

(* Wherever pipeline depth reaches 4, the coalesced arm must acquire
   strictly fewer snapshots per range than the per-RQ arm (1 by
   construction) without giving up throughput beyond a noise floor. *)
let serve =
  let arm b = point @ [ ("coalesce", J.Bool b) ] in
  {
    name = "bench.serve";
    rules =
      sweep_meta
      @ [
          Some_lines summary;
          Some_lines point;
          Fields
            ( point,
              [
                ("structure", Str);
                ("provider", Str);
                ("connections", Int);
                ("pipeline", Int);
                ("rq_ops", Int);
                ("rq_snapshots", Int);
                ("mops", Float);
                ("acquires_per_range", Float);
                ("coalesce", Bool);
              ] );
          Some_lines (arm true);
          Some_lines (arm false);
          Pairs
            {
              a = arm true;
              b = arm false;
              on = [ "connections"; "pipeline" ];
              from = ("pipeline", 4);
              preds = [ Lower "acquires_per_range"; Ratio_at_least ("mops", 0.75) ];
            };
        ];
    trend =
      Some
        {
          points = point;
          series = [ "structure"; "provider"; "coalesce" ];
          subkey = [ "connections"; "pipeline" ];
          mops = "mops";
          words = None;
        };
  }

(* Both QSBR backends announce strictly less often per op than EBR while
   holding throughput above the floor the sweep ran with. *)
let reclaim =
  {
    name = "bench.reclaim";
    rules =
      sweep_meta @ self_gated
      @ [
          Some_lines point;
          Fields
            ( point,
              [
                ("structure", Str);
                ("reclaim", Str);
                ("domains", Int);
                ("mops", Float);
                ("announce_per_op", Float);
                ("retired", Int);
                ("reclaimed", Int);
                ("limbo_hwm", Int);
                ("quiesces", Int);
              ] );
          Covers (point, "reclaim", [ "ebr"; "qsbr"; "qsbr-tsc" ]);
          Distinct (point, "structure", 2);
          Some_lines gate;
          Fields (gate, [ ("announce_ok", Bool); ("mops_ok", Bool); ("ok", Bool) ]);
          Holds (gate, [ "announce_ok"; "mops_ok" ]);
        ];
    trend =
      Some
        {
          points = point;
          series = [ "structure"; "reclaim" ];
          subkey = [ "domains" ];
          mops = "mops";
          words = None;
        };
  }

(* The snapshot arm's acquisitions per read fall as 1/k — strictly
   decreasing along k in every series, not just a fast constant — and
   every gate holds its acquires bound and throughput floor. *)
let snapshot =
  let arm a = point @ [ ("arm", J.Str a) ] in
  let crossover = ty "crossover" in
  {
    name = "bench.snapshot";
    rules =
      sweep_meta @ self_gated
      @ [
          Some_lines point;
          Fields
            ( point,
              [
                ("structure", Str);
                ("provider", Str);
                ("k", Int);
                ("arm", One_of [ "snapshot"; "independent" ]);
                ("mops", Float);
                ("acquires_per_read", Float);
              ] );
          Some_lines (arm "snapshot");
          Some_lines (arm "independent");
          Distinct (point, "structure", 3);
          Covers (point, "provider", [ "logical"; "rdtscp-strict" ]);
          Decreasing
            {
              sel = arm "snapshot";
              series = [ "structure"; "provider" ];
              axis = "k";
              metric = "acquires_per_read";
            };
          Some_lines gate;
          Fields (gate, [ ("acquires_ok", Bool); ("mops_ok", Bool); ("ok", Bool) ]);
          Holds (gate, [ "acquires_ok"; "mops_ok" ]);
          Some_lines crossover;
          Fields (crossover, [ ("strict_vs_logical", Float) ]);
        ];
    trend =
      Some
        {
          points = point;
          series = [ "structure"; "provider"; "arm" ];
          subkey = [ "k" ];
          mops = "mops";
          words = None;
        };
  }

let hotpath =
  let comparison = ty "comparison" in
  {
    name = "bench.hotpath";
    rules =
      [
        Some_lines meta;
        Some_lines comparison;
        Fields
          ( comparison,
            [
              ("structure", Str);
              ("baseline.mops", Float);
              ("baseline.words_per_op", Float);
              ("optimized.mops", Float);
              ("optimized.words_per_op", Float);
              ("mops_ratio", Float);
              ("words_per_op_reduction_pct", Float);
            ] );
      ];
    trend =
      Some
        {
          points = comparison;
          series = [ "structure" ];
          subkey = [];
          mops = "optimized.mops";
          words = Some "optimized.words_per_op";
        };
  }

let trace_phases =
  [ "acquire"; "traverse"; "cas_retry"; "ebr"; "reclaim"; "wait"; "snapshot"; "other" ]

let tailattr =
  let band = ty "tailattr" in
  {
    name = "trace.report";
    rules =
      [
        Some_lines band;
        Fields
          ( band,
            [
              ("band", One_of [ "p50"; "p99"; "p999" ]);
              ("dominant", One_of trace_phases);
              ("dominant_share", Within (0., 1.));
              ("mean_cycles", Float);
              ("ops", Int);
            ] );
        Distinct (band, "structure", 3);
        Covers (band, "provider", zoo);
      ];
    trend = None;
  }

let trend_report =
  let series = ty "series" and verdict = ty "verdict" in
  {
    name = "trend.check";
    rules =
      [
        One_line meta;
        Fields (meta, [ ("margin", Float) ]);
        Some_lines series;
        Fields
          ( series,
            [ ("series", Str); ("median_ratio", Float); ("min_ratio", Float); ("max_ratio", Float) ]
          );
        One_line verdict;
        Fields (verdict, [ ("verdict", One_of [ "ok"; "regression"; "improvement" ]) ]);
      ];
    trend = None;
  }

let required_counters =
  [
    "timestamp.strict.ties";
    "rangequery.vcas.help_attempts";
    "rangequery.bundle.prunes";
    "ebr.epoch_advances";
    "reclaim.announce_stores";
    "reclaim.retired";
    "reclaim.invariant_violations";
    "rcu.sync_wait_spins";
  ]

let required_histograms =
  [
    "harness.latency.insert";
    "harness.latency.delete";
    "harness.latency.contains";
    "harness.latency.range";
  ]

let metrics =
  let named n = [ ("name", J.Str n) ] in
  let required fields n = [ Some_lines (named n); Fields (named n, fields) ] in
  {
    name = "harness.run";
    rules =
      List.concat_map
        (required [ ("type", One_of [ "counter" ]); ("value", Int) ])
        required_counters
      @ List.concat_map
          (required [ ("type", One_of [ "histogram" ]); ("p50", Float); ("p99", Float) ])
          required_histograms;
    trend =
      Some
        {
          points = named "harness.run";
          series = [ "structure"; "provider" ];
          subkey = [ "threads" ];
          mops = "mops";
          words = Some "words_per_op";
        };
  }

let all = [ scaling; serve; reclaim; snapshot; hotpath; trend_report; tailattr; metrics ]

let detect lines =
  Option.value ~default:metrics
    (List.find_opt (fun t -> select [ ("name", J.Str t.name) ] lines <> []) all)

(* ---------- trend points ---------- *)

type point = { series : string; subkey : string; mops : float; words_per_op : float }

let points t lines =
  match t.trend with
  | None -> []
  | Some tr ->
    List.filter_map
      (fun l ->
        Option.map
          (fun mops ->
            {
              series = key tr.series l;
              subkey = key tr.subkey l;
              mops;
              words_per_op =
                Option.value ~default:0. (Option.bind tr.words (fun w -> num l w));
            })
          (num l tr.mops))
      (select tr.points lines)

let rec update path f l =
  match (path, l) with
  | [], v -> f v
  | k :: rest, J.Obj fields ->
    J.Obj (List.map (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v)) fields)
  | _, v -> v

let scale_mops t ?only ~factor lines =
  match t.trend with
  | None -> (lines, 0)
  | Some tr ->
    let touched = ref 0 in
    let scale = function
      | J.Float f -> J.Float (f *. factor)
      | J.Int i -> J.Float (float_of_int i *. factor)
      | v -> v
    in
    let rewrite l =
      if
        matches tr.points l
        && (match only with None -> true | Some s -> key tr.series l = s)
        && num l tr.mops <> None
      then begin
        incr touched;
        update (String.split_on_char '.' tr.mops) scale l
      end
      else l
    in
    let out = List.map rewrite lines in
    (out, !touched)

let read_lines path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if String.trim content = "" then Error (path ^ ": empty artifact")
    else
      match J.parse_lines content with
      | Ok lines -> Ok lines
      | Error e -> Error (path ^ ": " ^ e))
