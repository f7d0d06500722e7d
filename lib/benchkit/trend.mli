(** Perf-trajectory gate: mechanical diff of two runs of one artifact
    family.

    Takes each run's trend points from its {!Family} spec, pairs them by
    series and sub-key, and renders a verdict on per-series
    {!Family.median} Mops/s ratios with a noise margin — a regression gate a change can
    run instead of eyeballing. *)

type series_diff = {
  sd_series : string;
  sd_points : int;
  sd_median_ratio : float;  (** current / baseline Mops/s *)
  sd_min_ratio : float;
  sd_max_ratio : float;
  sd_words_ratio : float;  (** median current / baseline words/op; informational *)
}

type verdict = Ok_ | Regression | Improvement

type report = {
  family : string;  (** the baseline's family name *)
  margin : float;
  series : series_diff list;
  overall_median : float;
  verdict : verdict;
  unmatched : int;  (** current points with no baseline partner *)
}

val verdict_name : verdict -> string

val compare_lines :
  base:Hwts_obs.Json.t list -> cur:Hwts_obs.Json.t list -> margin:float -> report
(** Points come from the family {!Family.detect} finds in [base].
    [Regression] iff any series' median ratio falls below [1 - margin];
    [Improvement] iff the overall median exceeds [1 + margin]. *)

val compare_files : base:string -> cur:string -> margin:float -> (report, string) result
(** Reads both JSON-lines files; [Error] on unreadable or empty input,
    on two different families, or on a family with no throughput. *)

val to_json_lines : ?base:string -> ?cur:string -> report -> string
(** One [trend.check] meta line, one line per series, one verdict line. *)

val print_human : report -> unit

val write_perturbed :
  ?only:string -> src:string -> dst:string -> factor:float -> unit -> (unit, string) result
(** Copy [src] with its family's throughput scaled by [factor].  [only]
    limits the scaling to the named series (e.g. ["bst-vcas/tl2"]);
    [Error] if that series has no points in [src], so a misspelled series
    cannot silently produce an unperturbed fixture that "passes" the
    sensitivity check. *)

val gate :
  prog:string -> ?out:string -> base:string -> cur:string -> margin:float -> unit -> int
(** {!compare_files}, the human table, and the report written to [out]
    when given.  Returns the exit status: 1 on a regression verdict, 2
    when the files cannot be compared (errors go to stderr prefixed with
    [prog]), else 0. *)
