(** The paper's figures on the timing model: every sweep (kernels,
    workload mixes, series) in one place, printed by both
    [bench/main.exe] and [hwts-cli figure]. *)

val ids : string list
(** The figure ids {!run} accepts: fig1 to fig5, labeling (the Section IV
    ablation) and lazylist (a negative result the paper omitted). *)

val run :
  ?on_table:(string -> Sweep.series list -> unit) ->
  duration:float ->
  string ->
  unit
(** [run ~duration id] sweeps figure [id] at [duration] simulated cycles
    per point and prints its tables and speedup summaries to stdout.
    [on_table title series] is called with every table as it is printed,
    in order.  Raises [Invalid_argument] for an id not in {!ids}. *)
