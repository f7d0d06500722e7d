(** The paper's figures on the timing model: every sweep (kernels,
    workload mixes, series) in one place, printed by [hwts-cli figure]. *)

val ids : string list
(** The figure ids {!run} accepts, in print order: fig1 to fig5, labeling
    (the Section IV ablation), lazylist (a negative result the paper
    omitted) and ablate (the cost-model sensitivity, {!ablation}). *)

type ablation_row = {
  params : string;  (** which {!Costs.t} fields differ from the default *)
  fig1 : float;  (** fenced RDTSCP over FAA, max raw acquisition ratio *)
  fig2 : float;  (** vCAS BST 0-10-90, max hardware/logical speedup *)
  fig4 : float;  (** EBR-RQ 10-10-80, max hardware/logical speedup *)
}

val ablation : duration:float -> ablation_row list
(** The rows figure ablate prints: the default costs, then one or two
    coherence parameters moved at a time, each swept over 1, 24, 96 and
    192 threads at [duration] simulated cycles per point. *)

val run :
  ?on_table:(string -> Sweep.series list -> unit) ->
  duration:float ->
  string ->
  unit
(** [run ~duration id] sweeps figure [id] at [duration] simulated cycles
    per point and prints its tables and speedup summaries to stdout.
    [on_table title series] is called with every table as it is printed,
    in order.  Raises [Invalid_argument] for an id not in {!ids}. *)
