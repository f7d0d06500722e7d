(** The shared runner behind the [bench/] sweeps.

    Every sweep measures two or more arms at each point of a swept axis
    on a shared, noisy machine.  The discipline is the same everywhere:
    a discarded warmup, paired trials that run every arm back to back
    with the starting arm rotating (so a slow phase of the machine lands
    on every arm alike), component-wise medians for the reported point,
    and best-of-trials for throughput gates (preemption only ever slows a
    leg, so the best trial is the noise-robust comparator while a real
    systematic cost still shows).  Output is one JSON-lines artifact per
    sweep, opening with a meta row that records the machine's cores and
    the source revision. *)

module J = Hwts_obs.Json

type row = (string * J.t) list
(** One measured leg, or a summarized point: named numbers, in the
    order they are written out. *)

val summarize : row list -> row
(** Component-wise {!Family.median} of the legs' [Int] and [Float] fields, in the
    first leg's field order; other fields are kept from the first leg. *)

val num : row -> string -> float
(** {!Family.num} of the row; [nan] when absent. *)

val best : row list -> string -> float
(** The largest value of a field over the legs. *)

val best_ratio : row list -> row list -> string -> float
(** [best a f /. best b f], or 1 when [b] has nothing positive. *)

val paired : arms:int -> trials:int -> (trial:int -> int -> 'a) -> 'a list array
(** [paired ~arms ~trials run] calls [run ~trial arm] for every arm in
    every trial, trial [t] starting at arm [t mod arms].  Result [i]
    holds arm [i]'s legs, latest first. *)

val harness_leg :
  ?after_warmup:(unit -> unit) ->
  (module Dstruct.Ordered_set.RQ) ->
  Workload.Harness.config ->
  warmup:int ->
  Workload.Harness.result
(** A fresh, prefilled structure; [warmup] discarded fixed ops; then
    [after_warmup] (e.g. a counter reset) and the measured run.  The heap
    is compacted first so no leg pays for its predecessor's garbage. *)

val counts : what:string -> string -> int list
(** Parse a comma-separated list of positive integers (sorted, unique);
    fails when none is valid. *)

val provider : string -> Workload.Targets.ts
(** The named timestamp provider; exits 2 with the known names if it
    does not exist. *)

val with_artifact :
  path:string -> family:string -> row -> ((string -> row -> unit) -> 'a) -> 'a
(** Open [path], write the meta row ([family], the given fields, then
    [cores] and [git_rev]: [git describe --always --dirty] of the
    working directory, or ["unknown"] outside a checkout), and pass
    [emit ty fields] — which writes one
    [{"name": family, "type": ty, ...fields}] line — to the body. *)
