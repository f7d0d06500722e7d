(** Seeded torture driver: randomized multi-domain workloads under fault
    injection, verified by the snapshot {!Oracle}.

    Every round derives its schedule — prefill, per-domain op streams,
    and the fault-injection stream ({!Sync.Pause}) — from one seed, so a
    reported failure can be replayed.  Histories are recorded with the
    structure's own timestamp provider so claimed range-query labels are
    comparable with event intervals. *)

type config = {
  structure : string;  (** a {!Workload.Targets.all} name *)
  provider : Workload.Targets.ts;
  reclaim : Workload.Targets.reclaim;
      (** reclamation backend for {!Workload.Targets.reclaim_sensitive}
          structures; the others ignore it *)
  seed : int;
  rounds : int;
  domains : int;
  ops_per_domain : int;  (** [domains * ops_per_domain <= Lin_check.max_events] *)
  key_space : int;  (** keys drawn from [1, key_space] *)
  prefill : int;  (** keys inserted (and recorded as initial state) before workers start *)
  faults : bool;  (** enable {!Sync.Pause} injection during rounds *)
  fault_period : int;  (** inject at roughly 1-in-[fault_period] pause points *)
  multi : bool;
      (** also draw multi-point snapshot ops: multi_gets and multi_ranges
          issued through one {!Hwts_snapshot.t} handle each, recorded as
          single events carrying the handle's one label.  Off by default
          so pre-existing fixtures replay with an identical op stream. *)
}

type failure = {
  round : int;
  round_seed : int;
  initial : int list;
  events : Lin_check.event list;
  minimized : Lin_check.event list;
  reproduced : bool;
      (** whether replaying the round with the same seed failed again *)
}

type outcome = {
  config : config;
  rounds_run : int;
  events_total : int;
  faults_injected : int;
  failure : failure option;  (** [None] = every round passed the oracle *)
}

val default_config :
  ?reclaim:Workload.Targets.reclaim ->
  ?multi:bool ->
  structure:string ->
  provider:Workload.Targets.ts ->
  seed:int ->
  unit ->
  config
(** 12 rounds x 4 domains x 12 ops over keys [1, 12], prefill 4, faults
    on at period 4, EBR reclamation, multi-point ops off. *)

val run : ?log:(string -> unit) -> config -> outcome
(** Runs rounds until one fails the oracle or all pass.  Raises
    [Invalid_argument] for configs exceeding checker capacity or naming
    an unsupported structure/provider pair. *)

val run_round : config -> round_seed:int -> int list * Lin_check.event list
(** One seeded round: build the structure, prefill, run the recorded
    workload, return the initial state and merged history.
    Exposed so fixtures can be generated and replayed round-by-round. *)

val order_of : config -> Hwts.Labeling.label_order
(** The label comparator the oracle must use for this config's provider
    (its [Workload.Targets] registry row's [label_order]). *)

val trace_header : string
(** First line of every trace artifact (lets tooling recognize them). *)

val trace_path : config -> string
(** Conventional artifact name: [check-<structure>-<provider>-seed<N>.trace]. *)

val write_trace : path:string -> config -> failure -> unit

val write_fixture :
  path:string ->
  config ->
  round_seed:int ->
  initial:int list ->
  events:Lin_check.event list ->
  unit
(** Write a *passing* round as a replayable fixture: same header as
    failure traces, but the config line carries [fixture=true] and every
    field {!run_round} needs (failure traces omit [prefill]). *)

val read_fixture : string -> (config * int, string) result
(** Parse a fixture back into the config and round seed to replay
    ([config.rounds] is 1).  [Error] on failure traces and non-trace
    files. *)
