(** TSC-stamped phase tracing: per-domain ring buffers of span events.

    Records begin/end events for the phases the paper's analysis turns
    on — timestamp/label acquisition, structure traversal, CAS retry
    bursts, EBR bookkeeping — into fixed-capacity per-slot rings, via a
    zero-allocation {!Span} API.  With the kill switch off every hook is
    one domain-local read and one branch; when on, an event is one
    [RDTSCP] plus two array stores.

    Hooks are meaningful only between {!Op.begin_} and {!Op.end_}: the
    sampling decision is taken once per op and cached domain-locally, so
    flipping {!Config.set_enabled} mid-run can never unbalance brackets
    (an op that began traced closes traced). *)

module Config : sig
  val enabled : unit -> bool
  (** Kill switch, initialised from [HWTS_TRACE] ([1]/[true]/[on]/[yes]
      enable; default off — tracing is opt-in, unlike [HWTS_OBS]). *)

  val set_enabled : bool -> unit

  val sample_period : unit -> int
  (** Every [n]-th op per domain is traced ([HWTS_TRACE_SAMPLE],
      default 1 = every op). *)

  val set_sample_period : int -> unit

  val capacity : int
  (** Events per ring, a power of two ([HWTS_TRACE_CAP], default 16384
      rounded up).  Oldest events are overwritten on wrap. *)

  val stall_budget : unit -> int
  (** Span-duration budget in TSC cycles for {!stalls}
      ([HWTS_TRACE_STALL], default 5e8). *)

  val set_stall_budget : int -> unit
end

type phase =
  | Op
  | Acquire
  | Traverse
  | Ebr
  | Reclaim
  | Wait
  | Snapshot

val phase_count : int
val phase_index : phase -> int
val phase_of_index : int -> phase
val phase_name : phase -> string

val class_names : string array
(** [[| "none"; "insert"; "delete"; "contains"; "range"; "multiget";
    "multirange" |]] — op class codes used by {!Op.begin_}. *)

module Span : sig
  val enter : phase -> unit
  (** Record a begin event (no-op unless the current op was sampled).
      Never allocates. *)

  val exit : phase -> unit

  val exit_n : phase -> int -> unit
  (** [exit_n phase n] ends the span carrying payload [n] (e.g. the CAS
      retry count of the burst it brackets). *)
end

val instant : ?aux:int -> phase -> unit
(** Record a point event (e.g. a read against a snapshot handle). *)

module Op : sig
  val begin_ : int -> unit
  (** Start an op bracket of the given class code (index into
      {!class_names}); applies the sampling period and snapshots the
      switch for the whole op. *)

  val end_ : unit -> unit
  (** Close the bracket.  Consults only the snapshot taken by
      {!begin_}, so it balances even if the switch flipped mid-op;
      leaked spans are force-closed and counted in
      [trace.exit_mismatch]. *)
end

val reset : unit -> unit
(** Drop all rings and reset the trace counters.  Racy against running
    writers only in that they will lazily recreate their ring. *)

val reset_local : unit -> unit
(** Reset the calling domain's sampling/bracket state (tests). *)

(** {2 Decoding and analysis} — cold paths, run after workers quiesce. *)

type event = {
  slot : int;
  stamp : int;
  kind : int;  (** 0 begin, 1 end, 2 instant *)
  phase : phase;
  cls : int;
  aux : int;
}

val events : unit -> event list
(** All buffered events, oldest-first within each slot. *)

type op_record = {
  op_cls : int;
  op_start : int;
  op_total : int;
  op_phases : int array;  (** cycles per {!phase_index} *)
}

val op_records : unit -> op_record list
(** Sampled ops reassembled from begin/end pairs. *)

type stall = {
  stall_slot : int;
  stall_phase : phase;
  stall_cls : int;
  stall_cycles : int;
  stall_open : bool;
}

val stalls : ?budget:int -> unit -> stall list
(** Spans that ran (or are still open) longer than [budget] TSC cycles
    (default {!Config.stall_budget}) — the livelock/helping-storm
    watchdog. *)

type band = {
  band_label : string;
  band_ops : int;
  band_mean_cycles : float;
  band_phase_means : (string * float) list;
  band_dominant : string;
  band_dominant_share : float;
}

type attribution = {
  attr_class : string;
  attr_ops : int;
  attr_bands : band list;
}

val tail_attribution : unit -> attribution list
(** Per op class, which phase dominates the p50/p99/p999 latency bands
    (disjoint rank bands over the sampled ops).  ["other"] is the op
    time not covered by any instrumented phase. *)

val to_json_lines : ?structure:string -> ?provider:string -> unit -> string
(** JSON-lines rendering of the summary, tail attribution and stalls,
    suitable for appending to a [--metrics-out] file. *)

val to_chrome_json : unit -> string
(** Chrome [trace_event] JSON (one object, not lines) — load the file
    in [chrome://tracing] or Perfetto. *)

val write_chrome : string -> unit
