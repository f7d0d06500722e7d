(** Access to the CPU timestamp counter (TSC).

    This is the OCaml rendition of the paper's Listing-1 API: a set of raw
    readers for the per-core timestamp register with the different memory
    ordering guarantees discussed in Section II-B, together with capability
    probing (invariant TSC) and cycles-to-nanoseconds calibration.

    On non-x86 platforms all readers degrade to a monotonic-clock read in
    nanoseconds, preserving the two properties the algorithms rely on:
    monotonicity and cross-core synchronization. *)

val is_x86 : bool
(** Whether the stubs were compiled with real x86 TSC instructions. *)

val has_invariant_tsc : unit -> bool
(** CPUID leaf [0x80000007], EDX bit 8: the counter increments at a constant
    rate and is synchronized across cores (Section II-A's requirement). *)

val rdtsc : unit -> int
(** Raw [RDTSC]: no memory-ordering guarantee; may be reordered. *)

val rdtscp : unit -> int
(** Raw [RDTSCP]: waits for preceding instructions, but later instructions
    may start before the counter read completes (pseudo-serializing). *)

val rdtscp_lfence : unit -> int
(** [RDTSCP] followed by [LFENCE] — the paper's recommended reader
    (Listing 1): fully ordered with respect to surrounding instructions. *)

val rdtsc_cpuid : unit -> int
(** [CPUID] (fully serializing, ~200+ cycles) followed by [RDTSC]. *)

val serializing_read : unit -> int
(** Alias for {!rdtscp_lfence}: the fastest safe reader per Section II-B. *)

val read_cached : unit -> int
(** Fence-amortized lower bound on the counter: a per-domain cached value,
    refreshed from a bare [RDTSCP] once every {!refresh_period} calls.
    Between refreshes the value is stale by at most the cycles elapsed
    over [refresh_period - 1] calls; it never exceeds what a concurrent
    {!rdtscp_lfence} would return.  For call sites that need a monotone
    floor (pruning thresholds, advancement pacing), not an ordered read —
    never a linearization point. *)

val refresh_period : unit -> int
(** Calls served per cached RDTSCP value (default 64). *)

val set_refresh_period : int -> unit
(** Override the refresh period (>= 1); 1 refreshes on every call.
    Takes effect at each domain's next refresh. *)

val monotonic_ns : unit -> int
(** [clock_gettime(CLOCK_MONOTONIC)] in nanoseconds. *)

val cpu_relax : unit -> unit
(** x86 [PAUSE] (no-op elsewhere); used inside spin loops. *)

val pin_to_cpu : int -> bool
(** Pin the calling thread to the given CPU (modulo the online CPU count).
    Returns [false] if unsupported. *)

val num_cpus : unit -> int
(** Number of online CPUs. *)

val clock_pair : unit -> int * int
(** [(monotonic_ns, TSC)] at one instant: a fenced TSC read bracketed by
    two {!monotonic_ns} reads, the tightest of five brackets kept, with
    the monotonic time taken at the bracket's midpoint.  Windows measured
    between two pairs are immune to a preemption between the clocks'
    reads. *)

val cycles_per_ns : unit -> float
(** Measured TSC frequency in cycles per nanosecond.  Calibrated once,
    lazily, against the monotonic clock over a short window whose ends
    are {!clock_pair} readings. *)

val cycles_to_ns : int -> float
(** Convert a TSC delta to nanoseconds using {!cycles_per_ns}. *)

val measure_cost_cycles : ?iters:int -> (unit -> int) -> float
(** Average per-call cost, in TSC cycles, of a timestamp reader; used to
    calibrate the timing model against this machine. *)
