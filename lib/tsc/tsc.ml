external rdtsc : unit -> int = "caml_hwts_rdtsc" [@@noalloc]
external rdtscp : unit -> int = "caml_hwts_rdtscp" [@@noalloc]
external rdtscp_lfence : unit -> int = "caml_hwts_rdtscp_lfence" [@@noalloc]
external rdtsc_cpuid : unit -> int = "caml_hwts_rdtsc_cpuid" [@@noalloc]
external has_invariant_tsc : unit -> bool = "caml_hwts_has_invariant_tsc"
  [@@noalloc]

external is_x86_stub : unit -> bool = "caml_hwts_is_x86" [@@noalloc]
external monotonic_ns : unit -> int = "caml_hwts_monotonic_ns" [@@noalloc]
external cpu_relax : unit -> unit = "caml_hwts_cpu_relax" [@@noalloc]
external pin_to_cpu : int -> bool = "caml_hwts_pin_to_cpu" [@@noalloc]
external num_cpus : unit -> int = "caml_hwts_num_cpus" [@@noalloc]

let is_x86 = is_x86_stub ()
let serializing_read = rdtscp_lfence

(* Fence-amortized reads: many call sites (registry pruning floors, epoch
   advancement pacing) only need a staleness-bounded *lower bound* on the
   counter, not an ordered read.  Serving them from a per-domain cache
   refreshed every [refresh_period] calls removes the RDTSCP from their
   common path entirely.  The refresh itself uses bare RDTSCP — it waits
   for preceding instructions, so a refreshed value is never ahead of any
   ordered read that completed before the refresh on this domain, which
   keeps the cache a true lower bound of [rdtscp_lfence]. *)
let refresh_word = Atomic.make 64
let refresh_period () = Atomic.get refresh_word

let set_refresh_period n =
  if n < 1 then invalid_arg "Tsc.set_refresh_period: period must be >= 1";
  Atomic.set refresh_word n

type cached = { mutable v : int; mutable left : int }

let cached_key : cached Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { v = 0; left = 0 })

let read_cached () =
  let c = Domain.DLS.get cached_key in
  if c.left <= 0 then begin
    c.v <- rdtscp ();
    c.left <- Atomic.get refresh_word
  end;
  c.left <- c.left - 1;
  c.v

(* A [(monotonic_ns, TSC)] reading of one instant.  The TSC read sits
   between two monotonic reads and the tightest of five brackets is kept,
   so a preemption between the two clocks' reads cannot skew a window
   measured from such pairs. *)
let clock_pair () =
  let rec best n width pair =
    if n = 0 then pair
    else
      let t0 = monotonic_ns () in
      let c = rdtscp_lfence () in
      let t1 = monotonic_ns () in
      if t1 - t0 < width then best (n - 1) (t1 - t0) (t0 + ((t1 - t0) / 2), c)
      else best (n - 1) width pair
  in
  best 5 max_int (0, 0)

(* Calibrate the TSC frequency against the monotonic clock.  A ~5 ms busy
   window gives better than 0.1% accuracy, plenty for reporting; each end
   is a bracketed [clock_pair], so a preemption at either end cannot
   stretch one clock's span and not the other's. *)
let calibrate_cycles_per_ns () =
  let window_ns = 5_000_000 in
  let t0_ns, c0 = clock_pair () in
  let rec spin () =
    if monotonic_ns () - t0_ns < window_ns then begin
      cpu_relax ();
      spin ()
    end
  in
  spin ();
  let t1_ns, c1 = clock_pair () in
  let dns = t1_ns - t0_ns and dcy = c1 - c0 in
  if dns <= 0 || dcy <= 0 then 1.0 else float_of_int dcy /. float_of_int dns

let cycles_per_ns_cache = Atomic.make nan

let cycles_per_ns () =
  let c = Atomic.get cycles_per_ns_cache in
  if Float.is_nan c then begin
    let measured = calibrate_cycles_per_ns () in
    (* A concurrent calibration may have won the race; either result is
       equally valid, keep the first one stored. *)
    ignore (Atomic.compare_and_set cycles_per_ns_cache c measured);
    Atomic.get cycles_per_ns_cache
  end
  else c

let cycles_to_ns cycles = float_of_int cycles /. cycles_per_ns ()

let measure_cost_cycles ?(iters = 100_000) reader =
  let sink = ref 0 in
  (* Warm up instruction caches and branch predictors. *)
  for _ = 1 to 1_000 do
    sink := !sink lxor reader ()
  done;
  let start = rdtscp_lfence () in
  for _ = 1 to iters do
    sink := !sink lxor reader ()
  done;
  let stop = rdtscp_lfence () in
  ignore (Sys.opaque_identity !sink);
  float_of_int (stop - start) /. float_of_int iters
