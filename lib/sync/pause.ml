(* Fault-injection pause points for the correctness-checking torture
   harness (lib/check).

   A pause point is a place where a concurrency bug would hide: between
   announcing a range query and stamping it, between installing a vCAS
   version or a bundle entry and labeling it.
   Sprinkling [point ()] there lets a seeded scheduler stretch exactly
   those windows — a delay can only slow an execution down, never create
   a behaviour the hardware could not produce, so injection is always
   sound; it just makes the rare interleavings common.

   Disabled (the default, and whenever HWTS_CHECK_FAULTS is unset or 0)
   the whole machinery is one predictable-branch atomic load per site, so
   production hot paths keep their benchmarked shape.  Enabled, roughly
   one point in [period] injects a disturbance chosen by a per-domain
   xorshift stream: a short spin, a scheduler yield, or a microsecond
   sleep (the last two matter most on oversubscribed machines, where they
   force a different domain to run inside the widened window). *)

(* 0 = disabled; n >= 1 = inject at roughly one point in n. *)
let env_period =
  match Option.bind (Sys.getenv_opt "HWTS_CHECK_FAULTS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 0

let env_seed =
  match
    Option.bind (Sys.getenv_opt "HWTS_CHECK_FAULT_SEED") int_of_string_opt
  with
  | Some s -> s
  | None -> 0x5EED

let period_word = Atomic.make env_period
let seed_word = Atomic.make env_seed

(* Bumped on every [enable] so per-domain streams reseed; lets the torture
   driver run many independent seeded rounds in one process. *)
let epoch = Atomic.make 0

(* Total injections across all domains: tests assert the schedule actually
   fired.  Plain shared counter — contention is irrelevant in fault mode. *)
let injected_total = Atomic.make 0

let enabled () = Atomic.get period_word > 0
let injected () = Atomic.get injected_total

let enable ?(period = 4) ~seed () =
  assert (period >= 1);
  Atomic.set seed_word seed;
  ignore (Atomic.fetch_and_add epoch 1);
  Atomic.set period_word period

let disable () = Atomic.set period_word 0

type dstate = { mutable epoch : int; mutable x : int }

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { epoch = -1; x = 0 })

(* splitmix-style avalanche, for turning (seed, domain id) into a stream
   start that differs in every bit *)
let mix h =
  let h = h * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  let h = h lxor (h lsr 32) in
  if h = 0 then 1 else h

let my_id () =
  match Slot.current () with
  | Some s -> s
  | None -> (Domain.self () :> int) land 0xFF

let next st =
  let x = st.x in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st.x <- x;
  x land max_int

let inject st =
  ignore (Atomic.fetch_and_add injected_total 1);
  let r = next st in
  match r land 3 with
  | 0 | 1 ->
    (* short spin: widens the window without releasing the core *)
    for _ = 1 to 1 + (r lsr 2 land 63) do
      Tsc.cpu_relax ()
    done
  | 2 ->
    (* bare yield: invites another domain onto this core *)
    Unix.sleepf 0.
  | _ ->
    (* microsleep: guarantees a reschedule even under light load *)
    Unix.sleepf (1e-6 *. float_of_int (1 + (r lsr 2 land 7)))

(* [park_at]: a test sets [period_word] to -1, which routes every point to
   [slow_point], and [countdown] picks the point that parks. *)
let countdown = Atomic.make 0
let parked_word = Atomic.make false

let park_at n =
  assert (n >= 1 && not (enabled ()));
  Atomic.set countdown n;
  Atomic.set period_word (-1)

let parked () = Atomic.get parked_word
let unpark () = Atomic.set parked_word false

let park () =
  Atomic.set period_word 0;
  Atomic.set parked_word true;
  while Atomic.get parked_word do
    Domain.cpu_relax ()
  done

let slow_point () =
  let p = Atomic.get period_word in
  if p < 0 then begin
    if Atomic.fetch_and_add countdown (-1) = 1 then park ()
  end
  else if p > 0 then begin
    let st = Domain.DLS.get dls in
    let e = Atomic.get epoch in
    if st.epoch <> e then begin
      st.epoch <- e;
      st.x <- mix (Atomic.get seed_word lxor ((my_id () + 1) * 0x1F123BB5))
    end;
    if next st mod p = 0 then inject st
  end

let point () = if Atomic.get period_word <> 0 then slow_point ()
