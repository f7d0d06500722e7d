(** Fault-injection pause points for the correctness-checking torture
    harness.

    Synchronization primitives and range-query protocols call {!point}
    inside their race windows (inside a shared-mode rwlock section,
    between a registry announcement and its stamp, …).  Normally every
    such call is a single predictable-branch atomic load.  When enabled —
    [HWTS_CHECK_FAULTS=n] in the environment, or {!enable} from the
    torture driver — roughly one call in [n] injects a seeded disturbance
    (spin, yield, or microsecond sleep), stretching exactly the windows
    where snapshot bugs hide.  Delays never create executions the
    hardware could not produce, so injection is sound for any correct
    implementation.

    Environment knobs: [HWTS_CHECK_FAULTS] (0/unset = off; [n >= 1] =
    inject at one point in [n]) and [HWTS_CHECK_FAULT_SEED] (stream seed,
    default [0x5EED]). *)

val enabled : unit -> bool
(** Whether pause points currently inject faults. *)

val enable : ?period:int -> seed:int -> unit -> unit
(** Turn injection on: one point in [period] (default 4) injects, with
    per-domain streams derived from [seed].  Re-enabling reseeds every
    domain's stream, so each torture round is independently seeded. *)

val disable : unit -> unit
(** Turn injection off (points return to their one-load fast path). *)

val point : unit -> unit
(** A pause point.  No-op unless enabled. *)

val injected : unit -> int
(** Total disturbances injected since program start (all domains). *)

(** {2 Parking, for deterministic tests} *)

val park_at : int -> unit
(** [park_at n]: the [n]th point reached from now on, by any domain,
    parks its caller until {!unpark}; every other point stays a no-op.
    Injection must be off. *)

val parked : unit -> bool
(** Whether a caller is parked at a point. *)

val unpark : unit -> unit
(** Let the parked caller continue. *)
