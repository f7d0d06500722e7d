(** ORDO-style clock uncertainty (related work, §V).

    ORDO does not assume hardware clocks are synchronized; it measures a
    bound on the pairwise offset between cores (via clock handshakes) and
    only orders two timestamps when they differ by more than that bound.
    The paper's position is that invariant TSC makes this machinery
    unnecessary on the machines it targets.  This module measures the
    bound empirically; [qsbr-tsc] reclamation backs its free bound off
    by it.  On an invariant-TSC machine the measured bound is just the
    cross-domain communication latency (hundreds of cycles). *)

val measure_uncertainty : ?rounds:int -> unit -> int
(** Upper bound, in cycles, on the observable clock offset between two
    domains: half the minimal round-trip of a timestamp handshake,
    maximized over [rounds] (default 64) exchanges.  Spawns a domain. *)

val uncertainty : unit -> int
(** Cached {!measure_uncertainty} result.  The registry gauge
    [ordo.uncertainty_cycles] reads the cached bound only: 0 until the
    first call measures it. *)
