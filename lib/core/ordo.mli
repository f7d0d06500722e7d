(** ORDO-style uncertainty-aware clock (related work, §V).

    ORDO does not assume hardware clocks are synchronized; it measures a
    bound on the pairwise offset between cores (via clock handshakes) and
    only orders two timestamps when they differ by more than that bound.
    The paper's position is that invariant TSC makes this machinery
    unnecessary on the machines it targets — this module exists to test
    that claim: measure the uncertainty empirically and expose both the
    uncertainty-window comparison and a globally-ordered timestamp
    provider built on it.

    On an invariant-TSC machine the measured bound is just the
    cross-domain communication latency (hundreds of cycles), and
    [Timestamp.advance] costs one such window. *)

val measure_uncertainty : ?rounds:int -> unit -> int
(** Upper bound, in cycles, on the observable clock offset between two
    domains: half the minimal round-trip of a timestamp handshake,
    maximized over [rounds] (default 64) exchanges.  Spawns a domain. *)

val uncertainty : unit -> int
(** Cached {!measure_uncertainty} result.  The registry gauge
    [ordo.uncertainty_cycles] reads the cached bound only: 0 until the
    first call measures it. *)

val cmp : int -> int -> [ `Before | `After | `Concurrent ]
(** Order two raw TSC values under the uncertainty window: [`Concurrent]
    when they are closer than {!uncertainty}. *)

module Timestamp () : Timestamp.S
(** Globally-ordered provider: [advance] reads the TSC and then waits out
    one uncertainty window, so any two [advance] results whose intervals
    do not overlap are correctly ordered even under clock skew.  Costs one
    window per call — the price ORDO pays that plain invariant-TSC use
    avoids. *)
