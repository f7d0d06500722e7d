(** Per-domain scratch reuse for allocation-free hot paths.

    A ['a t] lazily creates one ['a] per domain (Domain.DLS-backed) and
    hands the same instance back on every {!get} from that domain, so
    traversal workspaces (preds/succs arrays, collection buffers) are
    allocated once per domain instead of once per operation.  Safe as long
    as a domain never interleaves two operations that use the same scratch
    — which holds for the non-reentrant data-structure operations here.

    The global switch ({!set_enabled}, or [HWTS_SCRATCH=0] in the
    environment at load time) makes {!get} return a {e fresh} instance on
    every call instead: the exact pre-reuse allocation behavior, used as
    the baseline leg of the hotpath microbench. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make create] registers a per-domain workspace built by [create]. *)

val get : 'a t -> 'a
(** This domain's instance (created on first use) — or a fresh one on
    every call when scratch reuse is disabled. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
