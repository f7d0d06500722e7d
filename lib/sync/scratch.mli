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

(** Growable int buffer for range-query collection: filled during the
    traversal, then copied once into an exact-size result array.  It is
    a list of segments whose sizes double from 64 up to 8192 slots and
    stay at 8192 from then on, so growth allocates a segment and copies
    nothing, a buffer grown to [n] keys holds fewer than [n + 8192]
    slots, and {!clear} keeps the segments for the next fill. *)
module Int_buffer : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> int -> unit

  val to_array : t -> int array
  (** Elements in push order, in a fresh array of exactly {!length}
      slots that shares no storage with the buffer; allocates nothing
      else. *)

  val to_sorted_array : t -> int array
  (** Elements ascending, without duplicates, in a fresh exact-size
      array.  When every push since {!clear} was above the one before
      it, this is {!to_array}; otherwise the copy is sorted and
      de-duplicated in place, and cut to size if a duplicate went. *)
end
