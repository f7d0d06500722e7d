(** The reclaimer signature every backend implements.

    Three kinds of section, with different costs and different duties:

    - {e op sections} ([enter]/[exit]/[with_op]) bracket one structure
      operation.  They pin the limbo lists — a node retired by anyone
      while this domain is inside an op section is not freed until the
      protocol says the domain can no longer need it — so range queries
      may recover just-unlinked nodes from limbo ([limbo_cells], the
      EBR-RQ technique).  Op sections may take locks.
    - {e read sections} ([read_lock]/[read_unlock]/[with_read]) bracket
      lock-free traversals only (never lock acquisition: a domain
      spinning inside a read section would stall every grace period).
      [wait_until_quiescent] waits for all of them.
    - {e quiescence points} ([quiesce]) are moments where the domain
      holds no reference into any protected structure: harness-loop and
      serve-batch boundaries.  The QSBR backends free memory purely from
      these announcements; the EBR backend announces per op instead and
      [quiesce] is a no-op.

    A domain that has touched an instance participates in its grace
    protocol ("online") until it calls [offline].  Workers must go
    offline when they stop operating on the structure — under QSBR a
    finished-but-online worker never quiesces again, so limbo grows
    without bound and grace waiters stall until the worker's domain
    exits its slot. *)

module type S = sig
  type node
  type t

  val name : string
  (** Backend name as the [--reclaim] axis spells it. *)

  val create : ?epoch_frequency:int -> ?on_free:(node -> unit) -> unit -> t
  (** [epoch_frequency] paces the amortized bookkeeping (epoch-advance
      attempts / forced limbo trims) to once per that many ops or
      retires.  [on_free] runs on the trimming domain as a node is
      dropped from limbo — after this call the protocol asserts no
      concurrent reader can still need the node; the poison-on-free
      tortures plant a flag here and fail if a snapshot later includes
      the node. *)

  (** {1 Op sections} *)

  val enter : t -> unit
  val exit : t -> unit
  val with_op : t -> (unit -> 'a) -> 'a

  (** {1 Read sections} *)

  val read_lock : t -> unit
  val read_unlock : t -> unit
  val with_read : t -> (unit -> 'a) -> 'a

  (** {1 Retiring and reclaiming} *)

  val retire : t -> node -> unit
  (** Move an unlinked node to the calling domain's limbo list.  Must be
      called inside an op section, after the node is unreachable from
      the structure (modulo limbo recovery). *)

  val retire_labeled : t -> node -> label:int -> unit
  (** [retire] into a {!Limbo.Labeled} cell that carries [label] for
      the structure's limbo readers; freeing the cell negates it. *)

  val quiesce : t -> unit
  (** Announce a quiescence point: the calling domain holds no reference
      into any structure protected by [t].  Must not be called inside an
      op or read section.  No-op for the EBR backend and for domains
      that never touched [t]. *)

  val offline : t -> unit
  (** Stop participating in the grace protocol (idempotent; re-entering
      any section re-onlines the domain).  Must not be called inside an
      op or read section. *)

  val wait_until_quiescent : t -> unit
  (** Block until every other currently-participating domain has passed
      a point at which it cannot hold references obtained before this
      call: a read-section exit (EBR backend) or a safe point /
      quiescence announcement (QSBR backends).  The caller is excluded
      from the wait, so calling it from inside an op section — as the
      citrus two-children delete does, holding locks — does not
      self-deadlock; lock spinners publish safe points from their
      backoff loops ({!Sync.Quiesce}), so waiters and spinners cannot
      deadlock each other either. *)

  (** {1 Limbo access and stats} *)

  val limbo_cells : t -> int -> node Limbo.cell
  (** Slot [i]'s limbo entries, newest first, for [i] below
      [Sync.Slot.max_slots] (for RQ recovery of just-deleted nodes: a
      read path walks them in a recursion of its own and so allocates no
      closure).  Call inside an op section. *)

  val limbo_size : t -> int
  val reclaimed : t -> int
end

(** A backend is a reclaimer factory: one functor application per
    protected node type, sharing the backend's scheme and counters. *)
module type BACKEND = sig
  val backend_name : string

  module Make (N : sig
    type t
  end) : S with type node = N.t
end
