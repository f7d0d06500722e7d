(** The timestamp-labeling taxonomy of Section IV, as data.

    Labeling is the step that tags an object with a timestamp.  How atomic
    that step must be with respect to reading the timestamp determines how
    much an algorithm gains from hardware timestamps. *)

type granularity =
  | Coarse_global_lock
      (** read + label under a global lock (lock-based EBR-RQ): the lock,
          not the timestamp, is the bottleneck — TSC barely helps. *)
  | Fine_structural_lock
      (** label under only the operation's own node locks (Bundling):
          TSC removes the shared-counter traffic. *)
  | Helped_lock_free
      (** labeling delegated to whichever thread gets there first (vCAS):
          the finest granularity, largest TSC benefit. *)

type address_dependence =
  | Independent  (** only the timestamp's value is used *)
  | Validates_address
      (** correctness requires re-checking the timestamp word at its
          address (DCSS in lock-free EBR-RQ): TSC cannot be used at all. *)

type profile = {
  technique : string;
  granularity : granularity;
  advances_on : [ `Update | `Range_query ];
  address_dependence : address_dependence;
  progress : [ `Blocking | `Lock_free ];
}

val bundling : profile
val vcas : profile
val ebr_rq_lock_based : profile
val ebr_rq_lock_free : profile
val all : profile list

val tsc_applicable : profile -> bool
(** False exactly when labeling validates the timestamp's address. *)

val expected_benefit : profile -> [ `High | `Moderate | `Low | `None ]
(** The paper's qualitative prediction, used by benches to annotate
    output and by tests as an executable summary of Section IV. *)

type label_order = {
  order_name : string;
  compare_labels : int -> int -> int;
      (** total preorder on a provider's label/observation space; a zero
          result means "tie" — concurrent, not ordered *)
}
(** How two values from one provider's clock compare for precedence.
    The snapshot oracle orders timestamped events with this instead of
    raw integer comparison, because some providers decorate labels with
    bits that carry identity, not order.  Each [Workload.Targets]
    registry row names its provider's order. *)

val raw_order : label_order
(** Plain integer comparison: logical, delayed, multislot, hardware and
    the strict TSC wrapper. *)

val epoch_order : bits:int -> label_order
(** Compare [x asr bits]: values sharing the high bits tie.  With
    [~bits:8] this is the TL2 comparator — the low byte is the issuing
    domain's slot id, uniqueness decoration only. *)

val pp_profile : Format.formatter -> profile -> unit
val pp_granularity : Format.formatter -> granularity -> unit
