(** Offline snapshot oracle over recorded histories.

    [verify] decides whether a history is explainable as a sequential
    integer-set execution in which every labeled range query takes effect
    exactly at its claimed snapshot timestamp (the criterion {!Lin_check}
    implements), and on failure ships a minimized counterexample. *)

type verdict =
  | Pass
  | Violation of {
      events : Lin_check.event list;  (** the full failing history *)
      minimized : Lin_check.event list;
          (** small failing sub-history around its culprit: the first
              event, in completion order, inconsistent with every event
              completed or still pending at its response *)
    }

val verify :
  ?initial:int list ->
  ?order:Hwts.Labeling.label_order ->
  Lin_check.event list ->
  verdict
(** [initial] is the prefilled abstract set contents; [order] the
    provider's label comparator (see {!Lin_check.check}). *)

val minimize :
  ?initial:int list ->
  ?order:Hwts.Labeling.label_order ->
  Lin_check.event list ->
  Lin_check.event list
(** First failing cut in completion order — the events completed by
    the culprit's response, plus those still pending at it, so a
    concurrent update that completes later can still explain an earlier
    answer — then greedy single-event shrinking with the culprit pinned:
    the first inconsistent observation always survives into the core.
    Returns the input unchanged if it already passes. *)

val explain : ?initial:int list -> Lin_check.event list -> string
(** Human-readable trace, one event per line, ticks rebased to the
    earliest invocation. *)
