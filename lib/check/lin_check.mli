(** Linearizability checker for integer-set histories.

    The sequential specification is a set of small integers; events carry
    real-time intervals, and range queries carry their full observed
    result set plus (optionally) the snapshot timestamp the structure
    claimed.  A labeled range must linearize at its label: its effective
    interval collapses to [label, label], so {!check} decides the
    snapshot-at-timestamp criterion, not just plain linearizability.

    Multi-point ops ([Multi_get]/[Multi_range]) model one
    {!Hwts_snapshot.t} handle: a batch of membership probes (or range
    scans) that all claim to answer from ONE cut, carried as a single
    event with a single label.  The checker holds every constituent to
    the same sequential state — and, when labeled, pins them all at the
    one claimed instant.

    Capacity limits (both from the bitmask encodings): at most
    {!max_events} events per history, keys in [0, {!max_key}]. *)

type op =
  | Insert of int
  | Delete of int
  | Contains of int
  | Range of int * int
  | Multi_get of int list
  | Multi_range of (int * int) list

type result = Bool of bool | Keys of int list | Bools of bool list | Keyss of int list list

type event = {
  start_t : int;
  end_t : int;
  op : op;
  result : result;
  label : int option;
      (** [Range]/[Multi_get]/[Multi_range] only: the snapshot timestamp
          the structure claimed, in the same clock that stamped
          [start_t]/[end_t].  [Some l] with [l] outside
          [start_t, end_t] — or any label on a point operation — makes
          the history invalid. *)
}

val max_events : int
val max_key : int

val ev : ?label:int -> int -> int -> op -> result -> event
(** [ev start end_ op result] builds an event (test convenience). *)

val check :
  ?initial:int list -> ?order:Hwts.Labeling.label_order -> event list -> bool
(** Whether some total order of the events (respecting real-time
    precedence of their effective intervals) is a legal sequential set
    execution from [initial] producing exactly the observed results.
    Wing–Gong DFS with memoization; worst case exponential, fine at
    {!max_events} scale.  [order] (default {!Hwts.Labeling.raw_order})
    is the provider's label comparator: it decides both label-in-interval
    validity and precedence between timestamped events, so histories
    stamped by a TL2-style clock pass
    [~order:(Hwts.Labeling.epoch_order ~bits:8)]. *)
