(* Shared across all instantiations: the registry get-or-creates by name,
   and the counters shard per domain internally. *)
let help_attempts = Hwts_obs.Registry.counter "rangequery.vcas.help_attempts"
let help_wins = Hwts_obs.Registry.counter "rangequery.vcas.help_wins"
let read_hops = Hwts_obs.Registry.counter "rangequery.vcas.read_hops"
let prunes = Hwts_obs.Registry.counter "rangequery.vcas.prunes"

module Helping (T : Hwts.Timestamp.S) (C : Chain.CELL) = struct
  type 'a t = 'a C.t

  (* Labeling by helping: any thread that needs the timestamp fills it in
     with the *current* clock; the first CAS wins and later helpers agree.
     [help_attempts] counts every encounter with an unlabeled version
     (including the installer labeling its own write); [help_wins] counts
     the CASes that actually assigned the label. *)
  let resolve version =
    if C.label version = 0 then begin
      if Hwts_obs.Config.enabled () then
        Hwts_obs.Counter.incr help_attempts;
      let now = T.read () in
      if C.cas_label version 0 now then
        if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr help_wins
    end;
    C.label version

  let publish version =
    (* fault injection: version installed but unlabeled — readers must
       help (the helping protocol under test) *)
    Sync.Pause.point ();
    ignore (resolve version)

  (* [read_hops] counts the versions a read stepped over to reach its
     value, not the one it stopped at. *)
  let walked hops =
    if Hwts_obs.Config.enabled () then Hwts_obs.Counter.add read_hops (hops - 1)

  let pruned () = Hwts_obs.Counter.incr prunes
end

module Make (T : Hwts.Timestamp.S) = struct
  type 'a version = 'a Chain.version

  module H = Helping (T) (Chain.Cell)

  let init_ts version = if Chain.label version = 0 then ignore (H.resolve version)

  (* A chain is named by its head, the newest version, which the caller
     keeps in a mutable field of its own node and CASes itself. *)

  (* The expected head is already labeled (readers label the heads they
     return), so a successor installed after it can only get an equal or
     later label. *)
  let successor = Chain.successor
  let publish = H.publish

  let labeled version =
    init_ts version;
    version

  let first v = labeled (Chain.first 0 v)
  let value = Chain.value
  let timestamp = Chain.label

  (* The chain walks are module-level recursions with explicit arguments:
     a [let rec] nested inside the reading function would allocate a
     closure on every call, and [value_at] runs once per node visited by a
     range query.  Returns the newest version labeled <= [ts], or the
     chain's oldest version when none qualifies (every version it meets is
     labeled by the [init_ts] call, so the caller can re-check the label). *)
  let rec version_at (version : _ version) ts hops =
    init_ts version;
    if Chain.label version <= ts || version.older == version then begin
      H.walked hops;
      version
    end
    else version_at version.older ts (hops + 1)

  let value_at head ts = (version_at head ts 1).v

  let prune_from version min_ts =
    if Chain.prune_from version min_ts then H.pruned ()

  let chain_of = Chain.chain_of
end
