let depth = Hwts_obs.Registry.histogram "rangequery.bundle.depth"
let label_waits = Hwts_obs.Registry.counter "rangequery.bundle.label_waits"
let prunes = Hwts_obs.Registry.counter "rangequery.bundle.prunes"

module Waiting (C : Chain.CELL) = struct
  type 'a t = 'a C.t

  let label entry ts =
    assert (ts > 0);
    (* fault injection: stretch the install->label gap from the labeling
       side too *)
    Sync.Pause.point ();
    let was_pending = C.cas_label entry 0 ts in
    assert was_pending

  let resolve e =
    let ts = C.label e in
    if ts <> 0 then ts
    else begin
      Hwts_obs.Counter.incr label_waits;
      Hwts_trace.Span.enter Hwts_trace.Wait;
      let backoff = Sync.Backoff.make ~min_spins:1 () in
      while C.label e = 0 do
        Sync.Backoff.once backoff
      done;
      Hwts_trace.Span.exit Hwts_trace.Wait;
      C.label e
    end

  let walked hops = Hwts_obs.Histogram.record depth hops
  let pruned () = Hwts_obs.Counter.incr prunes
end

module Make (T : Hwts.Timestamp.S) = struct
  type 'a entry = 'a Chain.version

  module W = Waiting (Chain.Cell)

  (* A creation stamp only needs to predate the moment the bundle becomes
     reachable (its link label), so the fence-amortized floor serves: a
     stale-low stamp is invisible to any sound snapshot. *)
  let first target = Chain.first (T.read_floor ()) target
  let pending target = Chain.first 0 target

  let successor head target =
    assert (Chain.label head <> 0);
    Chain.successor head target

  let label = W.label
  let value = Chain.value

  let wait_label e =
    let ts = Chain.label e in
    if ts <> 0 then ts else W.resolve e

  (* The newest entry labeled <= [ts], or the chain's oldest entry when
     none is.  A module-level recursion: a range query calls this once per
     node it visits, and a nested [let rec] would allocate a closure each
     time.  [hops] counts entries visited; recorded as the chain depth a
     snapshot read had to traverse. *)
  let rec entry_at (e : _ entry) ts hops =
    if wait_label e <= ts || e.older == e then begin
      W.walked hops;
      e
    end
    else entry_at e.older ts (hops + 1)

  (* When the chain is exhausted the deepest entry is the creation value,
     valid since before this bundle became reachable at [ts]. *)
  let value_at head ts = (entry_at head ts 1).v
  let exists_at head ts = Chain.label (entry_at head ts 1) <= ts

  let prune_from head min_ts =
    if Chain.prune_from head min_ts then W.pruned ()

  let chain_of = Chain.chain_of
end
