module Make (T : Hwts.Timestamp.S) = struct
  type 'a entry = {
    ts : int Atomic.t; (* 0 = pending *)
    target : 'a;
    older : 'a entry option Atomic.t;
  }

  type 'a t = 'a entry Atomic.t

  let depth = Hwts_obs.Registry.histogram "rangequery.bundle.depth"
  let label_waits = Hwts_obs.Registry.counter "rangequery.bundle.label_waits"
  let prunes = Hwts_obs.Registry.counter "rangequery.bundle.prunes"

  let entry ts target older = { ts = Atomic.make ts; target; older = Atomic.make older }

  (* A creation stamp only needs to predate the moment the bundle becomes
     reachable (its link label), so the fence-amortized floor serves: a
     stale-low stamp is invisible to any sound snapshot. *)
  let make target = Atomic.make (entry (T.read_floor ()) target None)
  let make_pending target = Atomic.make (entry 0 target None)

  let prepare t target =
    let head = Atomic.get t in
    assert (Atomic.get head.ts <> 0);
    Atomic.set t (entry 0 target (Some head));
    (* fault injection: pending entry published, label not yet assigned —
       snapshot readers must wait, not guess *)
    Sync.Pause.point ()

  let label t ts =
    assert (ts > 0);
    (* fault injection: stretch the prepare->label gap from the labeling
       side too *)
    Sync.Pause.point ();
    let head = Atomic.get t in
    let was_pending = Atomic.compare_and_set head.ts 0 ts in
    assert was_pending

  let read t = (Atomic.get t).target

  let wait_label e =
    let ts = Atomic.get e.ts in
    if ts <> 0 then ts
    else begin
      Hwts_obs.Counter.incr label_waits;
      Hwts_trace.Span.enter Hwts_trace.Wait;
      let backoff = Sync.Backoff.make ~min_spins:1 () in
      let rec spin () =
        let ts = Atomic.get e.ts in
        if ts = 0 then begin
          Sync.Backoff.once backoff;
          spin ()
        end
        else ts
      in
      let ts = spin () in
      Hwts_trace.Span.exit Hwts_trace.Wait;
      ts
    end

  (* [hops] counts entries visited; recorded as the chain depth a snapshot
     read had to traverse. *)
  let rec entry_at hops e ts =
    let ets = wait_label e in
    if ets <= ts then begin
      Hwts_obs.Histogram.record depth hops;
      Some e.target
    end
    else
      match Atomic.get e.older with
      | None ->
        Hwts_obs.Histogram.record depth hops;
        None
      | Some o -> entry_at (hops + 1) o ts

  (* Allocation-free variant of [read_at_opt]: a range query calls this once
     per node it visits, so wrapping each result in [Some] (and the
     second chain walk the old exhausted-chain fallback did) showed up
     directly in words/op.  When the chain is exhausted the deepest entry
     is the creation value, valid since before this bundle became
     reachable at [ts]. *)
  let read_at t ts =
    let rec go hops e =
      let ets = wait_label e in
      if ets <= ts then begin
        Hwts_obs.Histogram.record depth hops;
        e.target
      end
      else
        match Atomic.get e.older with
        | None ->
          Hwts_obs.Histogram.record depth hops;
          e.target
        | Some o -> go (hops + 1) o
    in
    go 1 (Atomic.get t)

  let read_at_opt t ts = entry_at 1 (Atomic.get t) ts

  let prune t min_ts =
    let rec cut e =
      let ets = Atomic.get e.ts in
      if ets <> 0 && ets <= min_ts then begin
        if Hwts_obs.Config.enabled () && Atomic.get e.older <> None then
          Hwts_obs.Counter.incr prunes;
        Atomic.set e.older None
      end
      else
        match Atomic.get e.older with None -> () | Some o -> cut o
    in
    cut (Atomic.get t)

  let length t =
    let rec count acc e =
      match Atomic.get e.older with
      | None -> acc + 1
      | Some o -> count (acc + 1) o
    in
    count 0 (Atomic.get t)
end
