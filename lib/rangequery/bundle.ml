let depth = Hwts_obs.Registry.histogram "rangequery.bundle.depth"
let label_waits = Hwts_obs.Registry.counter "rangequery.bundle.label_waits"
let prunes = Hwts_obs.Registry.counter "rangequery.bundle.prunes"

module Waiting (C : Link.CELL) = struct
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
