module Make (T : Hwts.Timestamp.S) = struct
  (* The label lives in the version itself, as its first field, so a
     traversal step touches the cell and the version and nothing else.
     [ts] is never read or written as a record field after allocation:
     only through [label] and [cas_label] below. *)
  type 'a version = {
    mutable ts : int; (* 0 = not yet labeled *)
    v : 'a;
    older : 'a version option Atomic.t;
  }

  type 'a t = 'a version Atomic.t

  (* Typed atomic access to a version's label.  [%atomic_load] and
     [%atomic_cas] are the primitives behind [Atomic.get] and
     [Atomic.compare_and_set]; they act on field 0 of the block they are
     given, and an [Atomic.t] is nothing but a one-field mutable block.
     Applied to a version they therefore read and CAS [ts] with the same
     ordering guarantees as an [int Atomic.t].  The field holds an
     immediate, so the CAS's write barrier records nothing, and typing
     the externals at ['a version -> int] keeps them off every other
     field and every other type. *)
  external label : 'a version -> int = "%atomic_load"
  external cas_label : 'a version -> int -> int -> bool = "%atomic_cas"

  (* Shared across all instantiations: the registry get-or-creates by name,
     and the counters shard per domain internally. *)
  let help_attempts = Hwts_obs.Registry.counter "rangequery.vcas.help_attempts"
  let help_wins = Hwts_obs.Registry.counter "rangequery.vcas.help_wins"
  let read_hops = Hwts_obs.Registry.counter "rangequery.vcas.read_hops"
  let prunes = Hwts_obs.Registry.counter "rangequery.vcas.prunes"

  (* Labeling by helping: any thread that needs the timestamp fills it in
     with the *current* clock; the first CAS wins and later helpers agree.
     [help_attempts] counts every encounter with an unlabeled version
     (including the installer labeling its own write); [help_wins] counts
     the CASes that actually assigned the label. *)
  let init_ts version =
    if label version = 0 then begin
      if Hwts_obs.Config.enabled () then
        Hwts_obs.Counter.incr help_attempts;
      let now = T.read () in
      if cas_label version 0 now then
        if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr help_wins
    end

  let make v =
    let version = { ts = 0; v; older = Atomic.make None } in
    init_ts version;
    Atomic.make version

  let head t =
    let version = Atomic.get t in
    init_ts version;
    version

  let value version = version.v
  let timestamp = label
  let read t = (head t).v

  let cas_with t expected v =
    (* The expected head is already labeled (head labels), so a new version
       installed after it can only get an equal or later label. *)
    let candidate =
      { ts = 0; v; older = Atomic.make (Some expected) }
    in
    if Atomic.get t == expected && Atomic.compare_and_set t expected candidate
    then begin
      (* fault injection: version installed but unlabeled — readers must
         help (the helping protocol under test) *)
      Sync.Pause.point ();
      init_ts candidate;
      Some candidate
    end
    else None

  let cas t expected v = cas_with t expected v <> None

  let write_with t v =
    match cas_with t (head t) v with
    | Some version -> version
    | None ->
      (* Contended: back off between retries so the winning writer's line
         is not hammered.  The backoff state is allocated only on this
         slow path.  The whole burst is one [Cas_retry] span whose end
         event carries the retry count. *)
      Hwts_trace.Span.enter Hwts_trace.Cas_retry;
      let backoff = Sync.Backoff.make ~min_spins:4 ~max_spins:1024 () in
      let rec retry n =
        Sync.Backoff.once backoff;
        match cas_with t (head t) v with
        | Some version ->
          Hwts_trace.Span.exit_n Hwts_trace.Cas_retry n;
          version
        | None -> retry (n + 1)
      in
      retry 1

  let write t v = ignore (write_with t v)

  (* The chain walks are module-level recursions with explicit arguments:
     a [let rec] nested inside the reading function would allocate a
     closure on every call, and [read_at] runs once per node visited by a
     range query.  Returns the newest version labeled <= [ts], or the
     chain's oldest version when none qualifies (every version it meets is
     labeled by the [init_ts] call, so the caller can re-check the label). *)
  let rec version_at version ts hops =
    init_ts version;
    if label version <= ts then begin
      if Hwts_obs.Config.enabled () then Hwts_obs.Counter.add read_hops hops;
      version
    end
    else
      match Atomic.get version.older with
      | None ->
        if Hwts_obs.Config.enabled () then Hwts_obs.Counter.add read_hops hops;
        version
      | Some older -> version_at older ts (hops + 1)

  let read_at t ts = (version_at (Atomic.get t) ts 0).v

  let read_at_opt t ts =
    let version = version_at (Atomic.get t) ts 0 in
    if label version <= ts then Some version.v else None

  (* keep the newest version labeled <= min_ts; sever everything older.
     Pending (ts = 0) versions are newer than any labeled one, so keep
     walking. *)
  let rec cut version min_ts =
    let ts = label version in
    if ts <> 0 && ts <= min_ts then begin
      if Hwts_obs.Config.enabled () && Atomic.get version.older <> None then
        Hwts_obs.Counter.incr prunes;
      Atomic.set version.older None
    end
    else
      match Atomic.get version.older with
      | None -> ()
      | Some older -> cut older min_ts

  let prune t min_ts = cut (Atomic.get t) min_ts

  let chain_length t =
    let rec count acc version =
      match Atomic.get version.older with
      | None -> acc
      | Some older -> count (acc + 1) older
    in
    count 1 (Atomic.get t)
end
