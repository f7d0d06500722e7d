module Make (T : Hwts.Timestamp.S) = struct
  (* The label lives in the version itself, as its first field, so a
     traversal step touches the head and the version and nothing else.
     [ts] is never read or written as a record field after allocation:
     only through [label] and [cas_label] below.  [older] is a plain
     field; a version whose [older] is itself ends the chain, so no
     option and no [Atomic.t] sits between two links. *)
  type 'a version = {
    mutable ts : int; (* 0 = not yet labeled *)
    v : 'a;
    mutable older : 'a version;
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

  (* ---- heads: the newest version of a chain, kept wherever the caller
     likes (a cell below, or a mutable field of the caller's node) ---- *)

  let first v =
    let rec version = { ts = 0; v; older = version } in
    init_ts version;
    version

  (* The expected head is already labeled (readers label the heads they
     return), so a successor installed after it can only get an equal or
     later label. *)
  let successor expected v = { ts = 0; v; older = expected }

  let publish version =
    (* fault injection: version installed but unlabeled — readers must
       help (the helping protocol under test) *)
    Sync.Pause.point ();
    init_ts version

  let labeled version =
    init_ts version;
    version

  let value version = version.v
  let timestamp = label

  (* The chain walks are module-level recursions with explicit arguments:
     a [let rec] nested inside the reading function would allocate a
     closure on every call, and [read_at] runs once per node visited by a
     range query.  Returns the newest version labeled <= [ts], or the
     chain's oldest version when none qualifies (every version it meets is
     labeled by the [init_ts] call, so the caller can re-check the label). *)
  let found version hops =
    if Hwts_obs.Config.enabled () then Hwts_obs.Counter.add read_hops hops;
    version

  let rec version_at version ts hops =
    init_ts version;
    if label version <= ts then found version hops
    else
      let older = version.older in
      if older == version then found version hops
      else version_at older ts (hops + 1)

  let value_at head ts = (version_at head ts 0).v

  (* keep the newest version labeled <= min_ts; sever everything older.
     Pending (ts = 0) versions are newer than any labeled one, so keep
     walking. *)
  let rec prune_from version min_ts =
    let ts = label version in
    let older = version.older in
    if older == version then ()
    else if ts <> 0 && ts <= min_ts then begin
      if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr prunes;
      version.older <- version
    end
    else prune_from older min_ts

  let chain_of head =
    let rec count acc version =
      let older = version.older in
      if older == version then acc else count (acc + 1) older
    in
    count 1 head

  (* ---- cells: a head in its own [Atomic.t] ---- *)

  let make v = Atomic.make (first v)
  let head t = labeled (Atomic.get t)
  let read t = (head t).v

  let cas_with t expected v =
    if Atomic.get t == expected then begin
      let candidate = successor expected v in
      if Atomic.compare_and_set t expected candidate then begin
        publish candidate;
        Some candidate
      end
      else None
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
  let read_at t ts = value_at (Atomic.get t) ts
  let prune t min_ts = prune_from (Atomic.get t) min_ts
  let chain_length t = chain_of (Atomic.get t)
end
