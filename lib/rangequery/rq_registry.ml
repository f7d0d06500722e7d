(* Multiset of announcements held by one slot's owning domain.  A domain
   can hold several at once — a long-lived [Snapshot.t] handle pinning
   history while ordinary RQs come and go, or several open handles — and
   the published slot word must stay the minimum of all of them for the
   slot's whole occupancy, not the most recent announcement.  Mutated
   only by the owning domain; scanners read the atomic slot word, never
   this. *)
type pins = { mutable ts : int array; mutable n : int }

type t = {
  slots : int Atomic.t array; (* per slot: 0 = inactive, else the minimum
                                 announced ts over the owner's open pins *)
  pins : pins array; (* domain-local pin multiset behind each slot *)
  active : int Atomic.t; (* accurate count of announced RQs: the update-path
                            early-exit reads only this word when no RQ is in
                            flight (the common case in update-heavy mixes) *)
  hw_slot : int Atomic.t; (* scan bound: 1 + highest slot that ever announced *)
  cached_floor : int Atomic.t; (* 0 = not yet computed; else a lower bound
                                  on every current and future announcement *)
  tick : int ref Domain.DLS.key; (* per-domain ops since last refresh *)
}

let hwm = Hwts_obs.Registry.watermark "rangequery.rq.active_hwm"
let refreshes = Hwts_obs.Registry.counter "rangequery.rq.floor_refreshes"
let early_exits = Hwts_obs.Registry.counter "rangequery.rq.early_exits"
let slot_scans = Hwts_obs.Registry.counter "rangequery.rq.slot_scans"

(* Staleness knob for the cached floor: a full slot scan at most once per
   this many update operations per domain.  1 = scan every time (the
   uncached behavior). *)
let refresh_period_state = Atomic.make 64
let refresh_period () = Atomic.get refresh_period_state

let set_refresh_period n =
  assert (n >= 1);
  Atomic.set refresh_period_state n

let create () =
  {
    slots = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make 0);
    pins =
      Array.init Sync.Slot.max_slots (fun _ -> { ts = Array.make 4 0; n = 0 });
    active = Atomic.make 0;
    hw_slot = Atomic.make 0;
    cached_floor = Atomic.make 0;
    tick = Domain.DLS.new_key (fun () -> ref 0);
  }

(* A slot holding [pending_ts] is an announcement whose snapshot time is
   not yet known; any scan that sees it computes a floor <= 1, below every
   real label, so nothing the pending RQ could need is pruned. *)
let pending_ts = 1

let push p v =
  if p.n = Array.length p.ts then begin
    let bigger = Array.make (2 * p.n) 0 in
    Array.blit p.ts 0 bigger 0 p.n;
    p.ts <- bigger
  end;
  p.ts.(p.n) <- v;
  p.n <- p.n + 1

let min_pins p =
  let acc = ref 0 in
  for i = 0 to p.n - 1 do
    if !acc = 0 || p.ts.(i) < !acc then acc := p.ts.(i)
  done;
  !acc

(* Announce-then-stamp, in that order.  Publishing intent (the increment
   and the [pending_ts] store) *before* reading the clock closes the race
   the old enter-with-a-prepared-timestamp API had: a scanner either sees
   the announcement (and stays at floor <= 1 until the stamp lands), or
   completed its scan before the sentinel store — in which case [read]
   below, ordered after that store, returns a value >= the label the
   scanner used as its floor, so the floor it computed cannot cut history
   this RQ still needs. *)
let announce t ~read =
  (* Announcement + snapshot-stamp acquisition is the RQ-side label
     acquisition phase; span it as such. *)
  Hwts_trace.Span.enter Hwts_trace.Acquire;
  ignore (Atomic.fetch_and_add t.active 1);
  (* fault injection: counted but not yet visible in any slot *)
  Sync.Pause.point ();
  let slot = Sync.Slot.my_slot () in
  (* [prev] is the minimum over pins this domain already holds (0 when
     none) — an open snapshot handle, say, while this announce is an RQ
     running under it.  The pending sentinel overwrites it for the stamp
     window (forcing scanners fully conservative, which also covers a
     skewed clock handing out a stamp below [prev]), and the final store
     must restore the minimum over ALL open pins, not just this one. *)
  let prev = Atomic.get t.slots.(slot) in
  Atomic.set t.slots.(slot) pending_ts;
  (* fault injection: pending-sentinel window before the stamp lands *)
  Sync.Pause.point ();
  let rec grow () =
    let hw = Atomic.get t.hw_slot in
    if slot >= hw && not (Atomic.compare_and_set t.hw_slot hw (slot + 1)) then
      grow ()
  in
  grow ();
  let ts =
    try read ()
    with e ->
      (* a raising clock must not leave a pending announcement pinning
         every floor at 1 forever — but pins already held stay published *)
      Atomic.set t.slots.(slot) prev;
      ignore (Atomic.fetch_and_add t.active (-1));
      Hwts_trace.Span.exit Hwts_trace.Acquire;
      raise e
  in
  assert (ts > 0);
  push t.pins.(slot) ts;
  Atomic.set t.slots.(slot) (if prev > 0 && prev < ts then prev else ts);
  (* Fold the announcement into the cached floor.  Under a monotone clock
     the cache can never exceed a later announcement anyway (every cached
     value is <= the clock at the time it was computed); this CAS loop
     additionally covers skewed hardware clocks, at a cost paid only on
     the rare RQ path. *)
  let rec lower () =
    let c = Atomic.get t.cached_floor in
    if c <> 0 && ts < c && not (Atomic.compare_and_set t.cached_floor c ts)
    then lower ()
  in
  lower ();
  if Hwts_obs.Config.enabled () then
    Hwts_obs.Watermark.observe hwm (Atomic.get t.active);
  Hwts_trace.Span.exit Hwts_trace.Acquire;
  ts

(* Retiring one pin republishes the minimum of the pins that remain (0
   when none) — the slot may *rise* when the oldest pin retires, and must
   not drop to 0 while a long-held snapshot still pins it. *)
let retire_pin t slot =
  let p = t.pins.(slot) in
  Atomic.set t.slots.(slot) (min_pins p);
  (* fault injection: slot retired but the count still holds scanners back *)
  Sync.Pause.point ();
  ignore (Atomic.fetch_and_add t.active (-1))

(* A domain may close handle A after acquiring B, so the pin to retire
   is identified by its stamp value, not LIFO position; the search starts
   at the newest pin, so the common LIFO release is O(1).  Silently
   ignores a stamp not held (the handle layer guarantees at-most-once
   release).  [find_pin] is a top-level recursion so the release on every
   range query allocates no closure. *)
let rec find_pin p ts i =
  if i < 0 then -1 else if p.ts.(i) = ts then i else find_pin p ts (i - 1)

let release t ts =
  let slot = Sync.Slot.my_slot () in
  let p = t.pins.(slot) in
  let i = find_pin p ts (p.n - 1) in
  if i >= 0 then begin
    p.ts.(i) <- p.ts.(p.n - 1);
    p.n <- p.n - 1;
    retire_pin t slot
  end

(* The snapshot handle of every registry-backed structure: the guard
   stamp occupies the domain's announce slot — the pruning floor — for
   the handle's lifetime, and [label] is the cut all reads resolve
   against. *)
type snap = { guard : int; label : int; mutable live : bool }

let snapshot t ~floor ~label =
  let guard = announce t ~read:floor in
  match label () with
  | label -> { guard; label; live = true }
  | exception e ->
    release t guard;
    raise e

let snap_label s = s.label

let snap_release t s =
  if s.live then begin
    s.live <- false;
    release t s.guard
  end

(* Zero announced RQs is the common case for update-heavy mixes: one load
   of [active] then answers without touching any slot, and the answer —
   the caller's own fresh label — is exact, not a cached lag.  (Safety of
   the early exit: if this load returns 0, no announce had completed its
   increment, so any in-flight announce reads its snapshot time after
   this point and gets a value >= [default].)  Otherwise the scan is
   bounded by the announcement high-water slot instead of the full
   [Slot.max_slots] array. *)
let min_active t ~default =
  if Atomic.get t.active = 0 then begin
    if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr early_exits;
    default
  end
  else begin
    if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr slot_scans;
    let acc = ref default in
    for slot = 0 to Atomic.get t.hw_slot - 1 do
      let ts = Atomic.get t.slots.(slot) in
      if ts > 0 && ts < !acc then acc := ts
    done;
    !acc
  end

(* Any value [min_active] returns stays a valid pruning floor forever: it is
   <= every announcement in the scan, and <= the caller's own label, which
   is <= the clock — so every *later* announcement (a fresh clock read) is
   >= it too.  Hence racing refreshes may store either result and the cache
   only ever *lags* the true minimum. *)
let refresh t ~default =
  if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr refreshes;
  let fresh = min_active t ~default in
  Atomic.set t.cached_floor fresh;
  fresh

let min_active_cached t ~default =
  if Atomic.get t.active = 0 then begin
    (* Exact, not stale: skip the cache entirely so version chains and
       bundles are pruned right up to the caller's own label whenever no
       RQ is in flight. *)
    if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr early_exits;
    default
  end
  else
    let period = Atomic.get refresh_period_state in
    if period <= 1 then min_active t ~default
    else begin
      let tick = Domain.DLS.get t.tick in
      incr tick;
      let cached = Atomic.get t.cached_floor in
      if cached = 0 || !tick >= period then begin
        tick := 0;
        refresh t ~default
      end
      else min cached default
    end

let active_count t = Atomic.get t.active
