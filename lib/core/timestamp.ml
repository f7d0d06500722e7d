module type S = sig
  val name : string
  val is_hardware : bool
  val read : unit -> int
  val read_floor : unit -> int
  val advance : unit -> int
  val snapshot : unit -> int
end

module Logical () = struct
  let name = "logical"
  let is_hardware = false
  let raw = Atomic.make 1
  let read () = Atomic.get raw
  let read_floor = read
  let advance () = Atomic.fetch_and_add raw 1 + 1

  (* pre-increment value: labels assigned after this call read > s *)
  let snapshot () = Atomic.fetch_and_add raw 1
end

module Hardware = struct
  let name = "rdtscp"
  let is_hardware = true
  let read = Tsc.rdtscp_lfence
  let read_floor = Tsc.read_cached
  let advance = Tsc.rdtscp_lfence
  let snapshot = Tsc.rdtscp_lfence
end

(* Strictly increasing labels without a shared-word CAS on the common
   path: the low [shard_bits] bits of every label carry the issuing
   domain's slot id, so two domains can never produce the same label and
   no advance has to win a CAS against every other domain (the Jiffy
   tie-bump).  Within a domain, a stamp that does not exceed the previous
   one is bumped using purely domain-local state.  Cross-domain
   monotonicity normally comes from the invariant TSC itself: an advance
   that *begins* after another *completes* reads a strictly larger stamp
   (an advance spans many TSC ticks), so its packed label is strictly
   larger regardless of the id bits.  The shared word exists only to
   defend against skewed clocks: it is read once per advance, and written
   only while this domain's label is ahead of it.  The publish loop never
   re-reads the clock, and it converges: a failed CAS means another
   domain has already moved the word toward (or past) our label.

   Stamps count from the provider's first reading of [T], not from
   [T]'s zero: shifted left by [shard_bits], a raw TSC stamp leaves the
   int range once it passes 2^54 (about 99 days of count at 2.1 GHz
   since the machine's reset), so labels would wrap negative.  Rebased,
   that horizon runs from the provider's creation instead. *)
module Strict_sharded (T : S) () = struct
  let shard_bits = 8 (* Sync.Slot.max_slots = 256 *)
  let () = assert (1 lsl shard_bits >= Sync.Slot.max_slots)
  let name = T.name ^ "-strict"
  let is_hardware = false (* the skew-guard word is shared state *)
  let last_pub = Atomic.make 0
  let advances = Hwts_obs.Registry.counter "timestamp.strict.advances"
  let ties = Hwts_obs.Registry.counter "timestamp.strict.ties"
  let catchups = Hwts_obs.Registry.counter "timestamp.strict.catchups"

  (* Domain-local high-water stamp (pre-shift). *)
  let last_mine : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

  (* The provider's first reading: stamp 0.  A domain's first advance
     bumps a stamp at or below 0 to 1, so every label is above 0 (the
     consumers' "unlabeled"), and a stamp read on a core whose clock
     lags the first reading's never goes negative past the bump. *)
  let base = T.read ()

  (* Strictly above every published label, so a version labeled with
     [read] after a [snapshot] returned lands above that snapshot even
     when the clock has not moved since. *)
  let read () =
    max ((T.read () - base) lsl shard_bits) (Atomic.get last_pub + 1)

  let read_floor () =
    max ((T.read_floor () - base) lsl shard_bits) (Atomic.get last_pub + 1)

  (* Publish [label] for the skew guard; retry only while strictly ahead,
     so a failed CAS (someone published a larger value, or a value we are
     about to supersede) converges instead of storming. *)
  let rec publish label =
    let g = Atomic.get last_pub in
    if label > g && not (Atomic.compare_and_set last_pub g label) then
      publish label

  let advance () =
    Hwts_obs.Counter.incr advances;
    let id = Sync.Slot.my_slot () in
    let mine = Domain.DLS.get last_mine in
    let hw = T.advance () - base in
    let hw =
      if hw <= !mine then begin
        Hwts_obs.Counter.incr ties;
        !mine + 1
      end
      else hw
    in
    (* Skew guard: if the published global label is ahead of our stamp,
       step past it (shared READ only on this common path). *)
    let g = Atomic.get last_pub in
    let hw =
      if (hw lsl shard_bits) lor id <= g then begin
        Hwts_obs.Counter.incr catchups;
        (g asr shard_bits) + 1
      end
      else hw
    in
    mine := hw;
    let label = (hw lsl shard_bits) lor id in
    publish label;
    label

  (* strictly increasing labels make the advance itself a safe snapshot *)
  let snapshot = advance
end

(* Delayed-increment logical clock (flock [timestamp_read], Wei et al.):
   an advance loads the shared stamp, waits a tuned per-domain delay, and
   fetch-and-adds only if the stamp has not moved in the meantime — under
   contention most advances discover somebody else already paid for the
   increment and ride along, collapsing k racing FAAs into ~1.  The delay
   adapts per domain to the observed move rate: halve after a win (we are
   alone; stop waiting), double up to a cap after a loss or a move (the
   clock is busy; wait longer and freeload more).

   Labels tie across domains by design ([advance] returns [observed + 1],
   the post-increment value every racer of one increment shares), exactly
   like raw hardware stamps tie within a cycle.  Bracketing still holds:
   after an advance returns, the stamp is at least the label (our FAA, or
   the move that preempted it), so any later [read]/label is >= it; and
   per-domain sequences are strictly increasing.  [snapshot] returns the
   pre-increment value with the same delayed discipline, preserving the
   "labels after this call read > s" contract: whether we FAAd or the
   stamp moved, the stamp exceeds s by return time. *)
module Delayed () = struct
  let name = "delayed"
  let is_hardware = false
  let raw = Atomic.make 1
  let advances = Hwts_obs.Registry.counter "timestamp.delayed.advances"
  let wins = Hwts_obs.Registry.counter "timestamp.delayed.faa_wins"
  let rides = Hwts_obs.Registry.counter "timestamp.delayed.rides"

  (* the per-domain spin starts at 1 and adapts up to [delay_max] *)
  let delay_max = 256

  let delay_dls : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 1)

  let read () = Atomic.get raw
  let read_floor = read

  (* Returns the observed pre-increment stamp; the caller picks pre
     (snapshot) or post (advance) semantics. *)
  let observe () =
    let d = Domain.DLS.get delay_dls in
    let ts = Atomic.get raw in
    Sync.Backoff.spin !d;
    if Atomic.get raw = ts then begin
      if Atomic.compare_and_set raw ts (ts + 1) then begin
        Hwts_obs.Counter.incr wins;
        d := max 1 (!d / 2)
      end
      else begin
        (* lost the race for this very increment: it still happened *)
        Hwts_obs.Counter.incr rides;
        d := min delay_max (2 * !d)
      end
    end
    else begin
      Hwts_obs.Counter.incr rides;
      d := min delay_max (2 * !d)
    end;
    ts

  let advance () =
    Hwts_obs.Counter.incr advances;
    observe () + 1

  let snapshot () =
    Hwts_obs.Counter.incr advances;
    observe ()
end

(* Multi-slot summed logical clock (flock [timestamp_multiple]): the
   stamp is the sum of [k] = 4 slots and a domain
   fetch-and-adds only its own slot, so each slot takes 1/k of the
   writes (the slots are not padded, so they may share a cache line).
   Sums are not atomic, but every
   slot is monotone, so any sequential pass lies between the true sums at
   the pass's start and end — a later pass can never fall below an
   earlier label.  [read] and [snapshot] still double-collect (re-sum
   until two passes agree, bounded) so the value they report existed as
   an instantaneous sum, which keeps snapshot labels honest instants
   rather than mid-flight mixtures.

   Advances tie across domains (two concurrent advances can both observe
   sum s and label s+1); per-domain sequences are strictly increasing
   because the own-slot increment (or the move that skipped it) is
   visible to the domain's next pass. *)
module Multislot () = struct
  let name = "multislot"
  let is_hardware = false
  let k = 4
  let delay = 64 (* spin before the own-slot increment *)

  (* slot 0 starts at 1: sums never return the 0 consumers reserve as an
     "unlabeled" sentinel, mirroring [Logical]'s start at 1 *)
  let slots = Array.init k (fun _ -> Atomic.make 0)
  let () = Atomic.set slots.(0) 1
  let advances = Hwts_obs.Registry.counter "timestamp.multislot.advances"
  let rides = Hwts_obs.Registry.counter "timestamp.multislot.rides"

  let collect_retries =
    Hwts_obs.Registry.counter "timestamp.multislot.collect_retries"

  let my_idx () = Sync.Slot.my_slot () mod k

  let sum_once () =
    let t = ref 0 in
    for i = 0 to k - 1 do
      t := !t + Atomic.get slots.(i)
    done;
    !t

  (* Bounded double-collect: two equal consecutive passes prove the value
     was an instantaneous sum.  Give up after a few tries and return the
     last pass — still a valid monotone observation (between the true
     sums at its start and end), just not provably instantaneous. *)
  let rec collect prev tries =
    let s = sum_once () in
    if s = prev || tries = 0 then s
    else begin
      Hwts_obs.Counter.incr collect_retries;
      collect s (tries - 1)
    end

  let sum_stable () = collect (sum_once ()) 3

  let read () = sum_stable ()
  let read_floor () = sum_once ()

  (* Delayed-increment discipline on the own slot: observe the sum, wait,
     and add only if no other slot moved the total meanwhile. *)
  let observe () =
    let s1 = sum_stable () in
    Sync.Backoff.spin delay;
    if sum_once () = s1 then
      ignore (Atomic.fetch_and_add slots.(my_idx ()) 1)
    else Hwts_obs.Counter.incr rides;
    s1

  let advance () =
    Hwts_obs.Counter.incr advances;
    observe () + 1

  let snapshot () =
    Hwts_obs.Counter.incr advances;
    observe ()
end

(* TL2-style stamp (verlib [timestamp_tl2]): labels carry the issuing
   domain's slot id in the low 8 bits and an epoch number above, and the
   shared word moves only when an epoch is *bumped* — a domain whose last
   label already used the current epoch must bump (two of its labels may
   not collide), but a domain arriving at an epoch somebody else opened
   reuses it with no shared write at all.  Under k active domains each
   epoch amortizes one CAS over ~k labels; labels are globally unique
   (each (epoch, id) pair is issued at most once) and strictly increasing
   per domain.

   [snapshot] returns the *top* of the epoch it closes —
   [(epoch lsl 8) lor 255] — after bumping the shared stamp past it, so
   every label issued after the call is in a strictly later epoch and
   strictly above s in plain integer order even though earlier same-epoch
   labels from different domains are not mutually ordered by their id
   bits.  (Snapshots at epoch granularity are what make raw integer
   comparison sound for consumers; [Labeling.epoch_order ~bits:8] is the
   epoch-aware comparator for checkers that want the id bits masked.)

   [read] returns the raw stamp; [read_floor] serves a domain-local
   cached stamp refreshed every few calls — the "skip the shared read
   while the local cache is fresh" fast path, sound only for floors
   (stale-low is conservative).  [advance] itself must load the shared
   stamp every time: our consumers compare labels against snapshot labels
   without any read-time validation, so an advance on a cached stale
   epoch could slip a label at or below a snapshot already handed out. *)
module Tl2 () = struct
  let bits = 8 (* Sync.Slot.max_slots = 256 *)
  let () = assert (1 lsl bits >= Sync.Slot.max_slots)
  let mask = (1 lsl bits) - 1
  let name = "tl2"
  let is_hardware = false

  (* epoch 1, id 0; epoch 0 stays clear of consumers' 0 sentinel *)
  let stamp = Atomic.make (1 lsl bits)
  let advances = Hwts_obs.Registry.counter "timestamp.tl2.advances"
  let fastpath = Hwts_obs.Registry.counter "timestamp.tl2.fastpath"
  let bumps = Hwts_obs.Registry.counter "timestamp.tl2.bumps"

  (* last stamp value this domain labeled under: [ts = !mine] means we
     were the last to use (or install) this epoch and must bump.  0 means
     this domain has never labeled — its first advance must bump too,
     never reuse: slot ids are recycled ([Sync.Slot.with_slot]), so a
     fresh domain inheriting a slot could otherwise fast-path onto an
     epoch the slot's previous holder already labeled with the same id.
     The first bump opens an epoch strictly above everything the stamp
     had reached, which is above every label any predecessor issued. *)
  let last_ts : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

  type cache = { mutable v : int; mutable left : int }

  let floor_dls : cache Domain.DLS.key =
    Domain.DLS.new_key (fun () -> { v = 0; left = 0 })

  let read () = Atomic.get stamp

  let read_floor () =
    let c = Domain.DLS.get floor_dls in
    if c.left <= 0 then begin
      c.v <- Atomic.get stamp;
      c.left <- 32
    end
    else c.left <- c.left - 1;
    c.v

  let advance () =
    Hwts_obs.Counter.incr advances;
    let id = Sync.Slot.my_slot () land mask in
    let mine = Domain.DLS.get last_ts in
    let ts = Atomic.get stamp in
    if ts <> !mine && !mine <> 0 then begin
      (* somebody opened a fresh epoch since our last label: reuse it *)
      Hwts_obs.Counter.incr fastpath;
      mine := ts;
      (ts land lnot mask) lor id
    end
    else begin
      Hwts_obs.Counter.incr bumps;
      let next = (((ts asr bits) + 1) lsl bits) lor id in
      let installed =
        if Atomic.compare_and_set stamp ts next then next
        else Atomic.get stamp (* every install bumps: re-read is newer *)
      in
      mine := installed;
      (installed land lnot mask) lor id
    end

  let snapshot () =
    Hwts_obs.Counter.incr advances;
    let id = Sync.Slot.my_slot () land mask in
    let ts = Atomic.get stamp in
    let e = ts asr bits in
    (* close epoch [e]: on CAS failure somebody else already bumped past
       it, which serves equally well *)
    if Atomic.compare_and_set stamp ts (((e + 1) lsl bits) lor id) then
      Hwts_obs.Counter.incr bumps;
    (e lsl bits) lor mask
end

(* Label-acquisition tracing: every [advance]/[snapshot] — the
   linearization/labeling points the paper's phase analysis cares
   about — is bracketed in an [Acquire] span.  [read]/[read_floor] are
   left bare: they are observation, not acquisition, and some sit on
   paths hot enough that even the disabled branch would be rude. *)
module Traced (T : S) = struct
  let name = T.name
  let is_hardware = T.is_hardware
  let read = T.read
  let read_floor = T.read_floor

  let advance () =
    Hwts_trace.Span.enter Hwts_trace.Acquire;
    let v = T.advance () in
    Hwts_trace.Span.exit Hwts_trace.Acquire;
    v

  let snapshot () =
    Hwts_trace.Span.enter Hwts_trace.Acquire;
    let v = T.snapshot () in
    Hwts_trace.Span.exit Hwts_trace.Acquire;
    v
end

module Mock () = struct
  let name = "mock"
  let is_hardware = false
  let current = Atomic.make 1
  let frozen = Atomic.make false
  let set v = Atomic.set current v
  let freeze () = Atomic.set frozen true
  let thaw () = Atomic.set frozen false
  let read () = Atomic.get current
  let read_floor = read

  let advance () =
    if Atomic.get frozen then Atomic.get current
    else Atomic.fetch_and_add current 1

  let snapshot = advance
end
