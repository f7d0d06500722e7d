(* The limbo core every backend shares: per-slot lists of retired nodes,
   each stamped at retirement and dropped once the backend's free bound
   has passed its stamp.  The backends differ only in where stamps and
   bounds come from — EBR: its epoch, freeing at [epoch - 2]; plain
   QSBR: its epoch, freeing at [epoch - 1] (quiescence announcements
   lag one epoch behind op announcements); the TSC variant: [rdtscp],
   freeing below the oldest online quiescence stamp less the skew.

   Only a slot's owner rewrites its list (it pushes at the head and cuts
   freed entries off the tail), so a plain get/set pair cannot lose
   concurrent entries; any domain may walk all lists (the EBR-RQ
   recovery of just-deleted nodes). *)

(* A slot's list, newest entry first.  Only the owner writes [next],
   and only to cut a freed tail off; a reader on another domain that
   races the cut sees the cell's old tail or [Nil], both fine since the
   cut entries are past their grace period.  A [Labeled] cell also
   carries a label its retirer gave it (EBR-RQ Citrus: the node's
   deletion time, which the node itself does not keep).  Freeing the
   cell negates the label: the poison a reader that raced the cut and
   still counts the entry checks for. *)
type 'a cell =
  | Nil
  | Cons of { node : 'a; stamp : int; mutable next : 'a cell }
  | Labeled of {
      node : 'a;
      stamp : int;
      mutable next : 'a cell;
      mutable label : int;
    }

type 'a t = {
  lists : 'a cell Atomic.t array; (* owner-mutated, anyone-read *)
  reclaimed : int Atomic.t;
  on_free : ('a -> unit) option;
      (* runs on the trimming domain as an entry is dropped; the
         poison-on-free tortures use it to mark nodes whose reuse after
         this point would be a use-after-free *)
  limbo_len : Hwts_obs.Histogram.t;
}

(* Backend-neutral series, so bench.reclaim compares like with like. *)
let retired_total = Hwts_obs.Registry.counter "reclaim.retired"
let reclaimed_total = Hwts_obs.Registry.counter "reclaim.reclaimed"
let limbo_hwm = Hwts_obs.Registry.watermark "reclaim.limbo_hwm"

let create ?on_free ~limbo_len () =
  {
    lists = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make Nil);
    reclaimed = Atomic.make 0;
    on_free;
    limbo_len;
  }

let push t slot node ~stamp =
  Hwts_obs.Counter.incr retired_total;
  let cell = t.lists.(slot) in
  Atomic.set cell (Cons { node; stamp; next = Atomic.get cell })

let push_labeled t slot node ~stamp ~label =
  Hwts_obs.Counter.incr retired_total;
  let cell = t.lists.(slot) in
  Atomic.set cell (Labeled { node; stamp; next = Atomic.get cell; label })

let cells t slot = Atomic.get t.lists.(slot)

let rec length n = function
  | Nil -> n
  | Cons { next; _ } | Labeled { next; _ } -> length (n + 1) next

(* The last entry of [cells] that is not due under [bound] ([bound -
   stamp > 0], signed, so stamps may wrap), or [last] when none is. *)
let rec last_live bound last = function
  | Nil -> last
  | (Cons { stamp; next; _ } | Labeled { stamp; next; _ }) as cell ->
    last_live bound (if bound - stamp > 0 then last else cell) next

let rec free on_free dropped = function
  | Nil -> dropped
  | Cons c ->
    (match on_free with None -> () | Some f -> f c.node);
    free on_free (dropped + 1) c.next
  | Labeled c ->
    c.label <- -c.label;
    (match on_free with None -> () | Some f -> f c.node);
    free on_free (dropped + 1) c.next

(* Free every entry of [slot] that is due under [bound] and return how
   many were dropped.  A slot's stamps are pushed in nondecreasing order,
   so its due entries are the tail behind the last live one: cutting
   that tail off frees them all without copying a cell.  (Were the order
   ever broken, an entry due before a live one would only wait for a
   later trim; no live entry is freed.) *)
let trim t slot ~bound =
  let cell = t.lists.(slot) in
  let entries = Atomic.get cell in
  if Hwts_obs.Config.enabled () then begin
    let total = length 0 entries in
    Hwts_obs.Histogram.record t.limbo_len total;
    Hwts_obs.Watermark.observe limbo_hwm total
  end;
  let tail =
    match last_live bound Nil entries with
    | Nil ->
      Atomic.set cell Nil;
      entries
    | Cons c ->
      let tail = c.next in
      c.next <- Nil;
      tail
    | Labeled c ->
      let tail = c.next in
      c.next <- Nil;
      tail
  in
  let dropped = free t.on_free 0 tail in
  if dropped > 0 then begin
    ignore (Atomic.fetch_and_add t.reclaimed dropped);
    Hwts_obs.Counter.add reclaimed_total dropped
  end;
  dropped

let size t =
  let n = ref 0 in
  for slot = 0 to Sync.Slot.max_slots - 1 do
    n := length !n (cells t slot)
  done;
  !n
let reclaimed t = Atomic.get t.reclaimed

(* The epoch-advance test of both epoch-stamped schemes: every slot is
   either idle or announcing [epoch].  Only the idle sentinel differs —
   0 for an EBR slot outside any op section, [Qsbr.offline_stamp] for
   an offline QSBR domain. *)
let all_announced ~idle announce epoch =
  let all = ref true in
  for slot = 0 to Array.length announce - 1 do
    let a = Atomic.get announce.(slot) in
    if a <> idle && a <> epoch then all := false
  done;
  !all
