(* The limbo core every backend shares: per-slot lists of retired nodes,
   each stamped at retirement and dropped once the backend's free bound
   has passed its stamp.  The backends differ only in where stamps and
   bounds come from — EBR: its epoch, freeing at [epoch - 2]; plain
   QSBR: its epoch, freeing at [epoch - 1] (quiescence announcements
   lag one epoch behind op announcements); the TSC variant: [rdtscp],
   freeing below the oldest online quiescence stamp less the skew.

   Only a slot's owner rewrites its list, so a plain get/set pair cannot
   lose concurrent entries; any domain may fold over a snapshot of all
   lists (the EBR-RQ recovery of just-deleted nodes). *)

type 'a entry = { node : 'a; stamp : int }

type 'a t = {
  lists : 'a entry list Atomic.t array; (* owner-mutated, anyone-read *)
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
    lists = Sync.Padding.atomic_array Sync.Slot.max_slots [];
    reclaimed = Atomic.make 0;
    on_free;
    limbo_len;
  }

let push t slot node ~stamp =
  Hwts_obs.Counter.incr retired_total;
  let cell = t.lists.(slot) in
  Atomic.set cell ({ node; stamp } :: Atomic.get cell)

(* Free every entry of [slot] with [bound - stamp > 0] (signed, so
   stamps may wrap) and return how many were dropped.  Counting the due
   entries allocates nothing; the list is rebuilt without them only when
   there are some. *)
let rec count_due bound due = function
  | [] -> due
  | e :: rest ->
    count_due bound (if bound - e.stamp > 0 then due + 1 else due) rest

let trim t slot ~bound =
  let cell = t.lists.(slot) in
  let entries = Atomic.get cell in
  if Hwts_obs.Config.enabled () then begin
    let total = List.length entries in
    Hwts_obs.Histogram.record t.limbo_len total;
    Hwts_obs.Watermark.observe limbo_hwm total
  end;
  let dropped = count_due bound 0 entries in
  if dropped > 0 then begin
    let live e =
      bound - e.stamp <= 0
      || begin
           (match t.on_free with None -> () | Some f -> f e.node);
           false
         end
    in
    Atomic.set cell (List.filter live entries);
    ignore (Atomic.fetch_and_add t.reclaimed dropped);
    Hwts_obs.Counter.add reclaimed_total dropped
  end;
  dropped

let fold t ~init ~f =
  let acc = ref init in
  let visit e = acc := f !acc e.node in
  for slot = 0 to Sync.Slot.max_slots - 1 do
    List.iter visit (Atomic.get t.lists.(slot))
  done;
  !acc

let size t = fold t ~init:0 ~f:(fun n _ -> n + 1)
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
