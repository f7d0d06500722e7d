(* A Snapshot.t existentially packs an ordered set together with one of
   its snap handles, so one GADT match recovers enough typing to run the
   structure's lookup_at/collect_at against the captured cut.  All the
   amortization bookkeeping (read counts, the reads-per-acquire
   histogram, trace events) lives here, once, instead of in nine
   structures. *)

type t =
  | Snap : {
      ops : (module Dstruct.Ordered_set.RQ with type t = 's and type snap = 'p);
      st : 's;
      sn : 'p;
      label : int;
      mutable live : bool;
      mutable nreads : int;
    }
      -> t

let acquires = Hwts_obs.Registry.counter ~scope:"snapshot" "acquires"
let read_count = Hwts_obs.Registry.counter ~scope:"snapshot" "reads"

let reads_per_acquire =
  Hwts_obs.Registry.histogram ~scope:"snapshot" "reads_per_acquire"

(* aux payload of per-read Snapshot instants *)
let aux_get = 1
let aux_range = 2

let acquire (type a) (module S : Dstruct.Ordered_set.RQ with type t = a)
    (st : a) =
  Hwts_trace.Span.enter Hwts_trace.Snapshot;
  match S.snapshot st with
  | sn ->
    Hwts_obs.Counter.incr acquires;
    Snap
      {
        ops = (module S);
        st;
        sn;
        label = S.snap_label sn;
        live = true;
        nreads = 0;
      }
  | exception e ->
    Hwts_trace.Span.exit Hwts_trace.Snapshot;
    raise e

let label (Snap s) = s.label
let reads (Snap s) = s.nreads
let is_open (Snap s) = s.live

let close (Snap s) =
  if s.live then begin
    s.live <- false;
    let (module S) = s.ops in
    S.snap_release s.st s.sn;
    Hwts_obs.Histogram.record reads_per_acquire s.nreads;
    Hwts_trace.Span.exit_n Hwts_trace.Snapshot s.nreads
  end

let with_snapshot ops st f =
  let s = acquire ops st in
  Fun.protect ~finally:(fun () -> close s) (fun () -> f s)

let check_open (Snap s) op =
  if not s.live then invalid_arg ("Hwts_snapshot." ^ op ^ ": closed handle")

let record (Snap s) ~aux n =
  s.nreads <- s.nreads + n;
  Hwts_obs.Counter.add read_count n;
  Hwts_trace.instant ~aux Hwts_trace.Snapshot

let get (Snap s as h) key =
  check_open h "get";
  record h ~aux:aux_get 1;
  let (module S) = s.ops in
  S.lookup_at s.st s.sn key

let multi_get (Snap s as h) keys =
  check_open h "multi_get";
  record h ~aux:aux_get (Array.length keys);
  let (module S) = s.ops in
  Array.map (fun k -> S.lookup_at s.st s.sn k) keys

let keys (Snap s as h) ~lo ~hi =
  check_open h "keys";
  record h ~aux:aux_range 1;
  let (module S) = s.ops in
  S.collect_at s.st s.sn ~lo ~hi

let range h ~lo ~hi = Array.to_list (keys h ~lo ~hi)

let multi_range (Snap s as h) ranges =
  check_open h "multi_range";
  record h ~aux:aux_range (Array.length ranges);
  let (module S) = s.ops in
  (* seeded with the static [||], not with a young first answer: above
     256 ranges [Array.map]'s seed would force a minor collection *)
  let r = Array.make (Array.length ranges) [||] in
  Array.iteri (fun i (lo, hi) -> r.(i) <- S.collect_at s.st s.sn ~lo ~hi) ranges;
  r

(* Each per-range result is strictly ascending, so the cross-range union
   is a k-way merge; ranges are few, so pairwise merging is fine.  The
   merge writes into a block of the worst-case size and cuts it to the
   union's. *)
let merge_dedup xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  let r = Array.make (nx + ny) 0 in
  let rec go i j n =
    if i = nx then begin
      Array.blit ys j r n (ny - j);
      n + ny - j
    end
    else if j = ny then begin
      Array.blit xs i r n (nx - i);
      n + nx - i
    end
    else
      let x = xs.(i) and y = ys.(j) in
      r.(n) <- min x y;
      go (if x <= y then i + 1 else i) (if y <= x then j + 1 else j) (n + 1)
  in
  let n = go 0 0 0 in
  if n = nx + ny then r else Array.sub r 0 n

let multi_range_union h ranges =
  Array.fold_left merge_dedup [||] (multi_range h ranges)

let count h ~lo ~hi = Array.length (keys h ~lo ~hi)

let kth h ~lo ~hi k =
  let ks = keys h ~lo ~hi in
  if k >= 0 && k < Array.length ks then Some ks.(k) else None
