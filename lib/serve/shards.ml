(* Per-op-class service metrics.  Latency is wall (monotonic ns) from
   routing to completion, so it includes queueing — the number a client
   of the service experiences, not just structure time. *)
let m_snapshots = Hwts_obs.Registry.counter "serve.rq.snapshots"
let m_rq_ops = Hwts_obs.Registry.counter "serve.rq.ops"
let m_rq_batch = Hwts_obs.Registry.histogram "serve.rq.batch"
let m_point_ops = Hwts_obs.Registry.counter "serve.point.ops"
let m_mget_ops = Hwts_obs.Registry.counter "serve.mget.ops"
let m_mget_frames = Hwts_obs.Registry.counter "serve.mget.frames"
let m_oversized = Hwts_obs.Registry.counter "serve.oversized"
let h_get = Hwts_obs.Registry.histogram "serve.latency.get"
let h_insert = Hwts_obs.Registry.histogram "serve.latency.insert"
let h_delete = Hwts_obs.Registry.histogram "serve.latency.delete"
let h_range = Hwts_obs.Registry.histogram "serve.latency.range"
let h_batch = Hwts_obs.Registry.histogram "serve.latency.batch"
let h_ping = Hwts_obs.Registry.histogram "serve.latency.ping"
let h_multiget = Hwts_obs.Registry.histogram "serve.latency.multiget"
let h_multirange = Hwts_obs.Registry.histogram "serve.latency.multirange"

(* The runtime's own counters, so a run's --metrics-out shows how many
   stop-the-world collections it paid for. *)
let () =
  let gc name f =
    Hwts_obs.Registry.gauge name (fun () ->
        float_of_int (f (Gc.quick_stat ())))
  in
  gc "gc.minor_collections" (fun s -> s.Gc.minor_collections);
  gc "gc.major_collections" (fun s -> s.Gc.major_collections);
  gc "gc.heap_words" (fun s -> s.Gc.heap_words);
  gc "gc.top_heap_words" (fun s -> s.Gc.top_heap_words);
  gc "gc.major_words" (fun s -> int_of_float s.Gc.major_words);
  gc "gc.promoted_words" (fun s -> int_of_float s.Gc.promoted_words)

(* Minor heap of each shard worker domain, in words (the runtime's
   default is 256k).  A worker's nursery pages count in the server's
   resident set, and each minor collection stops every domain: a larger
   nursery prefills faster and holds more memory.  Of 32k/64k/128k/256k
   on the served benchmark, 64k kept server_rss_mb below the default's
   on every workload at close to 128k's prefill time (EXPERIMENTS.md).
   [Gc.set] on one domain does not reach domains spawned after it, so
   each worker sets its own.  Inline, the routing domain drains the
   shards: [hwts-serve] sets its nursery, so tests keep their own. *)
let shard_minor_heap_words = 65_536

type task =
  | Point of Wire.request * (Wire.answer -> unit)
      (* one Get, Insert or Delete *)
  | Ops of { ops : Wire.points; lo : int; hi : int; t0 : int; k : unit -> unit }
      (* a batch's point ops on this shard, those with keys in [lo, hi],
         run in batch order, each answer marked in [ops]; [t0] is when
         the batch was routed *)
  | Sub of Sync.Key_run.t * int * int * (int -> unit)
      (* one shard-local subrange [lo, hi], collected into its part's
         own run, left strictly ascending; completion gets the label *)
  | MGet of int array * (int -> bool array -> unit)
      (* shard-local slice of a MultiGet; completion gets (label, bools),
         positionally matching the keys *)

(* A shard's tasks run in drains: its drainer takes every queued task
   at once and runs them through [run] ([process], then a quiescence
   point).  The drainer is the shard's worker domain, or, under the
   inline executor, whichever thread holds the executor lock. *)
type shard = {
  m : Mutex.t;
  c : Condition.t;
  q : task Queue.t;
  mutable stop : bool;
  batch : task Queue.t; (* the drain in progress; the drainer's alone *)
  run : task Queue.t -> unit;
  offline : unit -> unit;
  mutable pending : bool; (* inline: in [Inline.pending] *)
  allocated : int Atomic.t;
      (* [Gc.minor_words] of the shard's worker domain after its last
         drain; 0 inline *)
}

type t = {
  shards : shard array;
  span : int;
  key_space : int;
  structure_name : string;
  provider : string;
  reclaim_name : string;
  now : unit -> int;
  stopped : Mutex.t * bool ref;
  workers : unit Domain.t array; (* empty under the inline executor *)
}

let class_hist = function
  | Wire.Get _ -> h_get
  | Wire.Insert _ -> h_insert
  | Wire.Delete _ -> h_delete
  | Wire.Range _ -> h_range
  | Wire.Batch _ -> h_batch
  | Wire.Ping -> h_ping
  | Wire.MultiGet _ -> h_multiget
  | Wire.MultiRange _ -> h_multirange

(* A point answer is one of two constants: answering allocates nothing. *)
let answer b = if b then Wire.Whole (Wire.Bool true) else Wire.Whole (Wire.Bool false)

(* Drain-everything batcher: run the drained tasks' point ops in arrival
   order (per-shard FIFO is part of the service contract), then run the
   drained subranges and multiget slices under ONE snapshot acquisition
   when coalescing is on — the serving-layer form of the paper's
   many-ranges-per-timestamp kernel, generalized from ranges-only to
   every read-class task in the drain via a {!Hwts_snapshot.t} handle.
   With coalescing off each task acquires for itself, which is the A arm
   of the experiment.  The read-class tasks are visited in the drained
   queue itself, so no array or list of them is built. *)
let process (type a) (module S : Dstruct.Ordered_set.RQ with type t = a)
    (st : a) ~coalesce (batch : task Queue.t) =
  let apply op key =
    Hwts_obs.Counter.incr m_point_ops;
    if op = Wire.op_get then S.contains st key
    else if op = Wire.op_insert then S.insert st key
    else S.delete st key
  in
  let n = ref 0 and mgets = ref 0 in
  Queue.iter
    (function
      | Point (Wire.Get key, k) -> k (answer (apply Wire.op_get key))
      | Point (Wire.Insert key, k) -> k (answer (apply Wire.op_insert key))
      | Point (Wire.Delete key, k) -> k (answer (apply Wire.op_delete key))
      | Point (_, _) -> invalid_arg "Shards: not a point op"
      | Ops { ops; lo; hi; t0; k } ->
        for i = 0 to Wire.length ops - 1 do
          let key = Wire.key ops i in
          if key >= lo && key <= hi then begin
            let op = Wire.op ops i in
            Wire.set_mark ops i (if apply op key then Wire.yes else Wire.no);
            Hwts_obs.Histogram.record
              (if op = Wire.op_get then h_get else if op = Wire.op_insert then h_insert else h_delete)
              (Tsc.monotonic_ns () - t0)
          end
        done;
        k ()
      | Sub _ -> incr n
      | MGet (keys, _) ->
        Hwts_obs.Counter.incr m_mget_frames;
        Hwts_obs.Counter.add m_mget_ops (Array.length keys);
        incr mgets)
    batch;
  let n = !n in
  if n > 0 then begin
    Hwts_obs.Counter.add m_rq_ops n;
    Hwts_obs.Histogram.record m_rq_batch n
  end;
  if n > 0 || !mgets > 0 then begin
    (* multiget slices first, then subranges, each in arrival order *)
    let each_read ~mget ~sub =
      Queue.iter (function MGet (keys, k) -> mget keys k | _ -> ()) batch;
      Queue.iter (function Sub (run, lo, hi, k) -> sub run lo hi k | _ -> ()) batch
    in
    if coalesce then begin
      Hwts_obs.Counter.incr m_snapshots;
      Hwts_snapshot.with_snapshot
        (module S)
        st
        (fun snap ->
          let label = Hwts_snapshot.label snap in
          each_read
            ~mget:(fun keys k -> k label (Hwts_snapshot.multi_get snap keys))
            ~sub:(fun run lo hi k ->
              Hwts_snapshot.collect_into snap ~lo ~hi run;
              k label))
    end
    else
      each_read
        ~mget:(fun keys k ->
          Hwts_obs.Counter.incr m_snapshots;
          Hwts_snapshot.with_snapshot
            (module S)
            st
            (fun snap ->
              k (Hwts_snapshot.label snap) (Hwts_snapshot.multi_get snap keys)))
        ~sub:(fun run lo hi k ->
          Hwts_obs.Counter.incr m_snapshots;
          let label, () =
            Dstruct.Ordered_set.read_labeled ~snapshot:S.snapshot
              ~snap_label:S.snap_label ~snap_release:S.snap_release
              (fun st s ~lo ~hi -> S.collect_into st s ~lo ~hi run)
              st ~lo ~hi
          in
          Sync.Key_run.sort_unique run;
          k label)
  end;
  Queue.clear batch

(* One drain of [sh], whichever executor runs it; the caller holds
   [sh.m], which this releases.  Takes every queued task, runs them, then
   announces a quiescence point: between drains the drainer holds no
   reference into the structure (for QSBR, the only announcement it pays
   for).  [true] once the shard has stopped and nothing is left, checked
   under the lock so that every task enqueued before the stop flag is
   drained first. *)
let drain_locked sh =
  let finished = sh.stop && Queue.is_empty sh.q in
  Queue.transfer sh.q sh.batch;
  Mutex.unlock sh.m;
  (* fault injection: a drain parks here holding its tasks *)
  Sync.Pause.point ();
  sh.run sh.batch;
  finished

(* The worker executor: one domain per shard waits for tasks and drains. *)
let worker sh =
  let rec loop () =
    Mutex.lock sh.m;
    while Queue.is_empty sh.q && not sh.stop do
      Condition.wait sh.c sh.m
    done;
    let finished = drain_locked sh in
    Atomic.set sh.allocated (int_of_float (Gc.minor_words ()));
    if not finished then loop ()
  in
  loop ();
  sh.offline ()

(* The inline executor: tasks run on the thread that routes them, under
   one lock for every inline fleet in the process.  Structure operations
   keep per-domain state that assumes one thread per domain (the
   [Sync.Scratch] buffers, the domain's [Sync.Slot], rdtscp-strict's
   high-water stamp), so two systhreads of one domain must not
   interleave them: a second thread waits for the lock.  The holder's
   [exclusive] section routes, enqueueing only; its end drains every
   shard with queued tasks until none has any, taking each offline after
   its drain, since the next drain may run on another domain and a grace
   wait there must not wait on this one.  A submit made inside the
   section (a completion's, or a [Server] round's) only enqueues: the
   section's own drain picks it up. *)
module Inline = struct
  let lock = Mutex.create ()
  let owner = Atomic.make (-1) (* [Thread.id] of the holder *)

  (* the holder's: shards with queued tasks *)
  let pending : shard Queue.t = Queue.create ()

  let enqueued sh =
    if not sh.pending then begin
      sh.pending <- true;
      Queue.push sh pending
    end

  let rec drain_pending () =
    match Queue.take_opt pending with
    | None -> ()
    | Some sh ->
      sh.pending <- false;
      Mutex.lock sh.m;
      ignore (drain_locked sh);
      sh.offline ();
      drain_pending ()

  let release () =
    Atomic.set owner (-1);
    Mutex.unlock lock

  let exclusive f =
    let me = Thread.id (Thread.self ()) in
    if Atomic.get owner = me then f ()
    else begin
      Mutex.lock lock;
      Atomic.set owner me;
      match
        let v = f () in
        drain_pending ();
        v
      with
      | v ->
        release ();
        v
      | exception e ->
        release ();
        raise e
    end
end

let create ?(reclaim = `Ebr) ?executor ~structure ~provider ~shards ~key_space
    ~coalesce () =
  if shards <= 0 then invalid_arg "Shards.create: shards must be positive";
  if key_space <= 0 then
    invalid_arg "Shards.create: key_space must be positive";
  (* ONE instance call = one provider module; [shards] creates on it
     share the clock (see the .mli). *)
  let inst = Workload.Targets.instance ~reclaim structure provider in
  let (module S) = inst.Workload.Targets.structure in
  let span = (key_space + shards - 1) / shards in
  let mk_shard () =
    let st = S.create () in
    {
      m = Mutex.create ();
      c = Condition.create ();
      q = Queue.create ();
      stop = false;
      batch = Queue.create ();
      run =
        (fun batch ->
          process (module S) st ~coalesce batch;
          S.quiesce st);
      offline = (fun () -> S.offline st);
      pending = false;
      allocated = Atomic.make 0;
    }
  in
  let shard_arr = Array.init shards (fun _ -> mk_shard ()) in
  let inline =
    match executor with
    | Some `Inline -> true
    | Some `Domains -> false
    | None -> Domain.recommended_domain_count () = 1
  in
  let workers =
    if inline then [||]
    else
      Array.map
        (fun sh ->
          Domain.spawn (fun () ->
              Gc.set
                { (Gc.get ()) with minor_heap_size = shard_minor_heap_words };
              Sync.Slot.with_slot (fun _ -> worker sh)))
        shard_arr
  in
  {
    shards = shard_arr;
    span;
    key_space;
    structure_name = structure;
    provider = inst.Workload.Targets.provider;
    reclaim_name = inst.Workload.Targets.reclaim;
    now = inst.Workload.Targets.now;
    stopped = (Mutex.create (), ref false);
    workers;
  }

let structure_name t = t.structure_name
let provider t = t.provider
let reclaim t = t.reclaim_name
let shard_count t = Array.length t.shards
let key_space t = t.key_space
let worker_domains t = Array.length t.workers
let inline t = Array.length t.workers = 0
let worker_minor_words t i = Atomic.get t.shards.(i).allocated
let now t = t.now ()

let enqueue t i task =
  let sh = t.shards.(i) in
  Mutex.lock sh.m;
  if sh.stop then begin
    Mutex.unlock sh.m;
    false
  end
  else begin
    Queue.push task sh.q;
    if inline t then Inline.enqueued sh else Condition.signal sh.c;
    Mutex.unlock sh.m;
    true
  end

let shard_of_key t key = (key - 1) / t.span

(* Enqueue parts [0, n) of one request, [part i part_done] being the
   shard and task of part [i].  [finish ok] runs exactly once: when the
   last part has called [part_done], and a part a stopping shard refused
   counts in with every part after it, which is never enqueued.  [ok] is
   false if any part was refused, so no request is answered from only
   some of its parts. *)
let fan_out t n ~part finish =
  let remaining = Atomic.make n and ok = Atomic.make true in
  let count_in m =
    if Atomic.fetch_and_add remaining (-m) = m then finish (Atomic.get ok)
  in
  let part_done () = count_in 1 in
  let rec go i =
    if i < n then begin
      (* fault injection: some parts enqueued, the rest not yet *)
      if i > 0 then Sync.Pause.point ();
      let s, task = part i part_done in
      if enqueue t s task then go (i + 1)
      else begin
        Atomic.set ok false;
        count_in (n - i)
      end
    end
  in
  go 0

(* The answer at its exact size.  An answer too large for one frame is
   sized before anything is allocated, and answered with [Err]. *)
let sized a =
  let n = Wire.answer_size a in
  if n <= Wire.max_payload then (n, a)
  else begin
    Hwts_obs.Counter.incr m_oversized;
    let e = Wire.Err (Printf.sprintf "answer of %d bytes exceeds max_payload" n) in
    (Wire.response_size e, Wire.Whole e)
  end

(* Fan a clamped [lo, hi] out to its owning shards, each part collecting
   into a run of its own; completion fires on the last part, with the
   maximal part label and the parts in shard order (shards partition the
   key space ascending, and each part is sorted, so their concatenation
   is the sorted union). *)
let submit_range t lo hi k =
  let lo = max lo 1 and hi = min hi t.key_space in
  if lo > hi then k (Wire.Whole (Wire.Keys (t.now (), [||])))
  else begin
    let s0 = shard_of_key t lo in
    let n = shard_of_key t hi - s0 + 1 in
    let part_lo i = max lo (((s0 + i) * t.span) + 1)
    and part_hi i = min hi ((s0 + i + 1) * t.span) in
    let parts = Array.init n (fun i -> Sync.Key_run.make ~lo:(part_lo i) ~hi:(part_hi i))
    and labels = Array.make n min_int in
    fan_out t n
      ~part:(fun i part_done ->
        ( s0 + i,
          Sub
            ( parts.(i),
              part_lo i,
              part_hi i,
              fun label ->
                labels.(i) <- label;
                part_done () ) ))
      (fun ok ->
        if ok then k (Wire.Parts (Array.fold_left max min_int labels, parts))
        else k (Wire.Whole Wire.stopping))
  end

(* Fan a MultiGet out to the shards owning its in-range keys; out-of-range
   keys answer [false] without a submission (Get's semantics), positions
   are preserved, and the combined label is the maximum across the
   per-shard slice labels — comparable because the fleet shares one
   provider. *)
let submit_multiget t keys k =
  let nk = Array.length keys in
  if nk = 0 then k (Wire.Whole (Wire.Bools (t.now (), [||])))
  else begin
    let bools = Array.make nk false in
    let per_shard = Array.make (Array.length t.shards) [] in
    Array.iteri
      (fun i key ->
        if key >= 1 && key <= t.key_space then begin
          let s = shard_of_key t key in
          per_shard.(s) <- i :: per_shard.(s)
        end)
      keys;
    (* (shard, key positions in ascending order), for shards with keys *)
    let groups =
      Array.to_seq per_shard
      |> Seq.mapi (fun s idxs -> (s, Array.of_list (List.rev idxs)))
      |> Seq.filter (fun (_, idxs) -> idxs <> [||])
      |> Array.of_seq
    in
    let ng = Array.length groups in
    if ng = 0 then k (Wire.Whole (Wire.Bools (t.now (), bools)))
    else begin
      let labels = Array.make ng min_int in
      fan_out t ng
        ~part:(fun g part_done ->
          let s, idxs = groups.(g) in
          ( s,
            MGet
              ( Array.map (fun i -> keys.(i)) idxs,
                fun label bs ->
                  labels.(g) <- label;
                  Array.iteri (fun j i -> bools.(i) <- bs.(j)) idxs;
                  part_done () ) ))
        (fun ok ->
          k
            (Wire.Whole
               (if ok then Wire.Bools (Array.fold_left max min_int labels, bools)
                else Wire.stopping)))
    end
  end

(* Each range of a MultiRange reuses the Range fan-out, its answer read
   back as a client reads it; the frame completes when the last range
   does, under the maximal label, or with the first failure seen. *)
let submit_multirange t ranges k =
  let nr = Array.length ranges in
  if nr = 0 then k (Wire.Whole (Wire.Keyss (t.now (), [||])))
  else begin
    let results = Array.make nr [||] in
    let labels = Array.make nr 0 in
    let remaining = Atomic.make nr in
    let failure = Atomic.make None in
    Array.iteri
      (fun i (lo, hi) ->
        submit_range t lo hi (fun a ->
            (match Wire.read_back (sized a) with
            | Wire.Keys (label, keys) ->
              results.(i) <- keys;
              labels.(i) <- label
            | r -> Atomic.set failure (Some r));
            if Atomic.fetch_and_add remaining (-1) = 1 then
              k
                (Wire.Whole
                   (match Atomic.get failure with
                   | Some r -> r
                   | None -> Wire.Keyss (Array.fold_left max min_int labels, results)))))
      ranges
  end

let in_range t key = key >= 1 && key <= t.key_space

(* [k] of the sized answer, recording the latency since [t0] in [h]
   first *)
let timed h t0 k a =
  Hwts_obs.Histogram.record h (Tsc.monotonic_ns () - t0);
  k (sized a)

let rec route t req k =
  let t0 = Tsc.monotonic_ns () in
  let k = timed (class_hist req) t0 k in
  match req with
  | Wire.Ping -> k (Wire.Whole Wire.Pong)
  | Wire.Get key when not (in_range t key) -> k (Wire.Whole (Wire.Bool false))
  | Wire.Insert key | Wire.Delete key when not (in_range t key) ->
    k (Wire.Whole (Wire.Err (Printf.sprintf "key %d out of [1, %d]" key t.key_space)))
  | Wire.Get key | Wire.Insert key | Wire.Delete key ->
    if not (enqueue t (shard_of_key t key) (Point (req, k))) then
      k (Wire.Whole Wire.stopping)
  | Wire.Range (lo, hi) -> submit_range t lo hi k
  | Wire.MultiGet keys -> submit_multiget t keys k
  | Wire.MultiRange ranges -> submit_multirange t ranges k
  | Wire.Batch reqs -> batch t (Wire.pack reqs) reqs ~t0 k

(* A batch, packed ([reqs] its members when it came in-process; from
   the wire, every member is a point op).  Its in-range point ops go to
   each owning shard as ONE [Ops] task, through [fan_out]: if a stopping
   shard refuses a part, every one of these positions answers [Err],
   never a [Bool] from only some parts.  The other members answer, in
   order, from [others]: routed one at a time after the point tasks,
   each answer read back as a client reads it, so
   (per-shard FIFO, and a drain running its point ops before its reads)
   every read of the batch sees every point op of the batch. *)
and batch t ops reqs ~t0 k =
  let n = Wire.length ops and counts = Array.make (Array.length t.shards) 0 in
  (* member [i]'s shard if it is an in-range point op (any other member
     is packed with key 0), else -1 *)
  let owner i =
    let key = Wire.key ops i in
    if in_range t key then shard_of_key t key else -1
  in
  for i = 0 to n - 1 do
    let s = owner i in
    if s >= 0 then counts.(s) <- counts.(s) + 1
  done;
  let points = Array.fold_left ( + ) 0 counts in
  let others = Array.make (n - points) Wire.Pong and remaining = Atomic.make n in
  let answered m =
    if Atomic.fetch_and_add remaining (-m) = m then k (Wire.Marks (ops, others))
  in
  if n = 0 then k (Wire.Marks (ops, others));
  (* the owning shards, ascending; a shard's span is clamped to the key
     space, so an out-of-range key is in no task's [lo, hi] *)
  let owners =
    Array.of_list (List.filter (fun s -> counts.(s) > 0) (List.init (Array.length counts) Fun.id))
  in
  if owners <> [||] then
    fan_out t (Array.length owners)
      ~part:(fun g part_done ->
        let s = owners.(g) in
        let lo = (s * t.span) + 1 and hi = min ((s + 1) * t.span) t.key_space in
        (s, Ops { ops; lo; hi; t0; k = part_done }))
      (fun ok ->
        if not ok then
          for i = 0 to n - 1 do
            if owner i >= 0 then Wire.set_mark ops i Wire.refused
          done;
        answered points);
  let j = ref 0 in
  for i = 0 to n - 1 do
    if owner i < 0 then begin
      let j' = !j in
      incr j;
      Wire.set_mark ops i Wire.next;
      route t
        (if Array.length reqs = 0 then Wire.member ops i else reqs.(i))
        (fun a ->
          others.(j') <- Wire.read_back a;
          answered 1)
    end
  done

let exclusive t f = if inline t then Inline.exclusive f else f ()

let serve t incoming k =
  exclusive t (fun () ->
      match incoming with
      | Wire.Request req -> route t req k
      | Wire.Points ops ->
        let t0 = Tsc.monotonic_ns () in
        batch t ops [||] ~t0 (timed h_batch t0 k))

let submit t req k = serve t (Wire.Request req) (fun a -> k (Wire.read_back a))
let round t f = exclusive t f

let exec t req =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  submit t req (fun r ->
      Mutex.lock m;
      slot := Some r;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  let r = Option.get !slot in
  Mutex.unlock m;
  r

let stop t =
  let sm, stopped = t.stopped in
  Mutex.lock sm;
  let first = not !stopped in
  stopped := true;
  Mutex.unlock sm;
  if first then begin
    Array.iter
      (fun sh ->
        Mutex.lock sh.m;
        sh.stop <- true;
        Condition.broadcast sh.c;
        Mutex.unlock sh.m)
      t.shards;
    (* inline: wait out a drain in progress (each drain ends offline);
       what it leaves queued (a completion's submit) drains here *)
    if inline t then Inline.exclusive ignore
    else Array.iter Domain.join t.workers
  end
