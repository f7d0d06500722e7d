(* Per-op-class service metrics.  Latency is wall (monotonic ns) from
   routing to completion, so it includes queueing — the number a client
   of the service experiences, not just structure time. *)
let m_snapshots = Hwts_obs.Registry.counter "serve.rq.snapshots"
let m_rq_ops = Hwts_obs.Registry.counter "serve.rq.ops"
let m_rq_batch = Hwts_obs.Registry.histogram "serve.rq.batch"
let m_point_ops = Hwts_obs.Registry.counter "serve.point.ops"
let m_mget_ops = Hwts_obs.Registry.counter "serve.mget.ops"
let m_mget_frames = Hwts_obs.Registry.counter "serve.mget.frames"
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
  gc "gc.heap_words" (fun s -> s.Gc.heap_words)

(* Minor heap of each shard worker domain, in words (the runtime's
   default is 256k).  A worker's nursery pages count in the server's
   resident set, and each minor collection stops every domain: a larger
   nursery prefills faster and holds more memory.  Of 32k/64k/128k/256k
   on the served benchmark, 64k kept server_rss_mb below the default's
   on every workload at close to 128k's prefill time (EXPERIMENTS.md).
   [Gc.set] on one domain does not reach domains spawned after it, so
   each worker sets its own. *)
let shard_minor_heap_words = 65_536

type task =
  | Point of Wire.request * (Wire.response -> unit)
      (* one Get, Insert or Delete *)
  | Points of {
      reqs : Wire.request array;
      at : int array;
      answers : Wire.response array;
      t0 : int;
      k : unit -> unit;
    }
      (* a batch's point ops on this shard: [reqs.(i)] for each [i] in
         [at], in that order, each answer written to [answers.(i)]; [t0]
         is when the batch was routed *)
  | Sub of int * int * (int -> int array -> unit)
      (* one shard-local subrange; completion gets (label, keys) *)
  | MGet of int array * (int -> bool array -> unit)
      (* shard-local slice of a MultiGet; completion gets (label, bools),
         positionally matching the keys *)

type shard = {
  m : Mutex.t;
  c : Condition.t;
  q : task Queue.t;
  mutable stop : bool;
}

type t = {
  shards : shard array;
  span : int;
  key_space : int;
  coalesce : bool;
  structure_name : string;
  provider : string;
  reclaim_name : string;
  now : unit -> int;
  stopped : Mutex.t * bool ref;
  domains : unit Domain.t array;
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
let answer b = if b then Wire.Bool true else Wire.Bool false

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
  let apply = function
    | Wire.Get key -> S.contains st key
    | Wire.Insert key -> S.insert st key
    | Wire.Delete key -> S.delete st key
    | _ -> invalid_arg "Shards: not a point op"
  in
  let n = ref 0 and mgets = ref 0 in
  Queue.iter
    (function
      | Point (req, k) ->
        Hwts_obs.Counter.incr m_point_ops;
        k (answer (apply req))
      | Points { reqs; at; answers; t0; k } ->
        Hwts_obs.Counter.add m_point_ops (Array.length at);
        Array.iter
          (fun i ->
            let req = reqs.(i) in
            answers.(i) <- answer (apply req);
            Hwts_obs.Histogram.record (class_hist req)
              (Tsc.monotonic_ns () - t0))
          at;
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
      Queue.iter (function Sub (lo, hi, k) -> sub lo hi k | _ -> ()) batch
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
            ~sub:(fun lo hi k -> k label (Hwts_snapshot.keys snap ~lo ~hi)))
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
        ~sub:(fun lo hi k ->
          Hwts_obs.Counter.incr m_snapshots;
          let label, keys = S.range_query_labeled st ~lo ~hi in
          k label keys)
  end;
  Queue.clear batch

let worker (type a) (module S : Dstruct.Ordered_set.RQ with type t = a)
    (st : a) ~coalesce sh =
  let batch = Queue.create () in
  let rec loop () =
    Mutex.lock sh.m;
    while Queue.is_empty sh.q && not sh.stop do
      Condition.wait sh.c sh.m
    done;
    (* exit only once a lock-held check sees stop AND an empty queue, so
       every task enqueued before the stop flag is drained first *)
    let finished = sh.stop && Queue.is_empty sh.q in
    Queue.transfer sh.q batch;
    Mutex.unlock sh.m;
    process (module S) st ~coalesce batch;
    (* Batch boundary: the shard worker holds no reference into its
       structure between batches — a quiescence point for QSBR
       reclamation (and the only announcement it ever pays for). *)
    S.quiesce st;
    if not finished then loop ()
  in
  loop ();
  S.offline st

let create ?(reclaim = `Ebr) ~structure ~provider ~shards ~key_space ~coalesce
    () =
  if shards <= 0 then invalid_arg "Shards.create: shards must be positive";
  if key_space <= 0 then
    invalid_arg "Shards.create: key_space must be positive";
  (* ONE instance call = one provider module; [shards] creates on it
     share the clock (see the .mli). *)
  let inst = Workload.Targets.instance ~reclaim structure provider in
  let (module S) = inst.Workload.Targets.structure in
  let span = (key_space + shards - 1) / shards in
  let mk_shard () =
    {
      m = Mutex.create ();
      c = Condition.create ();
      q = Queue.create ();
      stop = false;
    }
  in
  let shard_arr = Array.init shards (fun _ -> mk_shard ()) in
  let domains =
    Array.map
      (fun sh ->
        let st = S.create () in
        Domain.spawn (fun () ->
            Gc.set
              { (Gc.get ()) with minor_heap_size = shard_minor_heap_words };
            Sync.Slot.with_slot (fun _ -> worker (module S) st ~coalesce sh)))
      shard_arr
  in
  {
    shards = shard_arr;
    span;
    key_space;
    coalesce;
    structure_name = structure;
    provider = inst.Workload.Targets.provider;
    reclaim_name = inst.Workload.Targets.reclaim;
    now = inst.Workload.Targets.now;
    stopped = (Mutex.create (), ref false);
    domains;
  }

let structure_name t = t.structure_name
let provider t = t.provider
let reclaim t = t.reclaim_name
let shard_count t = Array.length t.shards
let key_space t = t.key_space
let coalesce t = t.coalesce
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
    Condition.signal sh.c;
    Mutex.unlock sh.m;
    true
  end

let shard_of_key t key = (key - 1) / t.span

let rejected = Wire.Err "server stopping"

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

(* The parts' keys in part order.  Each part is already an exact-size
   array, so a one-part answer is that array and only a cross-shard one
   is copied, once. *)
let merge parts =
  if Array.length parts = 1 then parts.(0) else Array.concat (Array.to_list parts)

(* Fan a clamped [lo, hi] out to its owning shards; completion fires on
   the last part, with the maximal part label and the parts merged in
   shard order (shards partition the key space ascending, and each part
   is sorted, so that is the sorted union). *)
let submit_range t lo hi k =
  let lo = max lo 1 and hi = min hi t.key_space in
  if lo > hi then k (Wire.Keys (t.now (), [||]))
  else begin
    let s0 = shard_of_key t lo in
    let n = shard_of_key t hi - s0 + 1 in
    let parts = Array.make n [||] and labels = Array.make n min_int in
    fan_out t n
      ~part:(fun i part_done ->
        let s = s0 + i in
        ( s,
          Sub
            ( max lo ((s * t.span) + 1),
              min hi ((s + 1) * t.span),
              fun label keys ->
                parts.(i) <- keys;
                labels.(i) <- label;
                part_done () ) ))
      (fun ok ->
        if ok then
          k (Wire.Keys (Array.fold_left max min_int labels, merge parts))
        else k rejected)
  end

(* Fan a MultiGet out to the shards owning its in-range keys; out-of-range
   keys answer [false] without a submission (Get's semantics), positions
   are preserved, and the combined label is the maximum across the
   per-shard slice labels — comparable because the fleet shares one
   provider. *)
let submit_multiget t keys k =
  let nk = Array.length keys in
  if nk = 0 then k (Wire.Bools (t.now (), [||]))
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
    if ng = 0 then k (Wire.Bools (t.now (), bools))
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
          if ok then k (Wire.Bools (Array.fold_left max min_int labels, bools))
          else k rejected)
    end
  end

(* Each range of a MultiRange reuses the Range fan-out; the frame
   completes when the last range does, under the maximal label. *)
let submit_multirange t submit_one ranges k =
  let nr = Array.length ranges in
  if nr = 0 then k (Wire.Keyss (t.now (), [||]))
  else begin
    let results = Array.make nr [||] in
    let labels = Array.make nr 0 in
    let remaining = Atomic.make nr in
    let failed = Atomic.make false in
    Array.iteri
      (fun i (lo, hi) ->
        submit_one t lo hi (fun resp ->
            (match resp with
            | Wire.Keys (label, keys) ->
              results.(i) <- keys;
              labels.(i) <- label
            | _ -> Atomic.set failed true);
            if Atomic.fetch_and_add remaining (-1) = 1 then
              if Atomic.get failed then k rejected
              else k (Wire.Keyss (Array.fold_left max min_int labels, results))))
      ranges
  end

let in_range t key = key >= 1 && key <= t.key_space

(* The shard an in-range Get/Insert/Delete goes to; -1 for anything
   else. *)
let point_shard t = function
  | (Wire.Get key | Wire.Insert key | Wire.Delete key) when in_range t key ->
    shard_of_key t key
  | _ -> -1

(* A batch's in-range point ops go to each owning shard as ONE [Points]
   task, through [fan_out]: if a stopping shard refuses a part, every
   one of these positions answers [Err], never a [Bool] from only some
   parts.  [answered m] counts [m] positions in. *)
let submit_points t reqs answers ~t0 answered =
  let nsh = Array.length t.shards in
  let counts = Array.make nsh 0 in
  Array.iter
    (fun req ->
      let s = point_shard t req in
      if s >= 0 then counts.(s) <- counts.(s) + 1)
    reqs;
  (* each shard's positions, in batch order *)
  let at = Array.map (fun c -> Array.make c 0) counts in
  let filled = Array.make nsh 0 in
  Array.iteri
    (fun i req ->
      let s = point_shard t req in
      if s >= 0 then begin
        at.(s).(filled.(s)) <- i;
        filled.(s) <- filled.(s) + 1
      end)
    reqs;
  let owners =
    Array.of_list (List.filter (fun s -> counts.(s) > 0) (List.init nsh Fun.id))
  in
  if owners <> [||] then
    fan_out t (Array.length owners)
      ~part:(fun g part_done ->
        let s = owners.(g) in
        (s, Points { reqs; at = at.(s); answers; t0; k = part_done }))
      (fun ok ->
        if not ok then
          Array.iter (Array.iter (fun i -> answers.(i) <- rejected)) at;
        answered (Array.fold_left ( + ) 0 counts))

let rec route t req k =
  let h = class_hist req in
  let t0 = Tsc.monotonic_ns () in
  let k r =
    Hwts_obs.Histogram.record h (Tsc.monotonic_ns () - t0);
    k r
  in
  match req with
  | Wire.Ping -> k Wire.Pong
  | Wire.Get key | Wire.Insert key | Wire.Delete key when not (in_range t key)
    -> (
    match req with
    | Wire.Get _ -> k (Wire.Bool false)
    | _ -> k (Wire.Err (Printf.sprintf "key %d out of [1, %d]" key t.key_space))
    )
  | Wire.Get key | Wire.Insert key | Wire.Delete key ->
    if not (enqueue t (shard_of_key t key) (Point (req, k))) then k rejected
  | Wire.Range (lo, hi) -> submit_range t lo hi k
  | Wire.MultiGet keys -> submit_multiget t keys k
  | Wire.MultiRange ranges -> submit_multirange t submit_range ranges k
  | Wire.Batch reqs ->
    let n = Array.length reqs in
    if n = 0 then k (Wire.Rbatch [||])
    else begin
      let answers = Array.make n Wire.Pong in
      let remaining = Atomic.make n in
      let answered m =
        if Atomic.fetch_and_add remaining (-m) = m then k (Wire.Rbatch answers)
      in
      submit_points t reqs answers ~t0 answered;
      (* The rest one at a time, after the point tasks: per-shard FIFO,
         and a drain running its point ops before its reads, make every
         read of the batch see every point op of the batch. *)
      Array.iteri
        (fun i req ->
          if point_shard t req < 0 then
            route t req (fun r ->
                answers.(i) <- r;
                answered 1))
        reqs
    end

let submit = route

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
    Array.iter Domain.join t.domains
  end
