(* The two in-process rungs of the layer ladder, plus the wire codec
   timings.  Each replays the op stream the TCP rung sent, so the cost of
   a layer is the difference between two measured rungs:

   - shards: [Serve.Shards.submit] with 32 requests in flight, the depth
     two connections of 16 give the server;
   - direct: the structure itself from 2 domains, each owning one shard's
     instance, all built from one [Workload.Targets.instance] call exactly
     as [Shards.create] builds them.  Ranges and MultiGets are split at
     shard bounds and read through [Hwts_snapshot]. *)

open Serve.Wire

let in_flight = 32
let now = Tsc.monotonic_ns

(* ---- shards rung ---- *)

type shards_result = {
  s_rate : float;
  s_done_ns : int array;  (** submit to completion, per request *)
  s_acquires_per_range : float;
  s_drain_ranges_mean : float;
  s_retired : int;
  s_announce_stores : int;
  s_limbo_hwm : int;
  s_spans : Spans.buf;
}

let counter name = Option.value ~default:0 (Hwts_obs.Registry.counter_value name)

let registry_mean name =
  match Hwts_obs.Registry.find name with
  | Some (Hwts_obs.Registry.Histogram h) -> Hwts_obs.Histogram.mean h
  | _ -> 0.

let watermark name =
  match Hwts_obs.Registry.find name with
  | Some (Hwts_obs.Registry.Watermark m) -> Hwts_obs.Watermark.get m
  | _ -> 0

(* Submit [reqs] keeping at most [window] in flight; returns per-request
   submit and completion times.  Completions run on the shard workers. *)
let drive_shards t reqs ~window ~on_answer =
  let m = Mutex.create () and c = Condition.create () in
  let inflight = ref 0 in
  let n = Array.length reqs in
  let submitted = Array.make n 0 and completed = Array.make n 0 in
  Array.iteri
    (fun i req ->
      Mutex.lock m;
      while !inflight >= window do
        Condition.wait c m
      done;
      incr inflight;
      Mutex.unlock m;
      submitted.(i) <- now ();
      Serve.Shards.submit t req (fun resp ->
          completed.(i) <- now ();
          on_answer i resp;
          Mutex.lock m;
          decr inflight;
          Condition.signal c;
          Mutex.unlock m))
    reqs;
  Mutex.lock m;
  while !inflight > 0 do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (submitted, completed)

let shards_rung (w : Spec.t) ~prefill ~warm ~reqs ~failures:f =
  let t =
    Serve.Shards.create ~reclaim:w.reclaim ~structure:w.structure
      ~provider:w.provider ~shards:Spec.shards ~key_space:w.key_space
      ~coalesce:true ()
  in
  Fun.protect ~finally:(fun () -> Serve.Shards.stop t) @@ fun () ->
  let ledger = Check.ledger ~key_space:w.key_space ~initial:prefill in
  let checked reqs i resp =
    match Check.answer reqs.(i) resp with
    | None -> Check.note ledger reqs.(i) resp
    | Some why -> Check.fail f ("shards rung: " ^ why)
  in
  let frames = Spec.prefill_frames prefill in
  ignore
    (drive_shards t frames ~window:4 ~on_answer:(fun i resp ->
         Option.iter (fun why -> Check.fail f ("shards rung: " ^ why))
           (Check.prefill_answer frames.(i) resp)));
  ignore (drive_shards t warm ~window:in_flight ~on_answer:(checked warm));
  Hwts_obs.Registry.reset_all ();
  let submitted, completed =
    drive_shards t reqs ~window:in_flight ~on_answer:(checked reqs)
  in
  let n = Array.length reqs in
  let elapsed = Array.fold_left max 0 completed - submitted.(0) in
  (* read the registry before the final read adds to it; a shard's
     MultiGet slice is a snapshot read like a range part *)
  let acquires_per_range =
    Stats.ratio
      (float_of_int (counter "serve.rq.snapshots"))
      (float_of_int (counter "serve.rq.ops" + counter "serve.mget.frames"))
  in
  let drain_ranges_mean = registry_mean "serve.rq.batch" in
  let retired = counter "reclaim.retired" in
  let announce_stores = counter "reclaim.announce_stores" in
  let limbo_hwm = watermark "reclaim.limbo_hwm" in
  (match Serve.Shards.exec t (Range (1, w.key_space)) with
  | Keys (_, keys) as resp -> (
    match Check.answer (Range (1, w.key_space)) resp with
    | Some why -> Check.fail f ("shards rung final read: " ^ why)
    | None ->
      Option.iter
        (fun (k, why) -> Check.fail f (Printf.sprintf "shards rung key %d %s" k why))
        (Check.reconcile ledger keys))
  | _ -> Check.fail f "shards rung final read: answer of the wrong type");
  let spans = Spans.create ~rung:"shards" ~tid:0 ((n / Spans.sample) + 1) in
  for i = 0 to n - 1 do
    if Spans.sampled i then
      ignore
        (Spans.add spans ~req:i ~parent:(-1) ~layer:Spans.shards_submit
           ~t0:submitted.(i) ~t1:completed.(i))
  done;
  {
    s_rate = float_of_int n /. (float_of_int elapsed /. 1e9);
    s_done_ns = Array.init n (fun i -> completed.(i) - submitted.(i));
    s_acquires_per_range = acquires_per_range;
    s_drain_ranges_mean = drain_ranges_mean;
    s_retired = retired;
    s_announce_stores = announce_stores;
    s_limbo_hwm = limbo_hwm;
    s_spans = spans;
  }

(* ---- direct rung ---- *)

(* Raw timings of one class of call, in TSC cycles. *)
type series = { v : int array; mutable n : int }

let series cap = { v = Array.make cap 0; n = 0 }

let push s x =
  s.v.(s.n) <- x;
  s.n <- s.n + 1

let values s = Array.sub s.v 0 s.n

type samples = {
  get : series;
  insert : series;
  delete : series;
  acquire : series;
  close : series;
  quiesce : series;
  mutable read_cycles : int;
  mutable read_keys : int;  (** keys returned by ranges, probed by MultiGets *)
  chunks : series array;  (** cycles per full chunk: [0] untimed, [1] timed *)
}

(* A timed pass alternates chunks of [chunk] tasks with and without
   timing, so the cost of timing is measured within one pass, under the
   same machine conditions, rather than between two passes; comparing
   median chunk times keeps a chunk that a host stall hit from counting. *)
let chunk = 64

let samples cap =
  {
    get = series cap;
    insert = series cap;
    delete = series cap;
    acquire = series cap;
    close = series cap;
    quiesce = series cap;
    read_cycles = 0;
    read_keys = 0;
    chunks = [| series (cap / chunk); series (cap / chunk) |];
  }

(* Split requests at the shard bounds Shards uses: [(request index,
   shard-local request)] per shard, in stream order. *)
let split ~key_space reqs =
  let span = (key_space + Spec.shards - 1) / Spec.shards in
  let shard k = (k - 1) / span in
  let parts = Array.make Spec.shards [] in
  let add s x = parts.(s) <- x :: parts.(s) in
  Array.iteri
    (fun i req ->
      match req with
      | Get k | Insert k | Delete k -> add (shard k) (i, req)
      | Range (lo, hi) ->
        for s = shard lo to shard hi do
          add s (i, Range (max lo ((s * span) + 1), min hi ((s + 1) * span)))
        done
      | MultiGet keys ->
        for s = 0 to Spec.shards - 1 do
          let mine = List.filter (fun k -> shard k = s) (Array.to_list keys) in
          if mine <> [] then add s (i, MultiGet (Array.of_list mine))
        done
      | MultiRange _ | Batch _ | Ping -> invalid_arg "Ladder.split")
    reqs;
  Array.map (fun l -> Array.of_list (List.rev l)) parts

(* A shard worker quiesces at each batch boundary; the direct rung has no
   batches, so it quiesces every [quiesce_every] calls. *)
let quiesce_every = 32

type shard_pass = {
  t_start : int;
  t_end : int;
  words : float;  (** minor-heap words this domain allocated while measured *)
  samples : samples;
  spans : Spans.buf;
}

(* A timed pass times one request in [time_every]: an rdtscp costs ~60 ns
   on a 2-vCPU KVM guest, so timing every call would slow a 1.5 us
   operation by ~10%.  Every request with spans is timed. *)
let time_every = 4

let () = assert (Spans.sample mod time_every = 0)

(* One shard's domain: prefill, warm up, then run the measured tasks.
   With [timed], calls into the structure, snapshot and reclamation
   layers are timed with rdtscp in every other chunk, and sampled
   requests get spans. *)
let shard_worker (type a) (module S : Dstruct.Ordered_set.RQ with type t = a)
    (st : a) ~ledger ~prefill ~warm ~tasks ~timed ~failures:f ~tid =
  let s = samples (if timed then Array.length tasks else 0) in
  let spans =
    Spans.create ~rung:"direct" ~tid
      (if timed then 4 * ((Array.length tasks / Spans.sample) + 8) else 0)
  in
  let clock timed = if timed then Tsc.rdtscp () else 0 in
  let exec ~timed (id, req) =
    let timed = timed && id mod time_every = 0 in
    let t0 = clock timed in
    let sp =
      if timed && Spans.sampled id then
        Spans.add spans ~req:id ~parent:(-1) ~layer:Spans.struct_op ~t0 ~t1:0
      else -1
    in
    let through_snapshot read =
      let a = clock timed in
      let snap = Hwts_snapshot.acquire (module S) st in
      let b = clock timed in
      let keys = read snap in
      let c = clock timed in
      Hwts_snapshot.close snap;
      if timed then begin
        let d = Tsc.rdtscp () in
        push s.acquire (b - a);
        push s.close (d - c);
        s.read_cycles <- s.read_cycles + (c - b);
        s.read_keys <- s.read_keys + keys;
        if sp >= 0 then begin
          let child layer t0 t1 =
            ignore (Spans.add spans ~req:id ~parent:sp ~layer ~t0 ~t1)
          in
          child Spans.snapshot_acquire a b;
          child Spans.snapshot_read b c;
          child Spans.snapshot_close c d
        end
      end
    in
    let timing =
      match req with
      | Get k ->
        ignore (S.contains st k);
        Some s.get
      | Insert k ->
        if S.insert st k then ledger.(k) <- ledger.(k) + 1;
        Some s.insert
      | Delete k ->
        if S.delete st k then ledger.(k) <- ledger.(k) - 1;
        Some s.delete
      | Range (lo, hi) ->
        through_snapshot (fun snap ->
            let keys = Array.of_list (Hwts_snapshot.range snap ~lo ~hi) in
            if not (Check.range_ok ~lo ~hi keys) then
              Check.fail f "direct rung: range answer unsorted or out of bounds";
            Array.length keys);
        None
      | MultiGet keys ->
        through_snapshot (fun snap ->
            ignore (Hwts_snapshot.multi_get snap keys);
            Array.length keys);
        None
      | MultiRange _ | Batch _ | Ping -> None
    in
    if timed then begin
      let t1 = Tsc.rdtscp () in
      Option.iter (fun series -> push series (t1 - t0)) timing;
      Spans.finish spans sp t1
    end
  in
  let quiesce ~timed =
    if timed then begin
      let a = Tsc.rdtscp () in
      S.quiesce st;
      push s.quiesce (Tsc.rdtscp () - a)
    end
    else S.quiesce st
  in
  let run ~timed tasks =
    let start = ref (clock timed) in
    Array.iteri
      (fun j task ->
        if timed && j > 0 && j mod chunk = 0 then begin
          let t = Tsc.rdtscp () in
          push s.chunks.((j / chunk) mod 2 lxor 1) (t - !start);
          start := t
        end;
        let timed = timed && j / chunk mod 2 = 1 in
        exec ~timed task;
        if (j + 1) mod quiesce_every = 0 then quiesce ~timed)
      tasks
  in
  Array.iter (fun k -> ignore (S.insert st k)) prefill;
  run ~timed:false warm;
  let words0 = Gc.minor_words () in
  let t_start = now () in
  run ~timed tasks;
  let t_end = now () in
  let words = Gc.minor_words () -. words0 in
  S.offline st;
  { t_start; t_end; words; samples = s; spans }

type direct_result = {
  d_rate : float;
  d_words_per_op : float;
  d_overhead : float;
      (** timed pass: 1 - (median untimed chunk time / median timed chunk time) *)
  d_passes : shard_pass array;
}

(* One pass of the direct rung on a fresh instance.  The benchmark runs
   on one CPU, so the two shard domains run one after the other: run side
   by side they would only time-slice, and a timed call would absorb the
   other domain's slices.  The rate is requests over the summed time. *)
let direct_pass (w : Spec.t) ~prefill ~warm ~reqs ~timed ~failures:f =
  let inst = Workload.Targets.instance ~reclaim:w.reclaim w.structure w.provider in
  let (module S) = inst.Workload.Targets.structure in
  let ledger = Check.ledger ~key_space:w.key_space ~initial:prefill in
  let tasks = split ~key_space:w.key_space reqs in
  let warms = split ~key_space:w.key_space warm in
  let span = (w.key_space + Spec.shards - 1) / Spec.shards in
  let sts = Array.init Spec.shards (fun _ -> S.create ()) in
  let passes =
    Array.mapi
      (fun i st ->
        let mine = List.filter (fun k -> (k - 1) / span = i) (Array.to_list prefill) in
        Domain.join
          (Domain.spawn (fun () ->
               Sync.Slot.with_slot (fun _ ->
                   shard_worker (module S) st ~ledger ~prefill:(Array.of_list mine)
                     ~warm:warms.(i) ~tasks:tasks.(i) ~timed ~failures:f ~tid:i))))
      sts
  in
  let final =
    Array.concat (Array.to_list (Array.map (fun st -> Array.of_list (S.to_list st)) sts))
  in
  Option.iter
    (fun (k, why) -> Check.fail f (Printf.sprintf "direct rung key %d %s" k why))
    (Check.reconcile ledger final);
  let busy = Array.fold_left (fun a p -> a + (p.t_end - p.t_start)) 0 passes in
  let n = Array.length reqs in
  {
    d_rate = float_of_int n /. (float_of_int busy /. 1e9);
    d_words_per_op =
      Array.fold_left (fun a p -> a +. p.words) 0. passes /. float_of_int n;
    d_overhead =
      (let median k =
         Stats.percentile
           (Array.concat (Array.to_list (Array.map (fun p -> values p.samples.chunks.(k)) passes)))
           50.
       in
       if median 1 = 0 then 0.
       else 1. -. (float_of_int (median 0) /. float_of_int (median 1)));
    d_passes = passes;
  }

(* ---- wire codec ---- *)

(* Mean ns per request to decode [reqs] from their encoding, fed in the
   64 KiB chunks a server read returns; the median of [passes] passes. *)
let decode_ns reqs ~passes =
  let b = Buffer.create (24 * Array.length reqs) in
  Array.iter (encode_request b) reqs;
  let bytes = Buffer.to_bytes b in
  let len = Bytes.length bytes in
  let one () =
    let d = decoder () in
    let t0 = now () in
    let off = ref 0 and got = ref 0 in
    while !off < len do
      let k = min 65536 (len - !off) in
      feed d bytes !off k;
      off := !off + k;
      let rec pull () =
        match next_request d with
        | Some _ ->
          incr got;
          pull ()
        | None -> ()
      in
      pull ()
    done;
    if !got <> Array.length reqs then failwith "decode pass lost frames";
    float_of_int (now () - t0) /. float_of_int (max 1 !got)
  in
  Stats.median (List.init passes (fun _ -> one ()))

(* Mean ns to encode one of [answers]; the median of [passes] passes. *)
let encode_ns answers ~passes =
  let b = Buffer.create 65536 in
  let one () =
    let t0 = now () in
    Array.iter
      (fun r ->
        Buffer.clear b;
        encode_response b r)
      answers;
    float_of_int (now () - t0) /. float_of_int (max 1 (Array.length answers))
  in
  if answers = [||] then 0. else Stats.median (List.init passes (fun _ -> one ()))
