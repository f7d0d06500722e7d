(* The four served-request workloads and the seeded inputs they send.

   The workloads vary the two things that set a timestamp's cost: who
   advances the clock (vCAS range queries in scan-large, Bundling updates
   in mixed-open) and how many reads share one snapshot (none in point-kv,
   8-key MultiGets in mixed-open).  They also separate the layers: the
   connection path dominates point-kv, traversal of an out-of-cache tree
   dominates scan-large.  README.md gives the reason for each one.

   Everything a run sends is a function of (seed, workload name, stream):
   the server only ever sees the encoded frames. *)

type loop =
  | Closed of int  (** requests in flight per connection *)
  | Open of float  (** Poisson arrivals, requests per second over all connections *)

type t = {
  name : string;
  structure : string;
  provider : Workload.Targets.ts;
  reclaim : Workload.Targets.reclaim;
  key_space : int;
  mix : Workload.Mix.t;
  theta : float;  (** Zipf skew, scrambled over the key space; 0 = uniform *)
  rq_len : int;
  multiget : int;  (** each Contains is a MultiGet of this many keys; 1 = Get *)
  loop : loop;
  rate : float;
      (** requests per second a repetition is sized for: the offered rate in
          open loop, else the closed-loop throughput of the reference box
          (one CPU of a 2-vCPU KVM guest) *)
  reps : int;
      (** repetitions per run, each on a fresh server: throughput differs
          by up to ~10% between server processes on a shared box, so a run
          reports the median of several *)
}

let connections = 2
let shards = 2
let prefill_batch = 512

let all =
  [
    {
      name = "point-kv";
      structure = "bst-vcas";
      provider = `Logical;
      reclaim = `Ebr;
      key_space = 65_536;
      mix = Workload.Mix.make ~u:10 ~rq:0 ~c:90;
      theta = 0.;
      rq_len = 1;
      multiget = 1;
      loop = Closed 16;
      rate = 140_000.;
      reps = 12;
    };
    {
      name = "scan-large";
      structure = "bst-vcas";
      provider = `Hardware_strict;
      reclaim = `Ebr;
      key_space = 524_288;
      mix = Workload.Mix.make ~u:10 ~rq:30 ~c:60;
      theta = 0.;
      rq_len = 256;
      multiget = 1;
      loop = Closed 16;
      rate = 25_000.;
      reps = 4;
    };
    {
      name = "churn-skew";
      structure = "citrus-ebrrq";
      provider = `Logical;
      reclaim = `Ebr;
      key_space = 262_144;
      mix = Workload.Mix.make ~u:50 ~rq:20 ~c:30;
      theta = 0.99;
      rq_len = 256;
      multiget = 1;
      loop = Closed 16;
      rate = 44_000.;
      reps = 8;
    };
    {
      name = "mixed-open";
      structure = "skiplist-bundle";
      provider = `Hardware_strict;
      reclaim = `Ebr;
      key_space = 65_536;
      mix = Workload.Mix.make ~u:20 ~rq:10 ~c:70;
      theta = 0.9;
      rq_len = 64;
      multiget = 8;
      loop = Open 10_000.;
      rate = 10_000.;
      reps = 14;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* A repetition is a fixed request count, so both sides of a comparison
   do the same work; [seconds] of measurement split over [reps]. *)
let requests w ~seconds ~reps =
  max 1 (int_of_float (w.rate *. seconds /. float_of_int reps))

(* About 0.3 s of traffic, sent before each measured phase. *)
let warmup_requests w = int_of_float (0.3 *. w.rate)

type stream = Prefill | Warmup | Measured of int

let stream_id = function Prefill -> 1 | Warmup -> 2 | Measured rep -> 16 + rep

let prng w ~seed id =
  Dstruct.Prng.make ~seed:((seed * 1_000_003) + (Hashtbl.hash w.name * 4096) + id)

let rng w ~seed stream = prng w ~seed (stream_id stream)

(* The first half of a seeded permutation of [1, key_space]. *)
let prefill_keys w ~seed =
  let rng = rng w ~seed Prefill in
  let a = Array.init w.key_space (fun i -> i + 1) in
  for i = w.key_space - 1 downto 1 do
    let j = Dstruct.Prng.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 (w.key_space / 2)

let prefill_frames keys =
  let n = Array.length keys in
  Array.init
    ((n + prefill_batch - 1) / prefill_batch)
    (fun b ->
      let lo = b * prefill_batch in
      Serve.Wire.Batch
        (Array.init
           (min prefill_batch (n - lo))
           (fun i -> Serve.Wire.Insert keys.(lo + i))))

let key_sampler w ~seed rng =
  if w.theta > 0. then begin
    let z =
      Workload.Zipf.scrambled ~seed
        (Workload.Zipf.make ~n:w.key_space ~theta:w.theta)
    in
    fun () -> Workload.Zipf.sample z rng
  end
  else fun () -> 1 + Dstruct.Prng.below rng w.key_space

let requests_of w ~seed stream n =
  let rng = rng w ~seed stream in
  let key = key_sampler w ~seed rng in
  Array.init n (fun _ ->
      match Workload.Mix.pick_with w.mix rng ~key with
      | Workload.Mix.Insert k -> Serve.Wire.Insert k
      | Workload.Mix.Delete k -> Serve.Wire.Delete k
      | Workload.Mix.Contains k ->
        if w.multiget > 1 then
          Serve.Wire.MultiGet
            (Array.init w.multiget (fun i -> if i = 0 then k else key ()))
        else Serve.Wire.Get k
      | Workload.Mix.Range k ->
        Serve.Wire.Range (k, min w.key_space (k + w.rq_len - 1)))

(* Poisson arrivals: due times in ns from the start of the phase. *)
let poisson_schedule rng ~rate n =
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t -. (log (1. -. Dstruct.Prng.float rng) /. rate);
      int_of_float (!t *. 1e9))

(* The arrival times of [stream]'s requests, from a stream of their own. *)
let schedule w ~seed stream n =
  match w.loop with
  | Closed _ -> None
  | Open rate ->
    Some (poisson_schedule (prng w ~seed (2048 + stream_id stream)) ~rate n)

type cls = Read | Update | Range | Other

let cls_of = function
  | Serve.Wire.Get _ | Serve.Wire.MultiGet _ -> Read
  | Serve.Wire.Insert _ | Serve.Wire.Delete _ -> Update
  | Serve.Wire.Range _ | Serve.Wire.MultiRange _ -> Range
  | Serve.Wire.Batch _ | Serve.Wire.Ping -> Other

(* The request classes [w] sends, with the names their latencies are
   reported under. *)
let classes w =
  List.filter_map
    (fun (share, cls, name) -> if share > 0 then Some (cls, name) else None)
    [
      (w.mix.contains, Read, "read");
      (w.mix.updates, Update, "update");
      (w.mix.range_queries, Range, "range");
    ]
