(* Serving sweep: the snapshot-sharing batcher's A/B experiment.

   Each point stands up the sharded server in-process (fresh shard
   domains, one shared provider) and drives it over loopback TCP with
   the served benchmark's generator (E2e.Spec, E2e.Loadgen) in closed
   loop, a connection's window the pipeline depth, sweeping
   connections x pipeline depth x the coalesce switch.  Pipeline depth
   is the load-bearing axis: at depth 1 a shard's queue rarely holds
   more than one range per drain and the batcher has nothing to merge,
   while at depth >= 4 several ranges pile up per drain and one snapshot
   acquisition covers them all.  The per-point acquisition accounting
   (serve.rq.snapshots over serve.rq.ops) is the paper's amortization
   ratio lifted to service scale; the coalesce=false arm acquires once
   per subrange by construction, so its ratio is exactly 1.

   Pairing discipline (Benchkit.Kit): both arms run back to back per
   trial with the starting arm rotating, points keep medians, and the
   throughput gate uses each arm's best trial — on a shared box
   preemption only ever slows a leg, so best-of is the noise-robust
   comparator while a real systematic cost still shows up. *)

module J = Hwts_obs.Json
module Kit = Benchkit.Kit

let default_out = "BENCH_serve.json"

let c_snapshots = Hwts_obs.Registry.counter "serve.rq.snapshots"
let c_rq_ops = Hwts_obs.Registry.counter "serve.rq.ops"
let h_rq_batch = Hwts_obs.Registry.histogram "serve.rq.batch"
let h_client_range = Hwts_obs.Registry.histogram "serve.client.latency.range"

let run_leg ~structure ~provider ~shards ~key_space ~coalesce ~connections
    ~pipeline ~ops ~rq_len ~mix ~theta : Kit.row =
  Gc.compact ();
  Hwts_obs.Registry.reset_all ();
  let router =
    Serve.Shards.create ~structure ~provider ~shards ~key_space ~coalesce ()
  in
  let server = Serve.Server.start ~port:0 router in
  (* the served benchmark's generator: the leg's traffic as a workload *)
  let w =
    {
      E2e.Spec.name = "serve-bench";
      structure;
      provider;
      reclaim = `Ebr;
      key_space;
      mix;
      theta;
      rq_len;
      multiget = 1;
      loop = E2e.Spec.Closed pipeline;
      rate = 0.;
      reps = 1;
    }
  in
  let reqs = E2e.Spec.requests_of w ~seed:7 (E2e.Spec.Measured 0) (connections * ops) in
  let errors = ref 0 in
  let r =
    Fun.protect
      ~finally:(fun () -> Serve.Server.stop server)
      (fun () ->
        let fds = E2e.Loadgen.connect ~port:(Serve.Server.port server) connections in
        Fun.protect ~finally:(fun () -> E2e.Loadgen.close fds) @@ fun () ->
        E2e.Loadgen.run fds
          { E2e.Loadgen.reqs; due = None; window = pipeline }
          ~on_answer:(fun _ -> function Serve.Wire.Err _ -> incr errors | _ -> ()))
  in
  if !errors > 0 then begin
    Printf.eprintf "serve_bench: %d error responses in a leg\n" !errors;
    exit 1
  end;
  Array.iteri
    (fun i -> function
      | Serve.Wire.Range _ ->
        Hwts_obs.Histogram.record h_client_range (r.E2e.Loadgen.answered.(i) - r.sent.(i))
      | _ -> ())
    reqs;
  let ops_sent = Array.length reqs and elapsed = float_of_int r.elapsed_ns /. 1e9 in
  let snapshots = Hwts_obs.Counter.sum c_snapshots in
  let rq_ops = Hwts_obs.Counter.sum c_rq_ops in
  [
    ("mops", J.Float (float_of_int ops_sent /. elapsed /. 1e6));
    ("ops", J.Int ops_sent);
    ("elapsed", J.Float elapsed);
    ("rq_ops", J.Int rq_ops);
    ("rq_snapshots", J.Int snapshots);
    ( "acquires_per_range",
      J.Float
        (if rq_ops = 0 then 1. else float_of_int snapshots /. float_of_int rq_ops) );
    ("rq_batch_mean", J.Float (Hwts_obs.Histogram.mean h_rq_batch));
    ("p50_range_ns", J.Float (Hwts_obs.Histogram.percentile h_client_range 50.));
    ("p99_range_ns", J.Float (Hwts_obs.Histogram.percentile h_client_range 99.));
  ]

let () =
  let conns_spec = ref "1,2,4" in
  let pipelines_spec = ref "1,4,16" in
  let structure = ref "bst-vcas" in
  let provider_name = ref "logical" in
  let shards = ref 2 in
  let key_space = ref 4_096 in
  let ops = ref 3_000 in
  let rq_len = ref 64 in
  let mix = ref "10-30-60" in
  let theta = ref 0.9 in
  let trials = ref 2 in
  let out = ref default_out in
  Arg.parse
    [
      ( "-connections",
        Arg.Set_string conns_spec,
        " comma-separated connection counts (default 1,2,4)" );
      ( "-pipelines",
        Arg.Set_string pipelines_spec,
        " comma-separated pipeline depths (default 1,4,16)" );
      ("-structure", Arg.Set_string structure, " structure (default bst-vcas)");
      ( "-provider",
        Arg.Set_string provider_name,
        " shared timestamp provider (default logical)" );
      ("-shards", Arg.Set_int shards, " shard domains (default 2)");
      ("-key-space", Arg.Set_int key_space, " served key space (default 4096)");
      ("-ops", Arg.Set_int ops, " ops per connection per leg (default 3000)");
      ("-rq-len", Arg.Set_int rq_len, " range-query span (default 64)");
      ("-mix", Arg.Set_string mix, " U-RQ-C mix label (default 10-30-60)");
      ( "-theta",
        Arg.Set_float theta,
        " Zipfian skew, 0 = uniform (default 0.9, scrambled)" );
      ( "-trials",
        Arg.Set_int trials,
        " paired trials per point, medians kept (default 2)" );
      ("-out", Arg.Set_string out, " output file (default BENCH_serve.json)");
    ]
    (fun _ -> ())
    "serve_bench: connections x pipeline x coalesce sweep of the sharded \
     range-query server (one snapshot acquisition per drained batch vs one \
     per range)";
  let provider = Kit.provider !provider_name in
  let connections = Kit.counts ~what:"connection counts" !conns_spec in
  let pipelines = Kit.counts ~what:"pipeline depths" !pipelines_spec in
  let mix_t = Workload.Mix.of_label !mix in
  Hwts_obs.Config.set_enabled true;
  let meta =
    [
      ("structure", J.Str !structure);
      ("provider", J.Str !provider_name);
      ("shards", J.Int !shards);
      ("key_space", J.Int !key_space);
      ("ops_per_connection", J.Int !ops);
      ("rq_len", J.Int !rq_len);
      ("mix", J.Str !mix);
      ("theta", J.Float !theta);
      ("trials", J.Int !trials);
      ("connections", J.List (List.map (fun c -> J.Int c) connections));
      ("pipelines", J.List (List.map (fun d -> J.Int d) pipelines));
    ]
  in
  Kit.with_artifact ~path:!out ~family:"bench.serve" meta @@ fun emit ->
  Printf.printf "%-6s %-9s %-9s %10s %14s %12s\n" "conns" "pipeline" "coalesce"
    "mops" "acq/range" "batch mean";
  (* gate accumulators over depth >= 4 pairs *)
  let acq_lower_everywhere = ref true in
  let worst_tp_ratio = ref infinity in
  let gated_points = ref 0 in
  List.iter
    (fun conns ->
      List.iter
        (fun pipeline ->
          (* arm 0 = coalesced, arm 1 = per-RQ *)
          let legs =
            Kit.paired ~arms:2 ~trials:!trials (fun ~trial:_ arm ->
                run_leg ~structure:!structure ~provider ~shards:!shards
                  ~key_space:!key_space ~coalesce:(arm = 0) ~connections:conns
                  ~pipeline ~ops:!ops ~rq_len:!rq_len ~mix:mix_t ~theta:!theta)
          in
          let points = Array.map Kit.summarize legs in
          Array.iteri
            (fun arm p ->
              let coalesce = arm = 0 in
              Printf.printf "%-6d %-9d %-9b %10.3f %14.3f %12.2f\n%!" conns
                pipeline coalesce (Kit.num p "mops") (Kit.num p "acquires_per_range")
                (Kit.num p "rq_batch_mean");
              emit "point"
                ([
                   ("structure", J.Str !structure);
                   ("provider", J.Str !provider_name);
                   ("connections", J.Int conns);
                   ("pipeline", J.Int pipeline);
                   ("coalesce", J.Bool coalesce);
                 ]
                @ p))
            points;
          if pipeline >= 4 then begin
            incr gated_points;
            if
              Kit.num points.(0) "acquires_per_range"
              >= Kit.num points.(1) "acquires_per_range"
            then acq_lower_everywhere := false;
            if Kit.best legs.(1) "mops" > 0. then
              worst_tp_ratio :=
                Float.min !worst_tp_ratio (Kit.best_ratio legs.(0) legs.(1) "mops")
          end)
        pipelines)
    connections;
  let tp_ok = !worst_tp_ratio >= 0.9 in
  Printf.printf
    "gate (pipeline >= 4, %d points): acquires/range strictly lower %b, worst \
     coalesced/per-RQ throughput ratio %.3f (%s)\n"
    !gated_points !acq_lower_everywhere !worst_tp_ratio
    (if tp_ok then "ok" else "BELOW 0.9");
  emit "summary"
    [
      ("gated_points", J.Int !gated_points);
      ("acquires_strictly_lower", J.Bool !acq_lower_everywhere);
      ("worst_throughput_ratio", J.Float !worst_tp_ratio);
      ("throughput_ok", J.Bool tp_ok);
      ("coalesce_wins", J.Bool (!acq_lower_everywhere && tp_ok));
    ];
  Printf.printf "wrote %s\n" !out
