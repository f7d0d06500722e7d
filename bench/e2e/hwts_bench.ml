(* hwts_bench: the served-request benchmark.

   Untraced (--trace 0): each repetition starts a fresh hwts-serve
   process, prefills it over the wire, warms it up, then drives a fixed
   count of seeded requests over 2 connections from this single thread,
   checking every answer.  Reported values are medians over repetitions.

   Traced (--trace 1): the same op stream down the layer
   ladder (TCP to hwts-serve, Shards.submit in-process, the structure
   directly) so each layer's cost is a measured difference.

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics.  See README.md. *)

open E2e

(* One repetition against a fresh server: prefill, warmup, measured
   phase, final full-range read, SIGTERM. *)
type rep = {
  setup_s : float;
  rss_mb : float;
  reqs : Serve.Wire.request array;
  res : Loadgen.result;
  lat_ns : int array;
  late_ns : int array;  (** open loop only *)
  captured : Serve.Wire.response array;  (** answers of sampled requests *)
}

let tcp_rep (w : Spec.t) ~exe ~out ~seed ~rep ~n ~prefill ~warm ~f ~attempted
    ~capture =
  let t0 = Unix.gettimeofday () in
  let metrics = Filename.concat out (Printf.sprintf "%s.rep%d.metrics.jsonl" w.name rep) in
  let srv = Server_proc.start ~exe ~metrics w in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill srv.Server_proc.pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] srv.Server_proc.pid)
      end)
  @@ fun () ->
  let fds = Loadgen.connect ~port:srv.Server_proc.port Spec.connections in
  let ledger = Check.ledger ~key_space:w.key_space ~initial:prefill in
  let checked reqs i resp =
    incr attempted;
    match Check.answer reqs.(i) resp with
    | None -> Check.note ledger reqs.(i) resp
    | Some why -> Check.fail f why
  in
  let window n = match w.loop with Spec.Closed d -> d | Spec.Open _ -> n in
  let frames = Spec.prefill_frames prefill in
  ignore
    (Loadgen.run fds { reqs = frames; due = None; window = 4 }
       ~on_answer:(fun i resp ->
         incr attempted;
         Option.iter (Check.fail f) (Check.prefill_answer frames.(i) resp)));
  let setup_s = Unix.gettimeofday () -. t0 in
  ignore
    (Loadgen.run fds
       {
         reqs = warm;
         due = Spec.schedule w ~seed Spec.Warmup (Array.length warm);
         window = window (Array.length warm);
       }
       ~on_answer:(checked warm));
  let reqs = Spec.requests_of w ~seed (Spec.Measured rep) n in
  let due = Spec.schedule w ~seed (Spec.Measured rep) n in
  let captured =
    Array.make (if capture then ((n - 1) / Spans.sample) + 1 else 0) Serve.Wire.Pong
  in
  let res =
    Loadgen.run fds { reqs; due; window = window n } ~on_answer:(fun i resp ->
        checked reqs i resp;
        if capture && Spans.sampled i then captured.(i / Spans.sample) <- resp)
  in
  let final = [| Serve.Wire.Range (1, w.key_space) |] in
  ignore
    (Loadgen.run fds { reqs = final; due = None; window = 1 } ~on_answer:(fun _ resp ->
         incr attempted;
         match (Check.answer final.(0) resp, resp) with
         | None, Serve.Wire.Keys (_, keys) ->
           Option.iter
             (fun (k, why) -> Check.fail f (Printf.sprintf "key %d %s" k why))
             (Check.reconcile ledger keys)
         | Some why, _ -> Check.fail f ("final read: " ^ why)
         | None, _ -> Check.fail f "final read: answer of the wrong type"));
  let rss_mb = Server_proc.peak_rss_mb srv in
  Loadgen.close fds;
  stopped := true;
  Option.iter (Check.fail f) (Server_proc.stop srv);
  let lat_ns, late_ns =
    match due with
    | None -> (Array.init n (fun i -> res.answered.(i) - res.sent.(i)), [||])
    | Some due ->
      ( Array.init n (fun i -> res.answered.(i) - (res.start + due.(i))),
        Array.init n (fun i -> res.sent.(i) - (res.start + due.(i))) )
  in
  { setup_s; rss_mb; reqs; res; lat_ns; late_ns; captured }

let rate n ns = float_of_int n /. (float_of_int ns /. 1e9)
let us ns = float_of_int ns /. 1e3

let class_lat r cls =
  let xs = ref [] in
  Array.iteri (fun i req -> if Spec.cls_of req = cls then xs := r.lat_ns.(i) :: !xs) r.reqs;
  Array.of_list !xs

(* Lateness p99 above this means the generator, not the server, set the
   open-loop latencies. *)
let late_limit_ns = 1_000_000

let late_p99 late_ns = Stats.percentile late_ns 99.

(* One repetition's values: (name, unit, value, samples behind it).  Only
   the names in Report.end_to_end are gated; the rest go to standard
   error and the JSON file, because host drift moved them by more than
   their 10% bound between two sets of runs of one commit (README.md). *)
let rep_values (w : Spec.t) n r =
  let lat prefix xs =
    List.map
      (fun q ->
        (Printf.sprintf "%sp%.0f_us" prefix q, "us", us (Stats.percentile xs q), Array.length xs))
      [ 50.; 90.; 99. ]
  in
  [
    ("setup_s", "s", r.setup_s, 1);
    ("server_rss_mb", "MB", r.rss_mb, 1);
    ("req_per_s", "req/s", rate n r.res.elapsed_ns, n);
  ]
  @ lat "" r.lat_ns
  @ List.concat_map (fun (cls, name) -> lat (name ^ "_") (class_lat r cls)) (Spec.classes w)

let cpu_share r = r.res.cpu_s /. (float_of_int r.res.elapsed_ns /. 1e9)

let untraced (w : Spec.t) ~exe ~out ~seed ~reps ~n ~prefill ~warm ~f ~attempted =
  (* reduce each repetition as it ends, so its raw samples can be freed *)
  let runs =
    List.init reps (fun rep ->
        let r = tcp_rep w ~exe ~out ~seed ~rep ~n ~prefill ~warm ~f ~attempted ~capture:false in
        (rep_values w n r, r.late_ns, cpu_share r))
  in
  let per_rep = List.map (fun (v, _, _) -> v) runs in
  let report = Report.create ~workload:w.name Report.end_to_end in
  let json =
    List.mapi
      (fun k (name, unit, _, _) ->
        let vs = List.map (fun vals -> List.nth vals k) per_rep in
        let med = Stats.median (List.map (fun (_, _, v, _) -> v) vs) in
        let gated = List.exists (fun (x : Report.metric) -> x.name = name) Report.end_to_end in
        if gated then Report.set report name med;
        Printf.eprintf "%s %s %.6g %s%s\n" w.name name med unit (if gated then "" else " (ungated)");
        ( name,
          Hwts_obs.Json.(
            Obj
              [
                ("median", Float med);
                ("unit", Str unit);
                ("gated", Bool gated);
                ("reps", List (List.map (fun (_, _, v, _) -> Float v) vs));
                ("samples", List (List.map (fun (_, _, _, c) -> Int c) vs));
              ]) ))
      (List.hd per_rep)
  in
  (* the run's lateness p99, over the requests of every repetition *)
  let late = late_p99 (Array.concat (List.map (fun (_, l, _) -> l) runs)) in
  let cpu = Stats.median (List.map (fun (_, _, c) -> c) runs) in
  ( report,
    late <= late_limit_ns,
    [
      ("end_to_end", Hwts_obs.Json.Obj json);
      ("client_cpu_share", Hwts_obs.Json.Float cpu);
      ("client_late_p99_us", Hwts_obs.Json.Float (us late));
    ] )

(* ---- traced run ---- *)

(* Per-call timings are TSC cycles; both are 0 without samples. *)
let mean_ns a = Tsc.cycles_to_ns (int_of_float (Stats.mean a))
let p99_ns a = Tsc.cycles_to_ns (Stats.percentile a 99.)

let traced (w : Spec.t) ~exe ~out ~seed ~n ~prefill ~warm ~f ~attempted =
  (* the ladder compares capacities, so its TCP rung runs closed-loop
     even for an open-loop workload; the generator's own cost is read
     from a repetition in the workload's loop *)
  let ladder_w = { w with loop = Spec.Closed (Ladder.in_flight / Spec.connections) } in
  let tcp =
    tcp_rep ladder_w ~exe ~out ~seed ~rep:0 ~n ~prefill ~warm ~f ~attempted ~capture:true
  in
  let own =
    if ladder_w = w then tcp
    else tcp_rep w ~exe ~out ~seed ~rep:0 ~n ~prefill ~warm ~f ~attempted ~capture:false
  in
  let reqs = tcp.reqs in
  let sh = Ladder.shards_rung w ~prefill ~warm ~reqs ~failures:f in
  (* rates from untimed passes; per-call times and the cost of timing
     from one timed pass *)
  let plain =
    List.init 3 (fun _ -> Ladder.direct_pass w ~prefill ~warm ~reqs ~timed:false ~failures:f)
  in
  let struct_rate = Stats.median (List.map (fun p -> p.Ladder.d_rate) plain) in
  let words_per_op = Stats.median (List.map (fun p -> p.Ladder.d_words_per_op) plain) in
  let timed = Ladder.direct_pass w ~prefill ~warm ~reqs ~timed:true ~failures:f in
  let r = Report.create ~workload:w.name Report.per_layer in
  let set = Report.set r in
  let tcp_rate = rate n tcp.res.elapsed_ns in
  let per_req rate = 1e6 /. rate in
  let server_cost = per_req tcp_rate -. per_req sh.s_rate in
  let shards_cost = per_req sh.s_rate -. per_req struct_rate in
  set "wire.decode_req_ns" (Ladder.decode_ns reqs ~passes:5);
  set "wire.encode_resp_ns" (Ladder.encode_ns tcp.captured ~passes:5);
  set "wire.resp_bytes" (float_of_int tcp.res.bytes_in /. float_of_int n);
  set "server.req_per_s" tcp_rate;
  set "server.cost_us" server_cost;
  set "server.share" (server_cost /. per_req tcp_rate);
  set "shards.req_per_s" sh.s_rate;
  set "shards.cost_us" shards_cost;
  set "shards.done_p50_us" (us (Stats.percentile sh.s_done_ns 50.));
  set "shards.done_p99_us" (us (Stats.percentile sh.s_done_ns 99.));
  set "shards.acquires_per_range" sh.s_acquires_per_range;
  set "shards.drain_ranges_mean" sh.s_drain_ranges_mean;
  let all get =
    Array.concat (Array.to_list (Array.map (fun p -> Ladder.values (get p.Ladder.samples)) timed.d_passes))
  in
  let acquire = all (fun s -> s.acquire) in
  set "snapshot.acquire_ns" (mean_ns acquire);
  set "snapshot.acquire_p99_ns" (p99_ns acquire);
  set "snapshot.close_ns" (mean_ns (all (fun s -> s.close)));
  let read_cycles, read_keys =
    Array.fold_left
      (fun (c, k) p -> (c + p.Ladder.samples.read_cycles, k + p.Ladder.samples.read_keys))
      (0, 0) timed.d_passes
  in
  set "snapshot.read_ns_per_key"
    (if read_keys = 0 then 0. else Tsc.cycles_to_ns read_cycles /. float_of_int read_keys);
  set "struct.req_per_s" struct_rate;
  set "struct.cost_us" (per_req struct_rate);
  List.iter
    (fun (name, get) ->
      let xs = all get in
      set ("struct." ^ name ^ "_ns") (mean_ns xs);
      set ("struct." ^ name ^ "_p99_ns") (p99_ns xs))
    [ ("get", fun s -> s.Ladder.get); ("insert", fun s -> s.insert); ("delete", fun s -> s.delete) ];
  set "struct.words_per_op" words_per_op;
  set "reclaim.quiesce_ns" (mean_ns (all (fun s -> s.quiesce)));
  let updates =
    Array.fold_left (fun a req -> if Spec.cls_of req = Spec.Update then a + 1 else a) 0 reqs
  in
  set "reclaim.retired_per_update" (Stats.ratio (float_of_int sh.s_retired) (float_of_int updates));
  set "reclaim.announce_stores_per_op" (float_of_int sh.s_announce_stores /. float_of_int n);
  set "reclaim.limbo_hwm" (float_of_int sh.s_limbo_hwm);
  set "client.cpu_share" (cpu_share own);
  set "client.late_p99_us" (us (late_p99 own.late_ns));
  set "trace.overhead" timed.d_overhead;
  (* spans: TCP and shards rungs on the monotonic clock, direct in cycles *)
  let tcp_spans = Spans.create ~rung:"tcp" ~tid:0 ((n / Spans.sample) + 1) in
  Array.iteri
    (fun i _ ->
      if Spans.sampled i then
        ignore
          (Spans.add tcp_spans ~req:i ~parent:(-1) ~layer:Spans.server_request
             ~t0:tcp.res.sent.(i) ~t1:tcp.res.answered.(i)))
    reqs;
  let direct_spans = Array.to_list (Array.map (fun p -> p.Ladder.spans) timed.d_passes) in
  let ns = float_of_int and cyc = Tsc.cycles_to_ns in
  Spans.write_chrome
    (Filename.concat out (w.name ^ ".trace.json"))
    [ ("tcp", ns, [ tcp_spans ]); ("shards", ns, [ sh.s_spans ]); ("direct", cyc, direct_spans) ];
  (* the layer table: each rung's cost per request and its share of a
     served request's wall time, then self times from the spans *)
  let wall = per_req tcp_rate in
  Printf.eprintf "%s layer table (us per request, share of %.2f us):\n" w.name wall;
  List.iter
    (fun (layer, cost) -> Printf.eprintf "  %-32s %8.2f  %5.1f%%\n" layer cost (100. *. cost /. wall))
    [
      ("server (connection I/O + codec)", server_cost);
      ("shards (queue + batcher)", shards_cost);
      ("struct (2 domains)", per_req struct_rate);
    ];
  Array.iter
    (fun (layer, count, self) ->
      if count > 0 then Printf.eprintf "  self %-27s %8.3f us over %d spans\n" layer (self /. 1e3) count)
    (Spans.self_means ~to_ns:cyc direct_spans);
  (r, late_p99 own.late_ns <= late_limit_ns)

(* ---- driver ---- *)

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Hwts_obs.Json.to_string j);
      output_char oc '\n')

let main ~workload ~seed ~seconds ~trace ~reps ~requests ~exe ~out ~names_from =
  let w =
    match Spec.find workload with
    | Some w -> w
    | None ->
      failwith
        (Printf.sprintf "unknown workload %S (known: %s)" workload
           (String.concat ", " (List.map (fun (w : Spec.t) -> w.name) Spec.all)))
  in
  if not (Sys.file_exists exe) then failwith ("no server binary at " ^ exe);
  (* Everything runs on one CPU: the generator, the server (which inherits
     this thread's affinity) and the in-process rungs' domains.  On a
     2-vCPU KVM guest, wakeups across vCPUs made the run-to-run spread
     20-50%; on one CPU it is 2-7% (README.md). *)
  let cpu = Tsc.num_cpus () - 1 in
  if not (Tsc.pin_to_cpu cpu) then failwith "could not pin to one CPU";
  let reps = Option.value reps ~default:w.reps in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  (* the traced run replays one repetition's stream *)
  let n = match requests with Some n -> n | None -> Spec.requests w ~seconds ~reps in
  let prefill = Spec.prefill_keys w ~seed in
  let warm = Spec.requests_of w ~seed Spec.Warmup (min n (Spec.warmup_requests w)) in
  let f = Check.failures () and attempted = ref 0 in
  let report, valid, extra =
    if trace then
      let r, valid = traced w ~exe ~out ~seed ~n ~prefill ~warm ~f ~attempted in
      (r, valid, [])
    else untraced w ~exe ~out ~seed ~reps ~n ~prefill ~warm ~f ~attempted
  in
  let failed = Atomic.get f.Check.count in
  let correct = failed = 0 in
  let error_rate = float_of_int failed /. float_of_int (max 1 !attempted) in
  let result = Report.result report ~correct ~attempted:!attempted ~failed in
  write_json
    (Filename.concat out (w.name ^ if trace then ".layers.json" else ".json"))
    Hwts_obs.Json.(
      Obj
        ([
           ("workload", Str w.name);
           ("seed", Int seed);
           ("seconds", Float seconds);
           ("reps", Int (if trace then 1 else reps));
           ("requests_per_rep", Int n);
           ("valid", Bool valid);
           ("error_rate", Float error_rate);
           ("nproc", Int (Domain.recommended_domain_count ()));
           ("pinned_cpu", Int cpu);
           ("ocaml", Str Sys.ocaml_version);
           ("result", result);
         ]
        @ extra));
  Report.print report;
  Option.iter (Printf.printf "first failure: %s\n") (Atomic.get f.Check.first);
  Printf.printf "correct=%b valid=%b error_rate=%g\n" correct valid error_rate;
  print_endline (Hwts_obs.Json.to_string result);
  Option.iter
    (fun file ->
      let key = if trace then "per_layer" else "end_to_end" in
      let printed = List.map fst (Report.values report) in
      if List.sort compare (Report.declared ~file ~key) <> List.sort compare printed
      then begin
        prerr_endline ("hwts_bench: printed metrics differ from " ^ key ^ " in " ^ file);
        exit 3
      end)
    names_from;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let reps = ref 0 and requests = ref 0 in
  let exe = ref Server_proc.default_exe and out = ref "bench/e2e/out" in
  let names_from = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds a run is sized for (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the layer ladder instead (default 0)");
      ("--reps", Arg.Set_int reps, "N repetitions, each on a fresh server (default: the workload's)");
      ("--requests", Arg.Set_int requests, "N requests per repetition (default: sized from --seconds)");
      ("--server", Arg.Set_string exe, "PATH hwts-serve binary (default " ^ Server_proc.default_exe ^ ")");
      ("--out", Arg.Set_string out, "DIR where JSON results and traces go (default bench/e2e/out)");
      ("--names-from", Arg.Set_string names_from, "FILE fail unless the printed metrics and units are the ones FILE declares");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hwts_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "hwts_bench: --trace takes 0 or 1";
    exit 2
  end;
  match
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~reps:(if !reps > 0 then Some !reps else None)
      ~requests:(if !requests > 0 then Some !requests else None)
      ~exe:!exe ~out:!out
      ~names_from:(if !names_from = "" then None else Some !names_from)
  with
  | () -> ()
  | exception e ->
    prerr_endline ("hwts_bench: " ^ Printexc.to_string e);
    Printexc.print_backtrace stderr;
    exit 2
