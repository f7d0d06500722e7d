(* The metric catalogue and the output format.  BENCHMARK.json at the
   repository root lists the same names; the smoke alias fails when the
   two disagree. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Untraced run, every workload: the gated metrics.  Throughput and the
   latency percentiles are measured too, but their medians moved by more
   than a 10% bound between two sets of runs of one commit, so they are
   reported ungated (hwts_bench.ml, README.md). *)
let end_to_end = [ m "setup_s" "s"; m "server_rss_mb" "MB" ]

(* Traced run ([--trace 1]), every workload. *)
let per_layer =
  [
    m "wire.decode_req_ns" "ns";
    m "wire.encode_resp_ns" "ns";
    m "wire.resp_bytes" "bytes";
    m "server.req_per_s" "req/s";
    m "server.cost_us" "us";
    m "server.share" "ratio";
    m "shards.req_per_s" "req/s";
    m "shards.cost_us" "us";
    m "shards.done_p50_us" "us";
    m "shards.done_p99_us" "us";
    m "shards.acquires_per_range" "ratio";
    m "shards.drain_ranges_mean" "count";
    m "snapshot.acquire_ns" "ns";
    m "snapshot.acquire_p99_ns" "ns";
    m "snapshot.close_ns" "ns";
    m "snapshot.read_ns_per_key" "ns";
    m "struct.req_per_s" "req/s";
    m "struct.cost_us" "us";
    m "struct.get_ns" "ns";
    m "struct.get_p99_ns" "ns";
    m "struct.insert_ns" "ns";
    m "struct.insert_p99_ns" "ns";
    m "struct.delete_ns" "ns";
    m "struct.delete_p99_ns" "ns";
    m "struct.words_per_op" "words";
    m "reclaim.quiesce_ns" "ns";
    m "reclaim.retired_per_update" "ratio";
    m "reclaim.announce_stores_per_op" "ratio";
    m "reclaim.limbo_hwm" "count";
    m "client.cpu_share" "ratio";
    m "client.late_p99_us" "us";
    m "trace.overhead" "ratio";
  ]

(* Collects one run's values in catalogue order. *)
type t = { workload : string; catalogue : metric list; mutable values : (metric * float) list }

let create ~workload catalogue = { workload; catalogue; values = [] }

let set t name v =
  match List.find_opt (fun x -> x.name = name) t.catalogue with
  | None -> invalid_arg ("Report.set: unknown metric " ^ name)
  | Some x -> t.values <- (x, if Float.is_finite v then v else 0.) :: t.values

let values t =
  List.map
    (fun x ->
      match List.assq_opt x t.values with
      | Some v -> (x, v)
      | None -> invalid_arg ("Report: metric not measured: " ^ x.name))
    t.catalogue

(* One "<workload> <metric> <value> <unit>" line per metric. *)
let print t =
  List.iter
    (fun (x, v) -> Printf.printf "%s %s %.6g %s\n" t.workload x.name v x.unit)
    (values t)

(* The last line of standard output. *)
let result t ~correct ~attempted ~failed =
  Hwts_obs.Json.(
    Obj
      [
        ("correct", Bool correct);
        ("attempted", Int attempted);
        ("failed", Int failed);
        ( "metrics",
          Obj
            (List.map
               (fun (x, v) -> (x.name, Obj [ ("value", Float v); ("unit", Str x.unit) ]))
               (values t)) );
      ])

(* The (name, unit) pairs BENCHMARK.json lists under [key]. *)
let declared ~file ~key =
  match Hwts_obs.Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok j -> (
    match Hwts_obs.Json.member key j with
    | Some (Hwts_obs.Json.List xs) ->
      let field k x = Option.bind (Hwts_obs.Json.member k x) Hwts_obs.Json.to_str in
      List.filter_map
        (fun x ->
          match (field "name" x, field "unit" x) with
          | Some name, Some unit -> Some { name; unit }
          | _ -> None)
        xs
    | _ -> failwith (file ^ ": no " ^ key ^ " list"))
