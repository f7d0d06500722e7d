(* hwts-serve: sharded range-query server.

   Shards one of the range-query structures — all shards labeling
   against ONE timestamp provider, so cross-shard snapshot labels stay
   comparable — and serves the length-prefixed binary protocol in
   lib/serve/wire.ml over TCP.  Connections may pipeline arbitrarily
   deep; responses come back in request order.  Each shard has a worker
   domain, unless the process may use only one CPU (its affinity mask):
   then the server loop runs the shards' tasks itself, and the
   "listening on" line reports 0 worker domains.

   The headline mechanism is per-shard range-query coalescing: each
   drain executes every queued range under a single snapshot
   acquisition (Wire batch frames and deep pipelines both feed it).
   --no-coalesce switches the batcher to one-acquisition-per-range for
   A/B comparison; the acquire amortization shows up in
   serve.rq.snapshots vs serve.rq.ops in --metrics-out.

   SIGINT/SIGTERM drain gracefully: stop accepting, flush every
   in-flight response, drain the shards and join their domains, write
   --metrics-out, exit 0. *)

open Cmdliner

let stop_requested = Atomic.make false

let serve host port structure provider reclaim shards key_space no_coalesce
    max_seconds metrics_out =
  let coalesce = not no_coalesce in
  match
    Serve.Shards.create ~reclaim ~structure ~provider ~shards ~key_space
      ~coalesce ()
  with
  | exception Invalid_argument msg ->
    Printf.eprintf "hwts-serve: %s\n" msg;
    1
  | router ->
    (* inline, this domain drains the shards: give it their nursery *)
    if Serve.Shards.worker_domains router = 0 then
      Gc.set
        { (Gc.get ()) with minor_heap_size = Serve.Shards.shard_minor_heap_words };
    let server =
      try Serve.Server.start ~host ~port router
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "hwts-serve: bind failed: %s\n" (Unix.error_message e);
        exit 1
    in
    (* before the banner: a harness may signal as soon as it reads it *)
    let handle = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
    Sys.set_signal Sys.sigint handle;
    Sys.set_signal Sys.sigterm handle;
    Hwts_obs.Registry.gauge "serve.worker_domains" (fun () ->
        float_of_int (Serve.Shards.worker_domains router));
    Printf.printf
      "hwts-serve: listening on %s:%d (%s over %s, reclaim %s, %d shards \
       on %d worker domains, key space %d, coalesce=%b)\n\
       %!"
      host (Serve.Server.port server)
      (Serve.Shards.structure_name router)
      (Serve.Shards.provider router)
      (Serve.Shards.reclaim router)
      (Serve.Shards.shard_count router)
      (Serve.Shards.worker_domains router)
      (Serve.Shards.key_space router)
      coalesce;
    let deadline =
      match max_seconds with
      | Some s -> Unix.gettimeofday () +. s
      | None -> infinity
    in
    while
      (not (Atomic.get stop_requested)) && Unix.gettimeofday () < deadline
    do
      (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    Serve.Server.stop server;
    (match metrics_out with
    | None -> ()
    | Some path -> Hwts_obs.Registry.write_json_lines path);
    Printf.printf "hwts-serve: drained, exiting\n%!";
    0

let () =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind")
  in
  let port =
    Arg.(
      value & opt int 7621
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks a free one)")
  in
  let structure =
    Arg.(
      value
      & opt string "bst-vcas"
      & info [ "s"; "structure" ] ~docv:"STRUCTURE"
          ~doc:"Range-query structure to shard (bst-vcas, citrus-vcas, ...)")
  in
  let provider =
    let provider_conv =
      let parse s =
        match Workload.Targets.ts_of_name s with
        | Some ts -> Ok ts
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown provider %S; known providers:\n%s" s
                 (Workload.Targets.provider_help ())))
      in
      Arg.conv
        ( parse,
          fun ppf ts ->
            Format.pp_print_string ppf (Workload.Targets.ts_name ts) )
    in
    Arg.(
      value
      & opt provider_conv `Logical
      & info [ "provider" ] ~docv:"PROVIDER"
          ~doc:
            ("Timestamp provider shared by every shard.  Known providers:\n"
            ^ Workload.Targets.provider_help ()))
  in
  let reclaim =
    let reclaim_conv =
      let parse s =
        match Workload.Targets.reclaim_of_name s with
        | Some r -> Ok r
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown reclaim backend %S; known backends:\n%s"
                 s
                 (Workload.Targets.reclaim_help ())))
      in
      Arg.conv
        ( parse,
          fun ppf r ->
            Format.pp_print_string ppf (Workload.Targets.reclaim_name r) )
    in
    Arg.(
      value
      & opt reclaim_conv `Ebr
      & info [ "reclaim" ] ~docv:"BACKEND"
          ~doc:
            ("Safe-memory-reclamation backend for every shard.  Known \
              backends:\n"
            ^ Workload.Targets.reclaim_help ()))
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Key partitions, each with a worker domain when the process \
             may use more than one CPU")
  in
  let key_space =
    Arg.(
      value & opt int 16_384
      & info [ "key-space" ] ~docv:"N"
          ~doc:"Served keys are [1, $(docv)], partitioned contiguously")
  in
  let no_coalesce =
    Arg.(
      value & flag
      & info [ "no-coalesce" ]
          ~doc:
            "One snapshot acquisition per range instead of per drained \
             batch")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Exit (gracefully) after $(docv) seconds, for harnesses")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the metrics registry as JSON lines on shutdown")
  in
  let doc = "sharded range-query server with snapshot-sharing batched RQs" in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "hwts-serve" ~doc)
          Term.(
            const serve $ host $ port $ structure $ provider $ reclaim
            $ shards $ key_space $ no_coalesce $ max_seconds $ metrics_out)))
