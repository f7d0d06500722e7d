(* Seeded multi-domain torture driver: run a randomized elemental +
   range-query workload against a structure under fault injection, record
   the history with the structure's own clock, and hand it to the
   snapshot oracle.  Everything is derived from one seed so a failing
   round replays exactly (modulo true races — the replay outcome is
   reported as the [reproduced] flag). *)

type config = {
  structure : string;
  provider : Workload.Targets.ts;
  reclaim : Workload.Targets.reclaim;
  seed : int;
  rounds : int;
  domains : int;
  ops_per_domain : int;
  key_space : int;  (* keys drawn from [1, key_space] *)
  prefill : int;
  faults : bool;
  fault_period : int;
  multi : bool;
      (* also draw multi-point snapshot ops (Hwts_snapshot handles) *)
}

type failure = {
  round : int;
  round_seed : int;
  initial : int list;
  events : Lin_check.event list;
  minimized : Lin_check.event list;
  reproduced : bool;
}

type outcome = {
  config : config;
  rounds_run : int;
  events_total : int;
  faults_injected : int;
  failure : failure option;
}

let default_config ?(reclaim = `Ebr) ?(multi = false) ~structure ~provider
    ~seed () =
  {
    structure;
    provider;
    reclaim;
    seed;
    rounds = 12;
    domains = 4;
    ops_per_domain = 12;
    key_space = 12;
    prefill = 4;
    faults = true;
    fault_period = 4;
    multi;
  }

(* splitmix-style avalanche, for deriving independent per-round and
   per-domain seeds from the master seed *)
let mix a b =
  (* 63-bit truncations of the splitmix64 constants *)
  let h = a lxor (b * 0x1E3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
  (h lxor (h lsr 31)) land max_int

let validate cfg =
  if cfg.domains < 1 then invalid_arg "check: domains must be >= 1";
  if cfg.domains * cfg.ops_per_domain > Lin_check.max_events then
    invalid_arg
      (Printf.sprintf "check: domains*ops_per_domain must be <= %d"
         Lin_check.max_events);
  if cfg.key_space < 1 || 2 * cfg.key_space > Lin_check.max_key then
    invalid_arg
      (Printf.sprintf "check: key_space must be in [1, %d]"
         (Lin_check.max_key / 2))

let run_round cfg ~round_seed =
  let inst =
    Workload.Targets.instance ~reclaim:cfg.reclaim cfg.structure cfg.provider
  in
  let (module S) = inst.Workload.Targets.structure in
  let t = S.create () in
  let prefill_rng = Dstruct.Prng.make ~seed:(mix round_seed 0) in
  let initial =
    List.filter
      (fun k -> S.insert t k)
      (List.init cfg.prefill (fun _ ->
           1 + Dstruct.Prng.below prefill_rng cfg.key_space))
  in
  (* The prefilling domain never operates again: leave its slot's grace
     participation, or QSBR rounds would retain every retirement. *)
  S.offline t;
  let recorder = Recorder.create ~now:inst.Workload.Targets.now ~domains:cfg.domains in
  let worker me =
    let rng = Dstruct.Prng.make ~seed:(mix round_seed (me + 1)) in
    for _ = 1 to cfg.ops_per_domain do
      let key () = 1 + Dstruct.Prng.below rng cfg.key_space in
      (* weights: updates dominate so snapshots have races to catch; the
         multi arms only widen the draw when enabled, so multi-less
         configs (and every pre-existing fixture) replay verbatim *)
      ignore
        (match Dstruct.Prng.below rng (if cfg.multi then 10 else 8) with
        | 0 | 1 | 2 ->
          let k = key () in
          Recorder.run recorder ~dom:me (Lin_check.Insert k) (fun () ->
              (Lin_check.Bool (S.insert t k), None))
        | 3 | 4 ->
          let k = key () in
          Recorder.run recorder ~dom:me (Lin_check.Delete k) (fun () ->
              (Lin_check.Bool (S.delete t k), None))
        | 5 ->
          let k = key () in
          Recorder.run recorder ~dom:me (Lin_check.Contains k) (fun () ->
              (Lin_check.Bool (S.contains t k), None))
        | 6 | 7 ->
          let lo = key () in
          let hi = lo + Dstruct.Prng.below rng cfg.key_space in
          Recorder.run recorder ~dom:me (Lin_check.Range (lo, hi)) (fun () ->
              let ts, keys = S.range_query_labeled t ~lo ~hi in
              (Lin_check.Keys (Array.to_list keys), Some ts))
        | 8 ->
          (* 2-4 membership probes against ONE snapshot handle; every
             constituent must answer from the cut named by the one label *)
          let ks =
            List.init (2 + Dstruct.Prng.below rng 3) (fun _ -> key ())
          in
          Recorder.run recorder ~dom:me (Lin_check.Multi_get ks) (fun () ->
              Hwts_snapshot.with_snapshot (module S) t (fun snap ->
                  let bs = Hwts_snapshot.multi_get snap (Array.of_list ks) in
                  ( Lin_check.Bools (Array.to_list bs),
                    Some (Hwts_snapshot.label snap) )))
        | _ ->
          (* 1-2 range scans against ONE snapshot handle *)
          let rgs =
            List.init
              (1 + Dstruct.Prng.below rng 2)
              (fun _ ->
                let lo = key () in
                (lo, lo + Dstruct.Prng.below rng cfg.key_space))
          in
          Recorder.run recorder ~dom:me (Lin_check.Multi_range rgs) (fun () ->
              Hwts_snapshot.with_snapshot (module S) t (fun snap ->
                  let kss =
                    Hwts_snapshot.multi_range snap (Array.of_list rgs)
                  in
                  ( Lin_check.Keyss (Array.to_list (Array.map Array.to_list kss)),
                    Some (Hwts_snapshot.label snap) ))));
      (* Op boundary = quiescence point: the densest announcement cadence
         a QSBR user can run, so grace races get maximal exercise. *)
      S.quiesce t
    done;
    S.offline t
  in
  if cfg.faults then
    Sync.Pause.enable ~period:cfg.fault_period ~seed:round_seed ();
  (* Backoff jitter comes from the seeded Sync.Rand stream: reseeding per
     round keeps the whole round a function of [round_seed]. *)
  Sync.Rand.set_seed round_seed;
  Fun.protect
    ~finally:(fun () -> if cfg.faults then Sync.Pause.disable ())
    (fun () ->
      let workers =
        List.init cfg.domains (fun i ->
            Domain.spawn (fun () -> Sync.Slot.with_slot (fun _ -> worker i)))
      in
      List.iter Domain.join workers);
  (initial, Recorder.events recorder)

let order_of cfg = (Workload.Targets.info_of cfg.provider).label_order

let run ?(log = fun (_ : string) -> ()) cfg =
  validate cfg;
  let order = order_of cfg in
  let injected0 = Sync.Pause.injected () in
  let events_total = ref 0 in
  let rounds_run = ref 0 in
  let failure = ref None in
  (try
     for round = 1 to cfg.rounds do
       incr rounds_run;
       let round_seed = mix cfg.seed round in
       let initial, events = run_round cfg ~round_seed in
       events_total := !events_total + List.length events;
       match Oracle.verify ~initial ~order events with
       | Oracle.Pass ->
         log
           (Printf.sprintf "%s/%s round %d/%d ok (%d events)" cfg.structure
              (Workload.Targets.ts_name cfg.provider)
              round cfg.rounds (List.length events))
       | Oracle.Violation { events; minimized } ->
         (* replay the same round: a deterministic failure reproduces, a
            racy one may not — either way the history above is real *)
         let initial', events' = run_round cfg ~round_seed in
         let reproduced =
           match Oracle.verify ~initial:initial' ~order events' with
           | Oracle.Violation _ -> true
           | Oracle.Pass -> false
         in
         failure :=
           Some { round; round_seed; initial; events; minimized; reproduced };
         raise_notrace Exit
     done
   with Exit -> ());
  {
    config = cfg;
    rounds_run = !rounds_run;
    events_total = !events_total;
    faults_injected = Sync.Pause.injected () - injected0;
    failure = !failure;
  }

(* ---------- trace artifacts ---------- *)

let trace_header = "# hwts-check trace"

let trace_path cfg =
  Printf.sprintf "check-%s-%s-seed%d.trace" cfg.structure
    (Workload.Targets.ts_name cfg.provider)
    cfg.seed

let reclaim_tag cfg =
  (* only tagged when off the default, so pre-existing fixtures and their
     readers keep working verbatim *)
  if cfg.reclaim = `Ebr then ""
  else " reclaim=" ^ Workload.Targets.reclaim_name cfg.reclaim

let multi_tag cfg = if cfg.multi then " multi=true" else ""

let write_trace ~path cfg f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" trace_header;
      Printf.fprintf oc
        "structure=%s provider=%s%s%s seed=%d round=%d round_seed=%d \
         domains=%d ops_per_domain=%d key_space=%d faults=%b \
         fault_period=%d reproduced=%b\n"
        cfg.structure
        (Workload.Targets.ts_name cfg.provider)
        (reclaim_tag cfg) (multi_tag cfg) cfg.seed f.round f.round_seed
        cfg.domains cfg.ops_per_domain cfg.key_space cfg.faults
        cfg.fault_period f.reproduced;
      Printf.fprintf oc "\nfull history (%d events):\n%s"
        (List.length f.events)
        (Oracle.explain ~initial:f.initial f.events);
      Printf.fprintf oc "\nminimized counterexample (%d events):\n%s"
        (List.length f.minimized)
        (Oracle.explain ~initial:f.initial f.minimized))

(* ---------- replayable fixtures ----------

   A fixture is a checked-in trace artifact recording one *passing*
   seeded round: the config line carries everything [run_round] needs
   (including [prefill], which failure traces omit — their replay goes
   through [run]), and the history below it documents what the round
   looked like when it was recorded.  [read_fixture] parses the config
   back, so a regression test can re-run the exact round and re-verify
   it with the oracle — the whole workload, fault schedule and provider
   tour being functions of [round_seed]. *)

let write_fixture ~path cfg ~round_seed ~initial ~events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" trace_header;
      Printf.fprintf oc
        "fixture=true structure=%s provider=%s%s%s seed=%d round_seed=%d \
         domains=%d ops_per_domain=%d key_space=%d prefill=%d faults=%b \
         fault_period=%d\n"
        cfg.structure
        (Workload.Targets.ts_name cfg.provider)
        (reclaim_tag cfg) (multi_tag cfg) cfg.seed round_seed cfg.domains
        cfg.ops_per_domain cfg.key_space cfg.prefill cfg.faults
        cfg.fault_period;
      Printf.fprintf oc "\nrecorded history (%d events, oracle: pass):\n%s"
        (List.length events)
        (Oracle.explain ~initial events))

let read_fixture path =
  let parse_line line =
    let kv = Hashtbl.create 16 in
    List.iter
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          Hashtbl.replace kv
            (String.sub tok 0 i)
            (String.sub tok (i + 1) (String.length tok - i - 1))
        | None -> ())
      (String.split_on_char ' ' line);
    let str k = Hashtbl.find_opt kv k in
    let int k = Option.bind (str k) int_of_string_opt in
    let bool k = Option.bind (str k) bool_of_string_opt in
    (* absent in fixtures recorded before the reclaim axis: default ebr *)
    let reclaim =
      match Option.bind (str "reclaim") Workload.Targets.reclaim_of_name with
      | Some r -> r
      | None -> `Ebr
    in
    (* absent in fixtures recorded before the multi-point axis: off *)
    let multi = Option.value (bool "multi") ~default:false in
    match
      ( str "structure",
        Option.bind (str "provider") Workload.Targets.ts_of_name,
        int "seed", int "round_seed", int "domains", int "ops_per_domain",
        int "key_space", int "prefill", bool "faults", int "fault_period" )
    with
    | ( Some structure, Some provider, Some seed, Some round_seed,
        Some domains, Some ops_per_domain, Some key_space, Some prefill,
        Some faults, Some fault_period ) ->
      Ok
        ( {
            structure; provider; reclaim; seed;
            rounds = 1;
            domains; ops_per_domain; key_space; prefill; faults; fault_period;
            multi;
          },
          round_seed )
    | _ -> Error (path ^ ": incomplete fixture config line")
  in
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* sequence the reads explicitly: tuple components evaluate
           right-to-left, which would swap the two lines *)
        match
          let header = input_line ic in
          let config_line = input_line ic in
          (header, config_line)
        with
        | exception End_of_file -> Error (path ^ ": truncated fixture")
        | header, config_line ->
          if header <> trace_header then
            Error (path ^ ": not a check trace artifact")
          else if
            not
              (String.length config_line >= 12
              && String.sub config_line 0 12 = "fixture=true")
          then Error (path ^ ": not a fixture (failure traces replay via run)")
          else parse_line config_line)
