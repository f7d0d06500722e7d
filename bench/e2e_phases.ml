(* e2e_phases: where the served benchmark's memory goes, phase by phase.

   Runs a workload's repetitions as hwts_bench does (a fresh hwts-serve
   per repetition, prefill over the wire, warmup, the measured requests,
   a final Range over the whole key space, every answer checked), pinned
   to one CPU, and prints the server's VmHWM and VmRSS after it starts
   and after each phase.  The gated server_rss_mb is the VmHWM after the
   final read.  Each repetition's server is stopped with SIGTERM, as
   hwts_bench stops it, and its --metrics-out gives the collections it
   ran and the words they promoted.

     dune build bin/hwts_serve.exe bench/e2e_phases.exe
     _build/default/bench/e2e_phases.exe --workload scan-large
     make e2e-phases WORKLOAD=all

   One line per repetition and phase, and its final-read rise (VmHWM
   after the final read less VmHWM after the measured phase: what the
   one large answer adds to the gated number), then per workload a
   Markdown table of the medians over the repetitions (VmHWM, then
   VmRSS, in MB, then the rise), and the medians of the server's
   gc.minor_collections, gc.promoted_words and gc.major_words at
   shutdown.
   Every input comes from seed 1, as in every documented run.  Exits 1
   if an answer was wrong. *)

open E2e

let phases = [ "start"; "prefill"; "warmup"; "measured"; "final" ]
let gauges = [ "gc.minor_collections"; "gc.promoted_words"; "gc.major_words" ]
let seed = 1

(* VmHWM and VmRSS of [pid], in MB *)
let memory pid =
  let hwm = ref nan and rss = ref nan in
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      Seq.iter
        (fun line ->
          let read r fmt = try Scanf.sscanf line fmt (fun kb -> r := float_of_int kb /. 1024.) with _ -> () in
          read hwm "VmHWM: %d kB";
          read rss "VmRSS: %d kB")
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  (!hwm, !rss)

(* VmHWM after the final read less VmHWM after the measured phase *)
let final_rise mem =
  match List.rev mem with
  | (final, _) :: (measured, _) :: _ -> final -. measured
  | _ -> nan

(* The phases of one repetition against the server [pid] on [port]:
   (VmHWM, VmRSS) after each of [phases]. *)
let phases_of (w : Spec.t) ~pid ~port ~rep ~n ~prefill ~warm ~f =
  let fds = Loadgen.connect ~port Spec.connections in
  Fun.protect ~finally:(fun () -> Loadgen.close fds) @@ fun () ->
  let ledger = Check.ledger ~key_space:w.key_space ~initial:prefill in
  let checked reqs i resp =
    match Check.answer reqs.(i) resp with
    | None -> Check.note ledger reqs.(i) resp
    | Some why -> Check.fail f why
  in
  let window n = match w.loop with Spec.Closed d -> d | Spec.Open _ -> n in
  let phase reqs ~due ~window ~on_answer =
    ignore (Loadgen.run fds { reqs; due; window } ~on_answer);
    memory pid
  in
  let started = memory pid in
  let frames = Spec.prefill_frames prefill in
  let prefilled =
    phase frames ~due:None ~window:4 ~on_answer:(fun i resp ->
        Option.iter (Check.fail f) (Check.prefill_answer frames.(i) resp))
  in
  let warmed =
    phase warm
      ~due:(Spec.schedule w ~seed Spec.Warmup (Array.length warm))
      ~window:(window (Array.length warm)) ~on_answer:(checked warm)
  in
  let reqs = Spec.requests_of w ~seed (Spec.Measured rep) n in
  let measured =
    phase reqs ~due:(Spec.schedule w ~seed (Spec.Measured rep) n) ~window:(window n)
      ~on_answer:(checked reqs)
  in
  let final = [| Serve.Wire.Range (1, w.key_space) |] in
  let finished =
    phase final ~due:None ~window:1 ~on_answer:(fun _ resp ->
        match resp with
        | Serve.Wire.Keys (_, keys) ->
          Option.iter
            (fun (k, why) -> Check.fail f (Printf.sprintf "key %d %s" k why))
            (Check.reconcile ledger keys)
        | _ -> Check.fail f "final read: not Keys")
  in
  [ started; prefilled; warmed; measured; finished ]

(* The value of each of [gauges] in a --metrics-out file (nan if absent). *)
let gauge_values metrics =
  let lines =
    match Hwts_obs.Json.parse_lines (In_channel.with_open_bin metrics In_channel.input_all) with
    | Ok lines -> lines
    | Error _ | (exception Sys_error _) -> []
  in
  let value name =
    List.find_map
      (fun m ->
        let open Hwts_obs.Json in
        if Option.bind (member "name" m) to_str = Some name then
          Option.bind (member "value" m) to_float
        else None)
      lines
  in
  List.map (fun name -> Option.value (value name) ~default:nan) gauges

(* One repetition: (VmHWM, VmRSS) after each of [phases], and the
   server's [gauges] at shutdown. *)
let rep (w : Spec.t) ~exe ~rep ~n ~prefill ~warm ~f =
  let metrics = Filename.temp_file "e2e_phases" ".jsonl" in
  let srv = Server_proc.start ~exe ~metrics w in
  let pid = srv.Server_proc.pid in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill pid Sys.sigkill with _ -> ());
        (try ignore (Unix.waitpid [] pid) with _ -> ());
        Unix.close srv.Server_proc.out
      end;
      try Sys.remove metrics with _ -> ())
  @@ fun () ->
  let mem = phases_of w ~pid ~port:srv.Server_proc.port ~rep ~n ~prefill ~warm ~f in
  stopped := true;
  Option.iter (Check.fail f) (Server_proc.stop srv);
  (mem, gauge_values metrics)

let run (w : Spec.t) ~exe ~seconds ~f =
  let reps = w.reps in
  let n = Spec.requests w ~seconds ~reps in
  let prefill = Spec.prefill_keys w ~seed in
  let warm = Spec.requests_of w ~seed Spec.Warmup (min n (Spec.warmup_requests w)) in
  let runs =
    List.init reps (fun r ->
        let mem, gc = rep w ~exe ~rep:r ~n ~prefill ~warm ~f in
        List.iter2
          (fun name (hwm, rss) ->
            Printf.printf "%s rep %d %-8s VmHWM %6.2f MB  VmRSS %6.2f MB\n%!" w.name r name hwm rss)
          phases mem;
        Printf.printf "%s rep %d final-read rise %.2f MB\n%!" w.name r (final_rise mem);
        List.iter2 (Printf.printf "%s rep %d %s %.0f\n%!" w.name r) gauges gc;
        (mem, gc))
  in
  let gcs = List.map snd runs and runs = List.map fst runs in
  let cells f = String.concat "" (List.mapi (fun k name -> Printf.sprintf " %*s |" (String.length name) (f k)) phases) in
  (* a Markdown header rule, right-aligned, for columns named [names] *)
  let rule names = String.concat "" (List.map (fun name -> " " ^ String.make (String.length name - 1) '-' ^ ": |") names) in
  let row what pick =
    Printf.printf "| %-10s | %-5s |%s\n" w.name what
      (cells (fun k -> Printf.sprintf "%.2f" (Stats.median (List.map (fun m -> pick (List.nth m k)) runs))))
  in
  Printf.printf "\n%s: medians over %d repetitions, MB\n\n| workload   |       |%s\n|------------|-------|%s\n"
    w.name reps (cells (List.nth phases)) (rule phases);
  row "VmHWM" fst;
  row "VmRSS" snd;
  Printf.printf "\n%s: final-read rise (final - measured VmHWM), median %.2f MB\n" w.name
    (Stats.median (List.map final_rise runs));
  Printf.printf "\n%s: the server's gc gauges at shutdown, medians over %d repetitions\n\n| workload   |%s\n|------------|%s\n| %-10s |%s\n\n"
    w.name reps
    (String.concat "" (List.map (Printf.sprintf " %s |") gauges))
    (rule gauges) w.name
    (String.concat ""
       (List.mapi
          (fun k name ->
            Printf.sprintf " %*.0f |" (String.length name) (Stats.median (List.map (fun g -> List.nth g k) gcs)))
          gauges))

let () =
  let workload = ref "" and seconds = ref 10. in
  let exe = ref Server_proc.default_exe in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME|all workload to run");
      ("--seconds", Arg.Set_float seconds, "S measured seconds a run is sized for (default 10)");
      ("--server", Arg.Set_string exe, "PATH hwts-serve binary (default " ^ Server_proc.default_exe ^ ")");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e_phases --workload NAME|all [--seconds S] [--server PATH]";
  let ws =
    if !workload = "all" then Spec.all
    else
      match Spec.find !workload with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("e2e_phases: unknown workload " ^ !workload);
        exit 2
  in
  (* one CPU, as hwts_bench runs: the server inherits the affinity *)
  if not (Tsc.pin_to_cpu (Tsc.num_cpus () - 1)) then failwith "could not pin to one CPU";
  let f = Check.failures () in
  List.iter
    (fun w ->
      run w ~exe:!exe ~seconds:!seconds ~f)
    ws;
  Option.iter (Printf.printf "first failure: %s\n") (Atomic.get f.Check.first);
  if Atomic.get f.Check.count > 0 then exit 1
