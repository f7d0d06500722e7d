(* Figure 1's real-hardware spot check (the model sweeps are
   [Model.Figures]): tight loops on this machine's actual TSC and an
   actual contended atomic, however many cores we have. *)
let real_acquire_loop ~seconds advance =
  let stop = Atomic.make false in
  let counter_domain =
    Domain.spawn (fun () ->
        let ops = ref 0 in
        while not (Atomic.get stop) do
          for _ = 1 to 256 do
            ignore (Sys.opaque_identity (advance ()))
          done;
          ops := !ops + 256
        done;
        !ops)
  in
  Unix.sleepf seconds;
  Atomic.set stop true;
  let ops = Domain.join counter_domain in
  float_of_int ops /. seconds /. 1e6

let run_real () =
  print_endline "## fig1 (real hardware, single worker domain) [Mops/s]";
  let module L = Hwts.Timestamp.Logical () in
  List.iter
    (fun (name, f) ->
      Printf.printf "  %-20s %10.2f Mops/s\n%!" name
        (real_acquire_loop ~seconds:0.3 f))
    [
      ("logical-faa", L.advance);
      ("rdtsc", Tsc.rdtsc);
      ("rdtscp", Tsc.rdtscp);
      ("rdtscp+lfence", Tsc.rdtscp_lfence);
      ("cpuid+rdtsc", Tsc.rdtsc_cpuid);
    ];
  print_newline ()
