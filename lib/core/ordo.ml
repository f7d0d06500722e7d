(* Clock handshake: the prober publishes t1, the responder stamps t2 on
   seeing it, the prober stamps t3 on seeing the reply.  If clocks agree,
   t1 < t2 < t3 (modulo skew); the offset is bounded by the one-way
   latency, itself bounded by (t3 - t1) / 2.  We take the minimum over
   many rounds (best-case RTT tightens the bound) and keep a safety
   margin of the worst observed inversion. *)

let handshake_rounds rounds =
  let request = Atomic.make 0 in
  let response = Atomic.make 0 in
  let responder =
    Domain.spawn (fun () ->
        let rec serve served =
          if served < rounds then begin
            let r = Atomic.get request in
            if r > served then begin
              Atomic.set response (Tsc.rdtscp_lfence ());
              serve (served + 1)
            end
            else begin
              Tsc.cpu_relax ();
              serve served
            end
          end
        in
        serve 0)
  in
  let bound = ref max_int in
  let inversion = ref 0 in
  for round = 1 to rounds do
    let t1 = Tsc.rdtscp_lfence () in
    Atomic.set request round;
    let rec await () =
      let t2 = Atomic.get response in
      if t2 = 0 || t2 < t1 - 1_000_000_000 then begin
        Tsc.cpu_relax ();
        await ()
      end
      else t2
    in
    let t2 = await () in
    let t3 = Tsc.rdtscp_lfence () in
    (* with synchronized clocks t1 <= t2 <= t3; any violation is a direct
       skew observation *)
    if t2 < t1 then inversion := max !inversion (t1 - t2);
    if t3 < t2 then inversion := max !inversion (t2 - t3);
    bound := min !bound ((t3 - t1 + 1) / 2);
    Atomic.set response 0
  done;
  Domain.join responder;
  max !bound !inversion

let measure_uncertainty ?(rounds = 64) () = handshake_rounds rounds

let cache = Atomic.make 0

(* The cached bound as it stands, 0 before any measurement: exporting
   the registry never runs a handshake. *)
let () =
  Hwts_obs.Registry.gauge "ordo.uncertainty_cycles" (fun () ->
      float_of_int (Atomic.get cache))

let uncertainty () =
  let c = Atomic.get cache in
  if c > 0 then c
  else begin
    let measured =
      (* One core means one TSC: every rdtscp reads the same (monotone)
         counter, so the cross-core offset is exactly zero.  The
         handshake would also lie here — the domains time-slice, so its
         best-case "RTT" is a scheduler quantum (milliseconds), orders
         of magnitude above any real skew. *)
      if Domain.recommended_domain_count () <= 1 then 0
      else measure_uncertainty ()
    in
    ignore (Atomic.compare_and_set cache 0 (max measured 1));
    Atomic.get cache
  end

let cmp a b =
  let u = uncertainty () in
  if a + u < b then `Before else if b + u < a then `After else `Concurrent

module Timestamp () = struct
  let name = "ordo"
  let is_hardware = true
  let window = uncertainty ()
  let read = Tsc.rdtscp_lfence
  let read_floor = Tsc.read_cached

  (* Wait out one uncertainty window so the returned value is globally
     ordered against every earlier [advance] on any core, even if clocks
     were skewed by up to [window]. *)
  let advance () =
    let t = Tsc.rdtscp_lfence () in
    while Tsc.rdtscp_lfence () - t < window do
      Tsc.cpu_relax ()
    done;
    t

  let snapshot = advance
end
