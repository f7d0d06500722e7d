(* Shared across all instantiations: the registry get-or-creates by name,
   and the counters shard per domain internally. *)
let help_attempts = Hwts_obs.Registry.counter "rangequery.vcas.help_attempts"
let help_wins = Hwts_obs.Registry.counter "rangequery.vcas.help_wins"
let read_hops = Hwts_obs.Registry.counter "rangequery.vcas.read_hops"
let prunes = Hwts_obs.Registry.counter "rangequery.vcas.prunes"

module Helping (T : Hwts.Timestamp.S) (C : Link.CELL) = struct
  type 'a t = 'a C.t

  (* Labeling by helping: any thread that needs the timestamp fills it in
     with the *current* clock; the first CAS wins and later helpers agree.
     [help_attempts] counts every encounter with an unlabeled version
     (including the installer labeling its own write); [help_wins] counts
     the CASes that actually assigned the label. *)
  let resolve version =
    if C.label version = 0 then begin
      if Hwts_obs.Config.enabled () then
        Hwts_obs.Counter.incr help_attempts;
      let now = T.read () in
      if C.cas_label version 0 now then
        if Hwts_obs.Config.enabled () then Hwts_obs.Counter.incr help_wins
    end;
    C.label version

  let publish version =
    (* fault injection: version installed but unlabeled — readers must
       help (the helping protocol under test) *)
    Sync.Pause.point ();
    ignore (resolve version)

  (* [read_hops] counts the versions a read stepped over to reach its
     value, not the one it stopped at. *)
  let walked hops =
    if Hwts_obs.Config.enabled () then Hwts_obs.Counter.add read_hops (hops - 1)

  let pruned () = Hwts_obs.Counter.incr prunes
end
