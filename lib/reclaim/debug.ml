(* HWTS_RECLAIM_DEBUG=1 makes reclamation-protocol violations (an op
   section entered twice, a retire outside any op section, an unpaired
   read-section exit, a grace wait inside a read section) fatal.  By
   default they only bump [reclaim.invariant_violations] and the
   operation degrades (limbo over-retains) instead of aborting a
   server. *)

let enabled =
  lazy
    (match Sys.getenv_opt "HWTS_RECLAIM_DEBUG" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let invariant_violations =
  Hwts_obs.Registry.counter "reclaim.invariant_violations"

let check ok what =
  if not ok then begin
    Hwts_obs.Counter.incr invariant_violations;
    if Lazy.force enabled then
      failwith ("reclaim invariant violated: " ^ what)
  end

(* Poison-on-free detection: a structure's RQ collection calls this when
   a node that reports itself freed still satisfies the snapshot's
   covers predicate — the observable form of a use-after-free under GC. *)
let poison_hits = Hwts_obs.Registry.counter "reclaim.poison_hits"

let poison_hit what =
  Hwts_obs.Counter.incr poison_hits;
  if Lazy.force enabled then failwith ("use-after-free detected: " ^ what)
