(* Per-domain scratch reuse.  A [Scratch.t] hands each domain one lazily
   created instance of some mutable workspace (traversal arrays, collection
   runs) so hot paths stop allocating them per operation.  The global
   kill switch ([HWTS_SCRATCH=0] or [set_enabled false]) reverts to fresh
   allocation on every [get] — the pre-reuse behavior — which is what the
   hotpath microbench uses as its baseline. *)

let initial =
  match Sys.getenv_opt "HWTS_SCRATCH" with
  | Some ("0" | "false" | "off" | "no") -> false
  | _ -> true

let state = Atomic.make initial
let enabled () = Atomic.get state
let set_enabled b = Atomic.set state b

type 'a t = { create : unit -> 'a; key : 'a Domain.DLS.key }

let make create = { create; key = Domain.DLS.new_key create }
let get t = if Atomic.get state then Domain.DLS.get t.key else t.create ()
