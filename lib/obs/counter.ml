(* One atomic per thread slot: [incr] writes only the caller's own word,
   [sum] pays the full scan on the cold read path.  The slots are not
   padded: OCaml 5.1 cannot keep a block on a cache line of its own. *)

type t = { name : string; shards : int Atomic.t array }

let create name =
  { name; shards = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make 0) }

let name t = t.name

let incr t =
  if Config.enabled () then
    ignore (Atomic.fetch_and_add t.shards.(Sync.Slot.my_slot ()) 1)

let add t n =
  if n <> 0 && Config.enabled () then
    ignore (Atomic.fetch_and_add t.shards.(Sync.Slot.my_slot ()) n)

(* Bracket API for depth gauges.  [enter] consults the kill switch and
   tells the caller whether it counted; [exit] replays that decision
   instead of re-reading the switch, so a [Config.set_enabled] flip
   between the two can never drive the gauge negative (or leak a
   phantom increment). *)
let enter t =
  if Config.enabled () then begin
    ignore (Atomic.fetch_and_add t.shards.(Sync.Slot.my_slot ()) 1);
    true
  end
  else false

let exit t ~entered =
  if entered then
    ignore (Atomic.fetch_and_add t.shards.(Sync.Slot.my_slot ()) (-1))

let sum t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.shards
let reset t = Array.iter (fun a -> Atomic.set a 0) t.shards
