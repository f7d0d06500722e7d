type t = { name : string; cell : int Atomic.t }

let create name = { name; cell = Atomic.make 0 }
let name t = t.name

(* A function of its own, not a closure over [v]: observing allocates
   nothing. *)
let rec raise_to cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_to cell v

let observe t v = if Config.enabled () then raise_to t.cell v

let get t = Atomic.get t.cell
let reset t = Atomic.set t.cell 0
