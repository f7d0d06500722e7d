let max_slots = 256

(* One atomic flag per slot: false = free. *)
let taken = Array.init max_slots (fun _ -> Atomic.make false)

let key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let find_free () =
  let rec scan i =
    if i >= max_slots then failwith "Slot.acquire: all slots in use"
    else if
      (not (Atomic.get taken.(i))) && Atomic.compare_and_set taken.(i) false true
    then i
    else scan (i + 1)
  in
  scan 0

(* What the domain runs when it releases its slot, while it still holds
   it. *)
let hooks : (unit -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let on_release f =
  let cell = Domain.DLS.get hooks in
  cell := f :: !cell

let run_hooks () =
  let cell = Domain.DLS.get hooks in
  let hs = !cell in
  cell := [];
  List.iter (fun f -> f ()) hs

let current () = !(Domain.DLS.get key)

let acquire () =
  let cell = Domain.DLS.get key in
  match !cell with
  | Some _ -> failwith "Slot.acquire: domain already holds a slot"
  | None ->
    let slot = find_free () in
    cell := Some slot;
    slot

let release () =
  let cell = Domain.DLS.get key in
  match !cell with
  | None -> ()
  | Some slot ->
    run_hooks ();
    cell := None;
    Atomic.set taken.(slot) false

let my_slot () =
  match current () with Some s -> s | None -> acquire ()

let with_slot f =
  match current () with
  | Some s -> f s
  | None ->
    let s = acquire () in
    Fun.protect ~finally:release (fun () -> f s)
