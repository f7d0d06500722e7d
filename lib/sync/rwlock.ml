(* State word: -1 = writer holds it; n >= 0 = n readers.  A separate
   waiting-writer count gates new readers so writers cannot starve. *)
type t = { state : int Atomic.t; waiting_writers : int Atomic.t }

let make () =
  { state = Atomic.make 0; waiting_writers = Atomic.make 0 }

let try_read_lock t =
  Atomic.get t.waiting_writers = 0
  &&
  let s = Atomic.get t.state in
  s >= 0 && Atomic.compare_and_set t.state s (s + 1)

(* The backoff state is allocated only when the first attempt fails, so
   an uncontended acquire allocates nothing. *)
let read_lock t =
  if not (try_read_lock t) then begin
    let backoff = Backoff.make () in
    while not (try_read_lock t) do
      Backoff.once backoff
    done
  end;
  (* fault injection: stretch the shared-mode section (EBR-RQ labels
     updates inside it) *)
  Pause.point ()

let read_unlock t =
  let prev = Atomic.fetch_and_add t.state (-1) in
  assert (prev > 0)

let try_write_lock t =
  Atomic.get t.state = 0 && Atomic.compare_and_set t.state 0 (-1)

let write_lock t =
  ignore (Atomic.fetch_and_add t.waiting_writers 1);
  if not (try_write_lock t) then begin
    let backoff = Backoff.make () in
    while not (try_write_lock t) do
      Backoff.once backoff
    done
  end;
  ignore (Atomic.fetch_and_add t.waiting_writers (-1));
  (* fault injection: stretch the exclusive section (an RQ's snapshot
     point lives inside it) *)
  Pause.point ()

let write_unlock t =
  let swapped = Atomic.compare_and_set t.state (-1) 0 in
  assert swapped

(* No [Fun.protect] closures; the [match] still releases on a raise. *)
let with_read t f =
  read_lock t;
  match f () with
  | v ->
    read_unlock t;
    v
  | exception e ->
    read_unlock t;
    raise e

let with_write t f =
  write_lock t;
  match f () with
  | v ->
    write_unlock t;
    v
  | exception e ->
    write_unlock t;
    raise e

let readers t = max 0 (Atomic.get t.state)
let write_held t = Atomic.get t.state = -1
