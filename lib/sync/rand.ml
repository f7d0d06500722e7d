(* Seeded per-domain jitter streams for the synchronization primitives.

   Backoff (and anything else in lib/sync that wants randomness) must not
   draw from a global PRNG — a shared stream is itself a contention point
   and, worse, makes seeded runs irreproducible: whichever domain loses a
   CAS first consumes the next value.  This is the same shape as
   [Pause]'s fault streams: one xorshift state per domain, derived from
   (seed, slot id), reseeded whenever [set_seed] bumps the epoch, so a
   torture round or a --seed harness run replays with the same jitter. *)

let seed_word = Atomic.make 0x5EED

(* Bumped on every [set_seed] so per-domain streams reseed lazily. *)
let epoch = Atomic.make 0

let set_seed s =
  Atomic.set seed_word s;
  ignore (Atomic.fetch_and_add epoch 1)

type dstate = { mutable epoch : int; mutable x : int }

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { epoch = -1; x = 0 })

(* splitmix-style avalanche: (seed, domain id) -> stream start differing
   in every bit *)
let mix h =
  let h = h * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  let h = h lxor (h lsr 32) in
  if h = 0 then 1 else h

let my_id () =
  match Slot.current () with
  | Some s -> s
  | None -> (Domain.self () :> int) land 0xFF

let next () =
  let st = Domain.DLS.get dls in
  let e = Atomic.get epoch in
  if st.epoch <> e then begin
    st.epoch <- e;
    st.x <- mix (Atomic.get seed_word lxor ((my_id () + 1) * 0x2545F491))
  end;
  let x = st.x in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st.x <- x;
  x land max_int

let below n = if n <= 1 then 0 else next () mod n
