let max_level = 19
let seed = Atomic.make 0x5ee1

let key : Prng.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Prng.make ~seed:(Atomic.fetch_and_add seed 0x9E37))

type seen = { key : int; words : int; live : bool }

let reseed seed = Domain.DLS.set key (Prng.make ~seed)

let random () =
  let bits = Prng.next (Domain.DLS.get key) in
  let rec count l bits =
    if l >= max_level || bits land 1 = 0 then l else count (l + 1) (bits lsr 1)
  in
  count 0 bits
