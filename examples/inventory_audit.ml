(* Inventory audit: a warehouse keyed by SKU, with pickers removing items
   and restockers adding them while an auditor takes consistent shelf
   counts per aisle with range queries.

   Uses the EBR-RQ port: deleted SKUs are recovered from limbo lists, so
   an audit linearized before a pick still counts the picked item.

     dune exec examples/inventory_audit.exe *)

module L = Hwts.Timestamp.Logical ()
module Warehouse = Rangequery.Citrus_ebrrq.Make (Hwts_reclaim.Ebr_backend) (L)

let aisle_size = 1_000
let aisles = 8

let () =
  let t = Warehouse.create () in
  (* stock every aisle half full: even slots occupied *)
  for a = 0 to aisles - 1 do
    for slot = 1 to aisle_size / 2 do
      ignore (Warehouse.insert t ((a * aisle_size) + (slot * 2)))
    done
  done;
  let stop = Atomic.make false in
  let churn =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                let rng = Dstruct.Prng.make ~seed:(31 + d) in
                let moved = ref 0 in
                while not (Atomic.get stop) do
                  let sku = Dstruct.Prng.below rng (aisles * aisle_size) in
                  (if Dstruct.Prng.below rng 2 = 0 then
                     ignore (Warehouse.delete t sku)
                   else ignore (Warehouse.insert t sku));
                  incr moved
                done;
                !moved)))
  in
  for round = 1 to 5 do
    let counts =
      List.init aisles (fun a ->
          Array.length
            (Warehouse.range_query t ~lo:(a * aisle_size)
               ~hi:(((a + 1) * aisle_size) - 1)))
    in
    Printf.printf "audit %d: per-aisle counts = [%s], limbo=%d reclaimed=%d\n%!"
      round
      (String.concat "; " (List.map string_of_int counts))
      (Warehouse.limbo_size t) (Warehouse.reclaimed t)
  done;
  Atomic.set stop true;
  let moved = List.map Domain.join churn in
  Printf.printf "churn ops: %d; final stock %d\n"
    (List.fold_left ( + ) 0 moved)
    (Warehouse.size t)
