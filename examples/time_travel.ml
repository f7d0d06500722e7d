(* Time travel: persistent snapshots on the versioned BST.

   The version histories that make linearizable range queries possible
   also make O(1) persistent snapshots free: an open snapshot handle pins
   its timestamp, and the structure's past stays queryable — from any
   domain — while writers keep going.

     dune exec examples/time_travel.exe *)

module Ledger = Rangequery.Bst_vcas.Make (Hwts.Timestamp.Hardware)

let show label keys =
  Printf.printf "%-22s [%s]\n" label
    (String.concat "; " (Array.to_list (Array.map string_of_int keys)))

let () =
  let t = Ledger.create () in
  (* day 1: accounts 100..109 open *)
  for k = 100 to 109 do
    ignore (Ledger.insert t k)
  done;
  let day1 = Ledger.snapshot t in

  (* day 2: some accounts close, new ones open *)
  ignore (Ledger.delete t 103);
  ignore (Ledger.delete t 107);
  ignore (Ledger.insert t 110);
  ignore (Ledger.insert t 111);
  let day2 = Ledger.snapshot t in

  (* day 3: concurrent activity while the auditor replays history *)
  let writers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                for k = 200 + (d * 10) to 205 + (d * 10) do
                  ignore (Ledger.insert t k)
                done)))
  in
  show "day 1 (frozen):" (Ledger.collect_at t day1 ~lo:100 ~hi:199);
  show "day 2 (frozen):" (Ledger.collect_at t day2 ~lo:100 ~hi:199);
  List.iter Domain.join writers;
  show "today:" (Ledger.range_query t ~lo:100 ~hi:299);
  Printf.printf "\naccount 103: open on day 1? %b  open on day 2? %b\n"
    (Ledger.lookup_at t day1 103)
    (Ledger.lookup_at t day2 103);

  (* snapshots pin history against pruning; release when done *)
  Ledger.snap_release t day1;
  Ledger.snap_release t day2;
  let edges, versions = Ledger.version_chain_stats t in
  Printf.printf "version chains after release: %d versions over %d edges\n"
    versions edges
