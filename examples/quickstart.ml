(* Quickstart: a lock-free BST with linearizable range queries, timed by
   the hardware timestamp counter.

     dune exec examples/quickstart.exe

   Swapping [Hwts.Timestamp.Hardware] for a fresh [Hwts.Timestamp.Logical ()]
   is the paper's entire intervention — the structure code is unchanged. *)

module Set = Rangequery.Bst_vcas.Make (Hwts.Timestamp.Hardware)

let () =
  Printf.printf "timestamp provider: %s (invariant TSC: %b)\n\n"
    Hwts.Timestamp.Hardware.name
    (Tsc.has_invariant_tsc ());
  let t = Set.create () in

  (* Elemental operations *)
  List.iter (fun k -> ignore (Set.insert t k)) [ 42; 17; 99; 3; 64; 17 ];
  Printf.printf "inserted {42,17,99,3,64} (dup 17 rejected)\n";
  Printf.printf "contains 17: %b, contains 18: %b\n" (Set.contains t 17)
    (Set.contains t 18);
  ignore (Set.delete t 42);
  Printf.printf "deleted 42\n\n";

  (* A linearizable range query: a consistent snapshot of [1, 70] *)
  let snap = Set.range_query t ~lo:1 ~hi:70 in
  Printf.printf "range [1,70]  = [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int snap)));
  Printf.printf "range [90,99] = [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int (Set.range_query t ~lo:90 ~hi:99))));

  (* Concurrent use: domains share the structure freely *)
  let writers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                for k = 100 + (d * 100) to 149 + (d * 100) do
                  ignore (Set.insert t k)
                done)))
  in
  List.iter Domain.join writers;
  Printf.printf "\nafter 2 concurrent writers: |[100,299]| = %d\n"
    (Array.length (Set.range_query t ~lo:100 ~hi:299))
