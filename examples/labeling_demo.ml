(* Timestamp labeling (Section IV), demonstrated.

   Prints the taxonomy of the three studied techniques, shows tie behavior
   (the Section III-A corner case) with a frozen mock clock, and shows the
   Jiffy-style strict wrapper restoring strict monotonicity.

     dune exec examples/labeling_demo.exe *)

let () =
  print_endline "Timestamp-labeling profiles (Section IV):";
  List.iter
    (fun p ->
      Format.printf "  %a@." Hwts.Labeling.pp_profile p;
      Format.printf "    TSC applicable: %b, expected benefit: %s@."
        (Hwts.Labeling.tsc_applicable p)
        (match Hwts.Labeling.expected_benefit p with
        | `High -> "high"
        | `Moderate -> "moderate"
        | `Low -> "low"
        | `None -> "none"))
    Hwts.Labeling.all;
  print_newline ();

  (* Tie injection: a frozen clock hands every caller the same value. *)
  let module Frozen = Hwts.Timestamp.Mock () in
  Frozen.set 100;
  Frozen.freeze ();
  Printf.printf "frozen mock: advance() thrice = %d %d %d (ties!)\n"
    (Frozen.advance ()) (Frozen.advance ()) (Frozen.advance ());

  (* vCAS tolerates ties: equal labels order both updates before any
     snapshot at that time, which is a valid linearization. *)
  let module TiedSet = Rangequery.Bst_vcas.Make (Frozen) in
  let t = TiedSet.create () in
  ignore (TiedSet.insert t 1);
  ignore (TiedSet.insert t 2);
  Frozen.thaw ();
  Frozen.set 200;
  Printf.printf "snapshot at a later time sees both: [%s]\n"
    (String.concat "; "
       (List.map string_of_int
          (Array.to_list (TiedSet.range_query t ~lo:0 ~hi:10))));

  (* The strict wrapper (Jiffy's approach) forbids ties at the price of a
     shared word. *)
  let module Strict = Hwts.Timestamp.Strict (Frozen) () in
  Frozen.freeze ();
  let a = Strict.advance () and b = Strict.advance () and c = Strict.advance () in
  Printf.printf "strict wrapper over the same frozen clock: %d < %d < %d\n" a b c;

  (* The lock-free EBR-RQ port *requires* the timestamp's address:
     [Rangequery.Bst_ebrrq_lockfree.Make] takes a LOGICAL signature with
     [val raw : int Atomic.t].  [Hwts.Timestamp.Hardware] has no such
     field, so the TSC port is a *type error*, not a slowdown — try it:

       module Broken =
         Rangequery.Bst_ebrrq_lockfree.Make (Hwts_reclaim.Ebr_backend)
           (Hwts.Timestamp.Hardware)
  *)
  let module L = Hwts.Timestamp.Logical () in
  let module LockFree =
    Rangequery.Bst_ebrrq_lockfree.Make (Hwts_reclaim.Ebr_backend) (L)
  in
  let lf = LockFree.create () in
  ignore (LockFree.insert lf 7);
  Printf.printf
    "\nlock-free EBR-RQ runs with the logical clock only: rq=[%s]\n"
    (String.concat "; "
       (List.map string_of_int
          (Array.to_list (LockFree.range_query lf ~lo:0 ~hi:10))))
