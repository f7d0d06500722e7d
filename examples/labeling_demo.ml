(* Timestamp labeling (Section IV), demonstrated.

   Prints the taxonomy of the three studied techniques, shows tie behavior
   (the Section III-A corner case) with a frozen mock clock, and shows the
   strict TSC wrapper restoring strict monotonicity.

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

  (* The strict wrapper forbids ties without a shared-word CAS: the
     domain's slot id fills a label's low 8 bits, and a stamp that does
     not pass the domain's previous one is bumped locally. *)
  let module Strict = Hwts.Timestamp.Strict_sharded (Frozen) () in
  Frozen.freeze ();
  let a = Strict.advance () in
  let b = Strict.advance () in
  let c = Strict.advance () in
  Printf.printf
    "strict wrapper over the same frozen clock: %d < %d < %d (stamps %d, %d, \
     %d)\n"
    a b c (a asr 8) (b asr 8) (c asr 8);

  (* The profiles above describe the paper's schemes: its lock-free
     EBR-RQ labels by DCSS on the timestamp's address, which no TSC
     provider has.  This library's lock-free EBR-RQ labels its leaves by
     helping instead, as vCAS labels a version, so it runs over the TSC
     too. *)
  let module LockFree =
    Rangequery.Bst_ebrrq_lockfree.Make (Hwts_reclaim.Ebr_backend)
      (Hwts.Timestamp.Hardware)
  in
  let lf = LockFree.create () in
  ignore (LockFree.insert lf 7);
  ignore (LockFree.insert lf 9);
  ignore (LockFree.delete lf 9);
  Printf.printf
    "\nlock-free EBR-RQ, labeled by helping, over rdtscp: rq=[%s]\n"
    (String.concat "; "
       (List.map string_of_int
          (Array.to_list (LockFree.range_query lf ~lo:0 ~hi:10))))
