(* Tests for the key-value vCAS BST: sequential semantics against a
   Hashtbl oracle (qcheck), concurrent ownership, snapshot consistency of
   range queries over bindings, and time travel on values. *)

module KvH = Rangequery.Bst_vcas_kv.Make (Hwts.Timestamp.Hardware)
module L = Hwts.Timestamp.Logical ()
module KvL = Rangequery.Bst_vcas_kv.Make (L)

let basics () =
  let t = KvH.create () in
  Alcotest.(check (option string)) "miss" None (KvH.find t 5);
  Alcotest.(check bool) "add" true (KvH.add t 5 "five");
  Alcotest.(check bool) "add dup" false (KvH.add t 5 "FIVE");
  Alcotest.(check (option string)) "add kept original" (Some "five")
    (KvH.find t 5);
  KvH.set t 5 "cinq";
  Alcotest.(check (option string)) "set overwrote" (Some "cinq") (KvH.find t 5);
  KvH.set t 9 "neuf";
  Alcotest.(check bool) "mem" true (KvH.mem t 9);
  Alcotest.(check (list (pair int string))) "range" [ (5, "cinq"); (9, "neuf") ]
    (KvH.range_query t ~lo:1 ~hi:10);
  Alcotest.(check bool) "remove" true (KvH.remove t 5);
  Alcotest.(check bool) "remove again" false (KvH.remove t 5);
  Alcotest.(check (list (pair int string))) "after remove" [ (9, "neuf") ]
    (KvH.to_alist t);
  Alcotest.(check int) "size" 1 (KvH.size t)

let model_based =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 300) (pair (int_range 0 3) (int_range 1 50)))
  in
  Util.qcheck ~count:150 "kv matches Hashtbl model" gen (fun ops ->
      let t = KvL.create () in
      let oracle : (int, int) Hashtbl.t = Hashtbl.create 64 in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
            let expected = not (Hashtbl.mem oracle key) in
            if expected then Hashtbl.replace oracle key (key * 10);
            KvL.add t key (key * 10) = expected
          | 1 ->
            KvL.set t key (key * 100);
            Hashtbl.replace oracle key (key * 100);
            true
          | 2 ->
            let expected = Hashtbl.mem oracle key in
            Hashtbl.remove oracle key;
            KvL.remove t key = expected
          | _ -> KvL.find t key = Hashtbl.find_opt oracle key)
        ops
      &&
      let sorted =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle [])
      in
      KvL.to_alist t = sorted)

(* Workers only count mismatches: Alcotest's checks print through a
   shared formatter that is not domain-safe, so every assertion runs on
   the main domain. *)
let concurrent_ownership () =
  let t = KvH.create () in
  let n_domains = 4 and ops = 2_000 and key_space = 256 in
  let results =
    Util.spawn_workers n_domains (fun me ->
        let rng = Util.rng (31 + me) in
        let mine : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let bad_removes = ref 0 and bad_finds = ref 0 in
        for i = 1 to ops do
          let k = (Dstruct.Prng.below rng key_space * n_domains) + me in
          match Dstruct.Prng.below rng 3 with
          | 0 ->
            KvH.set t k i;
            Hashtbl.replace mine k i
          | 1 ->
            if KvH.remove t k <> Hashtbl.mem mine k then incr bad_removes;
            Hashtbl.remove mine k
          | _ -> if KvH.find t k <> Hashtbl.find_opt mine k then incr bad_finds
        done;
        ( !bad_removes,
          !bad_finds,
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) mine [])
        ))
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  Alcotest.(check int) "remove agrees" 0 (sum (fun (r, _, _) -> r));
  Alcotest.(check int) "find agrees" 0 (sum (fun (_, f, _) -> f));
  let expected =
    List.sort compare (List.concat_map (fun (_, _, b) -> b) results)
  in
  Alcotest.(check (list (pair int int))) "final bindings" expected (KvH.to_alist t)

(* serial writer bumps one key's value; every RQ must see a prefix-closed
   value (monotone counter), never a torn mix *)
let snapshot_value_consistency () =
  let t = KvH.create () in
  KvH.set t 10 0;
  KvH.set t 20 0;
  let rounds = 2_000 in
  let stop = Atomic.make false in
  let bad = Atomic.make None in
  ignore
    (Util.spawn_workers 2 (fun me ->
         if me = 0 then begin
           for i = 1 to rounds do
             (* the two keys move in lockstep: 20's value is set first *)
             KvH.set t 20 i;
             KvH.set t 10 i
           done;
           Atomic.set stop true
         end
         else
           while not (Atomic.get stop) do
             match KvH.range_query t ~lo:1 ~hi:30 with
             | [ (10, a); (20, b) ] ->
               (* writer order: b is set before a, so b >= a always *)
               if b < a then Atomic.set bad (Some (a, b))
             | other ->
               Atomic.set bad (Some (List.length other, -1))
           done));
  match Atomic.get bad with
  | Some (a, b) -> Alcotest.failf "torn kv snapshot: 10->%d 20->%d" a b
  | None -> ()

let quiescent_range_matches_alist =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150) (pair (int_range 0 2) (int_range 1 60)))
        (pair (int_range 1 60) (int_range 0 30)))
  in
  Util.qcheck ~count:100 "kv quiescent range = filtered alist" gen
    (fun (ops, (lo0, width)) ->
      let t = KvL.create () in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 -> KvL.set t k k
          | 1 -> ignore (KvL.remove t k)
          | _ -> ignore (KvL.add t k (-k)))
        ops;
      let lo = lo0 and hi = lo0 + width in
      let expected =
        List.filter (fun (k, _) -> k >= lo && k <= hi) (KvL.to_alist t)
      in
      KvL.range_query t ~lo ~hi = expected)

let time_travel_values () =
  let t = KvH.create () in
  KvH.set t 1 "v1";
  let past = KvH.snapshot t in
  KvH.set t 1 "v2";
  KvH.set t 2 "new";
  Alcotest.(check (option string)) "past value" (Some "v1") (KvH.lookup_at t past 1);
  Alcotest.(check (option string)) "past absent key" None (KvH.lookup_at t past 2);
  Alcotest.(check (list (pair int string))) "past range" [ (1, "v1") ]
    (KvH.collect_at t past ~lo:0 ~hi:10);
  Alcotest.(check (option string)) "present value" (Some "v2") (KvH.find t 1);
  KvH.snap_release t past

let () =
  Alcotest.run "kv"
    [
      ( "bst-vcas-kv",
        [
          Alcotest.test_case "basics" `Quick basics;
          model_based;
          quiescent_range_matches_alist;
          Alcotest.test_case "concurrent ownership" `Slow concurrent_ownership;
          Alcotest.test_case "snapshot value consistency" `Slow
            snapshot_value_consistency;
          Alcotest.test_case "time travel values" `Quick time_travel_values;
        ] );
    ]
