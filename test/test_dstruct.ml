(* Set semantics of every range-query structure, under the logical and
   the hardware clock, and under every reclamation backend for the
   structures built over one: sequential semantics, model-based random
   testing against the sequential reference, and multi-domain stress
   with deterministic final state.  Then the PRNG and tower heights. *)

module type SET = Dstruct.Ordered_set.RQ

(* Each labelled by its own name, plus the backend where that varies. *)
let sets : (string * (module SET)) list =
  let open Workload.Targets in
  List.concat_map
    (fun (name, make) ->
      let sensitive = reclaim_sensitive name in
      List.concat_map
        (fun ts ->
          List.map
            (fun reclaim ->
              let inst = make reclaim ts in
              let module S = (val inst.structure) in
              ( (if sensitive then S.name ^ "/" ^ inst.reclaim else S.name),
                inst.structure ))
            (if sensitive then all_reclaims else [ `Ebr ]))
        [ `Logical; `Hardware ])
    all_instances

let basics (module S : SET) () =
  let t = S.create () in
  Alcotest.(check bool) "empty contains" false (S.contains t 5);
  Alcotest.(check bool) "insert 5" true (S.insert t 5);
  Alcotest.(check bool) "insert 5 dup" false (S.insert t 5);
  Alcotest.(check bool) "contains 5" true (S.contains t 5);
  Alcotest.(check bool) "insert 3" true (S.insert t 3);
  Alcotest.(check bool) "insert 8" true (S.insert t 8);
  Alcotest.(check (list int)) "to_list" [ 3; 5; 8 ] (S.to_list t);
  Alcotest.(check bool) "delete 5" true (S.delete t 5);
  Alcotest.(check bool) "delete 5 again" false (S.delete t 5);
  Alcotest.(check bool) "contains 5 after delete" false (S.contains t 5);
  Alcotest.(check (list int)) "to_list after delete" [ 3; 8 ] (S.to_list t);
  Alcotest.(check int) "size" 2 (S.size t)

let negative_and_boundary (module S : SET) () =
  let t = S.create () in
  let keys = [ -1000; -1; 0; 1; 1_000_000 ] in
  List.iter (fun k -> Alcotest.(check bool) "ins" true (S.insert t k)) keys;
  List.iter (fun k -> Alcotest.(check bool) "has" true (S.contains t k)) keys;
  Alcotest.(check (list int)) "order" (List.sort compare keys) (S.to_list t);
  List.iter (fun k -> Alcotest.(check bool) "del" true (S.delete t k)) keys;
  Alcotest.(check (list int)) "empty" [] (S.to_list t)

let delete_patterns (module S : SET) () =
  (* Exercise tree deletes with 0, 1 and 2 children in every shape. *)
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 50; 25; 75; 12; 37; 62; 87; 30; 40 ];
  Alcotest.(check bool) "del leaf" true (S.delete t 12);
  Alcotest.(check bool) "del one-child" true (S.delete t 87);
  Alcotest.(check bool) "del two-children" true (S.delete t 25);
  Alcotest.(check bool) "del root-ish two-children" true (S.delete t 50);
  Alcotest.(check (list int)) "remaining" [ 30; 37; 40; 62; 75 ] (S.to_list t);
  List.iter
    (fun k -> Alcotest.(check bool) "still there" true (S.contains t k))
    [ 30; 37; 40; 62; 75 ]

(* Model-based: random ops mirrored into the sequential reference. *)
let model_based label (module S : SET) =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 400) (pair (int_range 0 2) (int_range 1 60)))
  in
  Util.qcheck ~count:120 label gen
    (fun ops ->
      let t = S.create () and oracle = Dstruct.Seq_set.create () in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 -> S.insert t key = Dstruct.Seq_set.insert oracle key
          | 1 -> S.delete t key = Dstruct.Seq_set.delete oracle key
          | _ -> S.contains t key = Dstruct.Seq_set.contains oracle key)
        ops
      && S.to_list t = Dstruct.Seq_set.to_list oracle)

(* Concurrency: each domain owns the keys congruent to its index, so the
   final state is deterministic; cross-domain contains calls add read
   traffic over shared state. *)
let concurrent_ownership (module S : SET) () =
  let n_domains = 4 and ops = 3_000 and key_space = 512 in
  let t = S.create () in
  let finals =
    Util.spawn_workers n_domains (fun me ->
        let rng = Util.rng (1000 + me) in
        let mine = Hashtbl.create 64 in
        for _ = 1 to ops do
          let k = (Dstruct.Prng.below rng key_space * n_domains) + me in
          match Dstruct.Prng.below rng 3 with
          | 0 ->
            let expected = not (Hashtbl.mem mine k) in
            let got = S.insert t k in
            assert (got = expected);
            Hashtbl.replace mine k ()
          | 1 ->
            let expected = Hashtbl.mem mine k in
            let got = S.delete t k in
            assert (got = expected);
            Hashtbl.remove mine k
          | _ ->
            (* read someone else's key: result is unconstrained, but the
               call must not crash or loop *)
            ignore (S.contains t (Dstruct.Prng.below rng (key_space * n_domains)))
        done;
        (* a domain that exits online would stall a QSBR peer's grace
           wait forever *)
        S.offline t;
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) mine []))
  in
  let expected = List.sort compare (List.concat finals) in
  Alcotest.(check (list int)) "final state" expected (S.to_list t)

(* Concurrency on a *shared* key range: we cannot predict the final set, but
   insert/delete return values must balance per key. *)
let concurrent_shared (module S : SET) () =
  let n_domains = 4 and ops = 2_000 and key_space = 64 in
  let t = S.create () in
  let balances =
    Util.spawn_workers n_domains (fun me ->
        let rng = Util.rng (77 + me) in
        let balance = Array.make key_space 0 in
        for _ = 1 to ops do
          let k = Dstruct.Prng.below rng key_space in
          match Dstruct.Prng.below rng 2 with
          | 0 -> if S.insert t k then balance.(k) <- balance.(k) + 1
          | _ -> if S.delete t k then balance.(k) <- balance.(k) - 1
        done;
        S.offline t;
        balance)
  in
  let final = S.to_list t in
  Util.check_sorted_unique S.name final;
  for k = 0 to key_space - 1 do
    let net =
      List.fold_left (fun acc b -> acc + b.(k)) 0 balances
    in
    let present = List.mem k final in
    (* net successful inserts minus deletes must be 0 or 1, and match
       presence: a key is present iff one more insert than delete won. *)
    Alcotest.(check int)
      (Printf.sprintf "%s key %d net" S.name k)
      (if present then 1 else 0)
      net
  done

(* One group per case, one test per structure in it. *)
let case speed f label set = Alcotest.test_case label speed (f set)

let cases =
  [
    ("basics", case `Quick basics);
    ("negative+boundary", case `Quick negative_and_boundary);
    ("delete patterns", case `Quick delete_patterns);
    ("sequential model", model_based);
    ("concurrent ownership", case `Slow concurrent_ownership);
    ("concurrent shared", case `Slow concurrent_shared);
  ]

(* ---------- PRNG and tower heights ---------- *)

let prng_deterministic () =
  let a = Dstruct.Prng.make ~seed:7 and b = Dstruct.Prng.make ~seed:7 in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "same stream" (Dstruct.Prng.next a) (Dstruct.Prng.next b)
  done;
  let c = Dstruct.Prng.make ~seed:8 in
  Alcotest.(check bool) "different seed diverges" true
    (Dstruct.Prng.next c <> Dstruct.Prng.next a)

let prng_below_in_range =
  Util.qcheck ~count:500 "Prng.below stays in range"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 1_000_000))
    (fun (bound, seed) ->
      let rng = Dstruct.Prng.make ~seed in
      let v = Dstruct.Prng.below rng bound in
      v >= 0 && v < bound)

let prng_split_independent () =
  let parent = Dstruct.Prng.make ~seed:3 in
  let child = Dstruct.Prng.split parent in
  let xs = List.init 100 (fun _ -> Dstruct.Prng.next parent) in
  let ys = List.init 100 (fun _ -> Dstruct.Prng.next child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prng_float_unit_interval () =
  let rng = Dstruct.Prng.make ~seed:11 in
  for _ = 1 to 10_000 do
    let f = Dstruct.Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let skip_level_distribution () =
  let n = 100_000 in
  let counts = Array.make (Dstruct.Skip_level.max_level + 1) 0 in
  for _ = 1 to n do
    let l = Dstruct.Skip_level.random () in
    Alcotest.(check bool) "in bounds" true
      (l >= 0 && l <= Dstruct.Skip_level.max_level);
    counts.(l) <- counts.(l) + 1
  done;
  (* geometric with p = 1/2: level 0 about half, level 1 about a quarter *)
  let frac l = float_of_int counts.(l) /. float_of_int n in
  Alcotest.(check bool) "level 0 ~ 1/2" true (abs_float (frac 0 -. 0.5) < 0.02);
  Alcotest.(check bool) "level 1 ~ 1/4" true (abs_float (frac 1 -. 0.25) < 0.02);
  Alcotest.(check bool) "level 2 ~ 1/8" true (abs_float (frac 2 -. 0.125) < 0.02)

let () =
  Alcotest.run "dstruct"
    (List.map
       (fun (group, case) ->
         (group, List.map (fun (label, set) -> case label set) sets))
       cases
    @ [
        ( "prng",
          [
            Alcotest.test_case "deterministic" `Quick prng_deterministic;
            prng_below_in_range;
            Alcotest.test_case "split independent" `Quick prng_split_independent;
            Alcotest.test_case "float in [0,1)" `Quick prng_float_unit_interval;
            Alcotest.test_case "skip level distribution" `Quick
              skip_level_distribution;
          ] );
      ])
