(* Unit tests of the benchmark's own logic: no sockets, no server. *)

open E2e
open Serve.Wire

let test_nearest_rank () =
  let a = Array.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50 of 1..100" 50 (Stats.percentile a 50.);
  Alcotest.(check int) "p99 of 1..100" 99 (Stats.percentile a 99.);
  Alcotest.(check int) "p100 is the max" 100 (Stats.percentile a 100.);
  Alcotest.(check int) "p0 is the min" 1 (Stats.percentile a 0.);
  Alcotest.(check int) "p50 of 3 samples" 3 (Stats.percentile [| 5; 1; 3 |] 50.);
  Alcotest.(check int) "p99 of 10 samples is the max" 10
    (Stats.percentile (Array.init 10 (fun i -> i + 1)) 99.);
  Alcotest.(check int) "no samples" 0 (Stats.percentile [||] 99.);
  Alcotest.(check (float 0.)) "median of an even count" 2.5
    (Stats.median [ 4.; 1.; 2.; 3. ])

let test_poisson () =
  let rate = 10_000. and n = 200_000 in
  let make seed = Spec.poisson_schedule (Dstruct.Prng.make ~seed) ~rate n in
  let a = make 7 in
  Alcotest.(check bool) "same seed, same schedule" true (a = make 7);
  Alcotest.(check bool) "another seed, another schedule" false (a = make 8);
  Alcotest.(check bool) "due times never go back" true
    (Array.for_all Fun.id (Array.init (n - 1) (fun i -> a.(i) <= a.(i + 1))));
  let mean_gap_ns = float_of_int a.(n - 1) /. float_of_int n in
  let want = 1e9 /. rate in
  if Float.abs (mean_gap_ns -. want) > 0.02 *. want then
    Alcotest.failf "mean gap %.1f ns, want %.1f ns within 2%%" mean_gap_ns want;
  let w = Option.get (Spec.find "mixed-open") in
  Alcotest.(check bool) "workload schedule is seeded" true
    (Spec.schedule w ~seed:3 (Spec.Measured 0) 100
    = Spec.schedule w ~seed:3 (Spec.Measured 0) 100)

let test_ledger () =
  let l = Check.ledger ~key_space:8 ~initial:[| 1; 2; 3 |] in
  Check.note l (Insert 4) (Bool true);
  Check.note l (Insert 3) (Bool false);
  Check.note l (Delete 2) (Bool true);
  Check.note l (Delete 6) (Bool false);
  Alcotest.(check (option (pair int string))) "consistent" None
    (Check.reconcile l [| 1; 3; 4 |]);
  (match Check.reconcile l [| 1; 3 |] with
  | Some (4, _) -> ()
  | _ -> Alcotest.fail "a lost insert of key 4 went unnoticed");
  (match Check.reconcile l [| 1; 3; 4; 5 |] with
  | Some (5, _) -> ()
  | _ -> Alcotest.fail "a phantom key 5 went unnoticed");
  Check.note l (Batch [| Insert 7; Insert 8 |]) (Rbatch [| Bool true; Bool false |]);
  (match Check.reconcile l [| 1; 3; 4 |] with
  | Some (7, _) -> ()
  | _ -> Alcotest.fail "a batched insert was not noted")

let test_range_check () =
  let ok keys = Check.range_ok ~lo:10 ~hi:20 keys in
  Alcotest.(check bool) "sorted, in bounds" true (ok [| 10; 12; 20 |]);
  Alcotest.(check bool) "empty" true (ok [||]);
  Alcotest.(check bool) "unsorted" false (ok [| 12; 11 |]);
  Alcotest.(check bool) "duplicate" false (ok [| 12; 12 |]);
  Alcotest.(check bool) "below lo" false (ok [| 9; 12 |]);
  Alcotest.(check bool) "above hi" false (ok [| 12; 21 |]);
  Alcotest.(check bool) "range answer rejected" true
    (Check.answer (Range (10, 20)) (Keys (0, [| 15; 14 |])) <> None)

let test_answer_types () =
  let bad req resp = Check.answer req resp <> None in
  Alcotest.(check bool) "get answered with bool" false (bad (Get 1) (Bool true));
  Alcotest.(check bool) "get answered with keys" true (bad (Get 1) (Keys (0, [||])));
  Alcotest.(check bool) "error answer" true (bad (Insert 1) (Err "no"));
  Alcotest.(check bool) "one bool per key" false
    (bad (MultiGet [| 1; 2 |]) (Bools (0, [| true; false |])));
  Alcotest.(check bool) "bools short of keys" true
    (bad (MultiGet [| 1; 2 |]) (Bools (0, [| true |])));
  Alcotest.(check bool) "prefill insert answered false" true
    (Check.prefill_answer (Batch [| Insert 1 |]) (Rbatch [| Bool false |]) <> None)

(* Names as BENCHMARK.json allows them: 1 to 64 of [A-Za-z0-9_.-] *)
let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let test_names () =
  let check what s =
    if not (valid_name s) then Alcotest.failf "%s %S is not [A-Za-z0-9_.-]+" what s
  in
  List.iter
    (fun (w : Spec.t) ->
      check "workload" w.name;
      List.iter (fun (_, cls) -> check "class metric" (cls ^ "_p99_us")) (Spec.classes w))
    Spec.all;
  let classes name = List.map snd (Spec.classes (Option.get (Spec.find name))) in
  Alcotest.(check (list string)) "point-kv sends no ranges" [ "read"; "update" ] (classes "point-kv");
  Alcotest.(check (list string)) "mixed-open sends every class" [ "read"; "update"; "range" ]
    (classes "mixed-open");
  List.iter
    (fun (x : Report.metric) ->
      check "metric" x.name;
      check "unit" (String.map (fun c -> if c = '/' || c = '%' then '_' else c) x.unit))
    (Report.end_to_end @ Report.per_layer);
  Alcotest.(check bool) "a space is rejected" false (valid_name "a b")

let test_inputs () =
  List.iter
    (fun (w : Spec.t) ->
      let p = Spec.prefill_keys w ~seed:5 in
      Alcotest.(check int) (w.name ^ " prefills half") (w.key_space / 2) (Array.length p);
      let sorted = Stats.sorted_copy p in
      Alcotest.(check bool) (w.name ^ " prefill keys distinct, in range") true
        (sorted.(0) >= 1
        && sorted.(Array.length sorted - 1) <= w.key_space
        && Check.range_ok ~lo:1 ~hi:w.key_space sorted);
      let a = Spec.requests_of w ~seed:5 (Spec.Measured 0) 1000 in
      Alcotest.(check bool) (w.name ^ " stream is seeded") true
        (a = Spec.requests_of w ~seed:5 (Spec.Measured 0) 1000);
      Alcotest.(check bool) (w.name ^ " warmup is another stream") false
        (a = Spec.requests_of w ~seed:5 Spec.Warmup 1000))
    Spec.all

let () =
  Alcotest.run "e2e"
    [
      ( "e2e",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "poisson schedule" `Quick test_poisson;
          Alcotest.test_case "ledger reconciler" `Quick test_ledger;
          Alcotest.test_case "range checker" `Quick test_range_check;
          Alcotest.test_case "answer types" `Quick test_answer_types;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "seeded inputs" `Quick test_inputs;
        ] );
    ]
