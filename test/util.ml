(* Shared helpers for the test suites. *)

(* Every worker is joined before the first one's exception, in spawn
   order, is raised again: a failed worker leaves none running. *)
let spawn_workers n body =
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () -> Sync.Slot.with_slot (fun _ -> body i)))
  in
  let joined =
    List.map
      (fun d ->
        match Domain.join d with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      domains
  in
  List.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    joined

(* A deterministic PRNG per test. *)
let rng seed = Dstruct.Prng.make ~seed

(* [a] permuted in place by [rng] (Fisher-Yates). *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Dstruct.Prng.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let qcheck ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check_sorted_unique what keys =
  let rec ok = function
    | a :: (b :: _ as rest) -> a < b && ok rest
    | _ -> true
  in
  Alcotest.(check bool) (what ^ " sorted+unique") true (ok keys)

(* Words allocated by [f ()] on this domain, minor and major, counting a
   promoted block once.  The minor count comes from [Gc.minor_words],
   which reads this domain's young pointer: the minor field of
   [Gc.counters] only moves at a minor collection on OCaml 5, so it can
   miss or double most of a small delta.  Its major and promoted fields
   are exact, and their difference is what was allocated directly in
   the major heap. *)
let allocated_words f =
  let _, pr0, ma0 = Gc.counters () in
  let mi0 = Gc.minor_words () in
  let r = f () in
  let mi1 = Gc.minor_words () in
  let _, pr1, ma1 = Gc.counters () in
  (r, int_of_float (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)))
