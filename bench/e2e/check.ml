(* The correctness gate: every answer is checked against its request, and
   the inserts and deletes that succeeded are reconciled with a final
   full-range read. *)

open Serve.Wire

(* Failed requests, counted from any domain; the first reason is kept. *)
type failures = { count : int Atomic.t; first : string option Atomic.t }

let failures () = { count = Atomic.make 0; first = Atomic.make None }

let fail f why =
  Atomic.incr f.count;
  ignore (Atomic.compare_and_set f.first None (Some why))

(* Strictly ascending and inside [lo, hi]. *)
let range_ok ~lo ~hi keys =
  let n = Array.length keys in
  let rec go i =
    i >= n
    || keys.(i) >= lo && keys.(i) <= hi
       && (i = 0 || keys.(i - 1) < keys.(i))
       && go (i + 1)
  in
  go 0

(* [None] when [resp] is a well-formed answer to [req], otherwise why not.
   An [Err] answer, an answer of the wrong type and a malformed range all
   count as failures. *)
let rec answer req resp =
  match (req, resp) with
  | _, Err msg -> Some ("error answer: " ^ msg)
  | (Get _ | Insert _ | Delete _), Bool _ -> None
  | Range (lo, hi), Keys (_, keys) ->
    if range_ok ~lo ~hi keys then None
    else Some (Printf.sprintf "range [%d, %d] answer unsorted or out of bounds" lo hi)
  | MultiGet keys, Bools (_, bs) ->
    if Array.length bs = Array.length keys then None
    else
      Some
        (Printf.sprintf "multiget of %d keys answered %d bools"
           (Array.length keys) (Array.length bs))
  | Batch reqs, Rbatch resps ->
    if Array.length reqs <> Array.length resps then
      Some "batch answer has the wrong length"
    else
      let rec first i =
        if i = Array.length reqs then None
        else
          match answer reqs.(i) resps.(i) with
          | None -> first (i + 1)
          | e -> e
      in
      first 0
  | Ping, Pong -> None
  | _ -> Some "answer of the wrong type"

(* Prefill inserts distinct absent keys, so each must answer [true]. *)
let prefill_answer req resp =
  match answer req resp with
  | Some _ as e -> e
  | None -> (
    match resp with
    | Rbatch rs when Array.for_all (fun r -> r = Bool true) rs -> None
    | _ -> Some "prefill insert answered false")

(* Per key: initial membership + successful inserts - successful deletes.
   Keys of one shard are only ever noted by that shard's worker, so the
   ledger may be written from several domains at once. *)
type ledger = int array

let ledger ~key_space ~initial =
  let l = Array.make (key_space + 1) 0 in
  Array.iter (fun k -> l.(k) <- 1) initial;
  l

let rec note (l : ledger) req resp =
  match (req, resp) with
  | Insert k, Bool true -> l.(k) <- l.(k) + 1
  | Delete k, Bool true -> l.(k) <- l.(k) - 1
  | Batch reqs, Rbatch resps when Array.length reqs = Array.length resps ->
    Array.iteri (fun i r -> note l r resps.(i)) reqs
  | _ -> ()

(* [final] is the sorted contents of [1, key_space] at the end.  Returns
   the first key whose ledger disagrees with it: a lost insert, a phantom
   key or a key inserted twice without a delete. *)
let reconcile (l : ledger) final =
  let present = Array.make (Array.length l) 0 in
  let bad = ref None in
  Array.iter
    (fun k ->
      if k < 1 || k >= Array.length l then bad := Some (k, "outside the key space")
      else present.(k) <- 1)
    final;
  let k = ref 1 in
  while !bad = None && !k < Array.length l do
    (match (l.(!k), present.(!k)) with
    | 1, 0 -> bad := Some (!k, "lost: the ledger holds it, the final read does not")
    | 0, 1 -> bad := Some (!k, "phantom: the final read holds it, the ledger does not")
    | n, _ when n <> 0 && n <> 1 ->
      bad := Some (!k, Printf.sprintf "ledger count %d" n)
    | _ -> ());
    incr k
  done;
  !bad
