(* Offline snapshot oracle: merge a recorded history, decide whether it
   is explainable as a sequential set execution (with every labeled range
   query linearized at its claimed label), and on failure shrink the
   history to a small counterexample a human can read. *)

type verdict =
  | Pass
  | Violation of {
      events : Lin_check.event list;
      minimized : Lin_check.event list;
    }

let by_start e1 e2 = compare e1.Lin_check.start_t e2.Lin_check.start_t

(* Shrink in two steps.  First find the first failing cut in completion
   order: the cut at an event [r] holds every event completed by [r]'s
   response.  If that fails, it is retried together with every event
   still pending at the response (invoked no later than it), since a
   concurrent update that completes later may be what explains [r]; [r]
   is the culprit only if the cut still fails with them — the first
   observation inconsistent with everything before and around it.  Then
   greedily drop any other single event whose removal keeps the cut
   failing with the same culprit: unpinned delta-debugging can discard a
   supporting update and manufacture a smaller failure with a different
   cause, which reads as a misdiagnosis.  Quadratic in history size,
   bounded by [Lin_check.max_events]. *)
let minimize ?initial ?order events =
  let fails evs = not (Lin_check.check ?initial ?order evs) in
  if not (fails events) then events
  else
    let by_end e1 e2 = compare e1.Lin_check.end_t e2.Lin_check.end_t in
    (* [Some (culprit, cut)] for the first culprit in completion order *)
    let failing_cut evs =
      let rec grow acc = function
        | [] -> None
        | r :: rest ->
          let acc = r :: acc in
          let pending =
            List.filter
              (fun e -> e.Lin_check.start_t <= r.Lin_check.end_t)
              rest
          in
          let cut = List.rev_append acc pending in
          if fails (List.rev acc) && fails cut then Some (r, cut)
          else grow acc rest
      in
      grow [] (List.stable_sort by_end evs)
    in
    match failing_cut events with
    | None -> events
    | Some (culprit, cut) ->
      (* Only accept a removal that keeps the *same* event as the first
         inconsistent observation: dropping e.g. a supporting insert
         manufactures a fresh failure with an earlier culprit, which the
         cut recomputation detects and rejects. *)
      let still_culprit cand =
        match failing_cut cand with Some (c, _) -> c == culprit | None -> false
      in
      let rec shrink evs =
        let n = List.length evs in
        let arr = Array.of_list evs in
        let rec try_drop i =
          if i >= n then evs
          else if arr.(i) == culprit then try_drop (i + 1)
          else
            let cand = List.filteri (fun j _ -> j <> i) evs in
            if fails cand && still_culprit cand then shrink cand
            else try_drop (i + 1)
        in
        try_drop 0
      in
      shrink cut

let verify ?initial ?order events =
  let events = List.sort by_start events in
  if Lin_check.check ?initial ?order events then Pass
  else Violation { events; minimized = minimize ?initial ?order events }

(* ---------- rendering ---------- *)

let string_of_op = function
  | Lin_check.Insert k -> Printf.sprintf "insert(%d)" k
  | Lin_check.Delete k -> Printf.sprintf "delete(%d)" k
  | Lin_check.Contains k -> Printf.sprintf "contains(%d)" k
  | Lin_check.Range (lo, hi) -> Printf.sprintf "range(%d,%d)" lo hi
  | Lin_check.Multi_get ks ->
    "multi_get(" ^ String.concat "," (List.map string_of_int ks) ^ ")"
  | Lin_check.Multi_range rgs ->
    "multi_range("
    ^ String.concat ";"
        (List.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) rgs)
    ^ ")"

let keyset ks = "{" ^ String.concat "," (List.map string_of_int ks) ^ "}"

let string_of_result = function
  | Lin_check.Bool b -> string_of_bool b
  | Lin_check.Keys ks -> keyset ks
  | Lin_check.Bools rs ->
    "[" ^ String.concat "," (List.map string_of_bool rs) ^ "]"
  | Lin_check.Keyss kss -> "[" ^ String.concat ";" (List.map keyset kss) ^ "]"

let pp_event base e =
  let label =
    match e.Lin_check.label with
    | None -> ""
    | Some l -> Printf.sprintf " @%d" (l - base)
  in
  Printf.sprintf "[%d..%d] %s -> %s%s"
    (e.Lin_check.start_t - base)
    (e.Lin_check.end_t - base)
    (string_of_op e.Lin_check.op)
    (string_of_result e.Lin_check.result)
    label

(* Ticks are rebased to the earliest invocation so traces show small
   offsets instead of raw 50-bit TSC values. *)
let explain ?(initial = []) events =
  let events = List.sort by_start events in
  let base =
    List.fold_left
      (fun b e -> min b e.Lin_check.start_t)
      max_int events
  in
  let base = if base = max_int then 0 else base in
  let buf = Buffer.create 256 in
  if initial <> [] then
    Buffer.add_string buf
      ("initial: {"
      ^ String.concat "," (List.map string_of_int (List.sort compare initial))
      ^ "}\n");
  List.iter
    (fun e ->
      Buffer.add_string buf (pp_event base e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf
