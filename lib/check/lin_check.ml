(* A small linearizability checker for integer-set histories.

   Events carry real-time intervals stamped with a timestamp provider
   (the fenced TSC, or the structure's own clock when histories come from
   the recorder); the checker searches for a total order that (1)
   respects real-time precedence (e1 before e2 iff e1 ended before e2
   began), and (2) is a legal sequential set execution producing exactly
   the observed results.

   Range events carry the full observed result set and, optionally, the
   timestamp label the structure claimed for the snapshot.  A labeled
   range is required to linearize *at its label*: the event's effective
   interval collapses to [label, label], which is the snapshot-at-
   timestamp criterion — the query must see exactly the abstract set
   contents at the instant it advertised.  A label outside the query's
   real-time interval is rejected outright.

   Wing–Gong style DFS with memoization.  Histories are limited to 62
   events (bitmask) and keys to [0, 61] (set state is a bitmask too). *)

type op =
  | Insert of int
  | Delete of int
  | Contains of int
  | Range of int * int
  | Multi_get of int list
  | Multi_range of (int * int) list

type result = Bool of bool | Keys of int list | Bools of bool list | Keyss of int list list

type event = {
  start_t : int;
  end_t : int;
  op : op;
  result : result;
  label : int option;  (* Range only: the claimed snapshot timestamp *)
}

let max_events = 62
let max_key = 61

let ev ?label start_t end_t op result = { start_t; end_t; op; result; label }

let mask_of_keys keys = List.fold_left (fun m k -> m lor (1 lsl k)) 0 keys

let range_mask lo hi =
  let lo = max lo 0 and hi = min hi max_key in
  if hi < lo then 0 else ((1 lsl (hi - lo + 1)) - 1) lsl lo

(* Membership as the abstract set answers it for ANY integer: keys the
   bitmask cannot represent are simply never members (the engine returns
   [false] for out-of-window keys, and the checker agrees). *)
let mem state k = k >= 0 && k <= max_key && state land (1 lsl k) <> 0

(* Whether a sequential set in [state] could return [result] for [op],
   and the state afterwards.  A multi-point op is ONE event: every
   constituent probe answers against the same [state], which is exactly
   the one-cut-per-handle guarantee the snapshot engine advertises. *)
let step state op result =
  match (op, result) with
  | Insert k, Bool r ->
    let bit = 1 lsl k in
    if state land bit <> 0 then (r = false, state)
    else (r = true, state lor bit)
  | Delete k, Bool r ->
    let bit = 1 lsl k in
    if state land bit = 0 then (r = false, state)
    else (r = true, state lxor bit)
  | Contains k, Bool r -> (r = (state land (1 lsl k) <> 0), state)
  | Range (lo, hi), Keys ks ->
    (state land range_mask lo hi = mask_of_keys ks, state)
  | Multi_get ks, Bools rs ->
    ( List.length ks = List.length rs
      && List.for_all2 (fun k r -> r = mem state k) ks rs,
      state )
  | Multi_range rgs, Keyss kss ->
    ( List.length rgs = List.length kss
      && List.for_all2
           (fun (lo, hi) ks ->
             List.for_all (fun k -> k >= 0 && k <= max_key) ks
             && state land range_mask lo hi = mask_of_keys ks)
           rgs kss,
      state )
  | (Insert _ | Delete _ | Contains _ | Range _ | Multi_get _ | Multi_range _),
    _ ->
    (false, state)

(* Every constituent of one multi-point event answers from the same cut,
   so within an event the answers must agree wherever probes overlap:
   duplicate multi_get keys, and any key shared by two range windows.
   The interval DFS alone can miss this (an update whose recorded
   interval brackets the label could otherwise slot between two
   same-label probes), so it is enforced structurally, per event. *)
let self_consistent e =
  match (e.op, e.result) with
  | Multi_get ks, Bools rs when List.length ks = List.length rs ->
    let seen = Hashtbl.create 8 in
    List.for_all2
      (fun k r ->
        match Hashtbl.find_opt seen k with
        | Some r' -> r = r'
        | None ->
          Hashtbl.add seen k r;
          true)
      ks rs
  | Multi_range rgs, Keyss kss when List.length rgs = List.length kss ->
    let seen = Hashtbl.create 8 in
    List.for_all2
      (fun (lo, hi) ks ->
        let lo = max lo 0 and hi = min hi max_key in
        let ok = ref true in
        for k = lo to hi do
          let r = List.mem k ks in
          match Hashtbl.find_opt seen k with
          | Some r' -> if r <> r' then ok := false
          | None -> Hashtbl.add seen k r
        done;
        !ok)
      rgs kss
  | _ -> true (* shape mismatches are rejected by [step] *)

(* A label must name an instant the query actually spanned; anything else
   is an unsatisfiable claim (or a malformed history) and the whole
   history is rejected.  Comparison goes through the provider's
   [Labeling.label_order]: TL2-style stamps tie across a whole epoch, so
   a label can sit numerically below the start tick by id bits alone. *)
let well_labeled ~order e =
  let cmp = order.Hwts.Labeling.compare_labels in
  match (e.op, e.label) with
  | (Range _ | Multi_get _ | Multi_range _), Some l ->
    cmp e.start_t l <= 0 && cmp l e.end_t <= 0
  | (Range _ | Multi_get _ | Multi_range _), None -> true
  | _, Some _ -> false
  | _, None -> true

let effective e =
  match (e.op, e.label) with
  | (Range _ | Multi_get _ | Multi_range _), Some l -> (l, l)
  | _ -> (e.start_t, e.end_t)

(* Timestamped events own an instant on the clock axis: a successful
   update's label lies inside its recorded interval, a labeled range sits
   exactly at its label.  Reads (contains, failed updates, unlabeled
   ranges) never touch the clock — their recorded ticks bound their real
   time but say nothing about where they fall in timestamp order. *)
let is_timestamped e =
  match (e.op, e.result) with
  | (Insert _ | Delete _), Bool true -> true
  | (Range _ | Multi_get _ | Multi_range _), _ -> e.label <> None
  | _ -> false

(* Joint Wing–Gong DFS over the whole history; assumes [well_labeled].

   Precedence is pairwise: two timestamped events compare by their
   label-bracketing intervals (collapsed to [label, label] for labeled
   ranges), while any pair involving a read compares by raw recorded
   intervals (clock reads are monotone, so tick precedence implies
   real-time precedence).  Pinning reads onto the clock axis would be
   unsound: a read can linearize before an update whose label it never
   interacted with, even when its ticks postdate that label. *)
let check_dfs ?(initial = []) ?(order = Hwts.Labeling.raw_order) events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  assert (n <= max_events);
  let pinned = Array.map effective arr in
  let ts_flag = Array.map is_timestamped arr in
  let cmp = order.Hwts.Labeling.compare_labels in
  let prec j i =
    if ts_flag.(j) && ts_flag.(i) then cmp (snd pinned.(j)) (fst pinned.(i)) < 0
    else arr.(j).end_t < arr.(i).start_t
  in
  let state0 = List.fold_left (fun s k -> s lor (1 lsl k)) 0 initial in
  let full = if n = 0 then 0 else (1 lsl n) - 1 in
  let memo = Hashtbl.create 4096 in
  let rec dfs remaining state =
    if remaining = 0 then true
    else if Hashtbl.mem memo (remaining, state) then false
    else begin
      Hashtbl.add memo (remaining, state) ();
      let unpreceded i =
        let ok = ref true in
        for j = 0 to n - 1 do
          if !ok && j <> i && remaining land (1 lsl j) <> 0 && prec j i then
            ok := false
        done;
        !ok
      in
      let rec try_candidates i =
        if i >= n then false
        else if
          remaining land (1 lsl i) <> 0
          && unpreceded i
          &&
          let matches, state' = step state arr.(i).op arr.(i).result in
          matches && dfs (remaining lxor (1 lsl i)) state'
        then true
        else try_candidates (i + 1)
      in
      try_candidates 0
    end
  in
  dfs full state0

(* When every range and multi-point op is labeled, the criterion
   decomposes per key: a labeled range (or one multi-point constituent)
   is a batch of zero-width membership probes, one per window key, all
   pinned at the label instant.  Point ops touch one key each, so by
   linearizability's locality the joint history is explainable iff every
   per-key projection is.  Checking 62 two-state sub-histories sidesteps
   the joint DFS's exponential blowup on heavily-overlapped histories
   (fault injection freezes the clock while ops pile up at the same
   tick). *)
let decomposable events =
  List.for_all
    (fun e ->
      match (e.op, e.result, e.label) with
      | (Insert k | Delete k | Contains k), Bool _, None ->
        k >= 0 && k <= max_key
      | Range (lo, hi), Keys ks, Some _ ->
        List.for_all (fun k -> k >= lo && k <= hi && k >= 0 && k <= max_key) ks
      | Multi_get ks, Bools rs, Some _ ->
        List.length ks = List.length rs
        && List.for_all (fun k -> k >= 0 && k <= max_key) ks
      | Multi_range rgs, Keyss kss, Some _ ->
        List.length rgs = List.length kss
        && List.for_all2
             (fun (lo, hi) ks ->
               List.for_all
                 (fun k -> k >= lo && k <= hi && k >= 0 && k <= max_key)
                 ks)
             rgs kss
      | _ -> false)
    events

(* A labeled range projects onto key [k] as a single-key labeled range
   (not a contains): it keeps the raw interval for real-time ordering
   against reads AND the label for timestamp ordering against updates.
   A multi-point op projects as one such probe per constituent touching
   [k] — all pinned at the handle's single label, which is precisely the
   "every read answers from one cut" claim under test. *)
let project k events =
  let probe e present =
    { e with op = Range (k, k); result = Keys (if present then [ k ] else []) }
  in
  List.concat_map
    (fun e ->
      match (e.op, e.label) with
      | (Insert k' | Delete k' | Contains k'), _ ->
        if k' = k then [ e ] else []
      | Range (lo, hi), Some _ ->
        if k >= lo && k <= hi then
          let present =
            match e.result with Keys ks -> List.mem k ks | _ -> false
          in
          [ probe e present ]
        else []
      | Multi_get ks, Some _ ->
        let rs = match e.result with Bools rs -> rs | _ -> [] in
        List.concat
          (List.map2
             (fun k' r -> if k' = k then [ probe e r ] else [])
             ks rs)
      | Multi_range rgs, Some _ ->
        let kss = match e.result with Keyss kss -> kss | _ -> [] in
        List.concat
          (List.map2
             (fun (lo, hi) ks ->
               if k >= lo && k <= hi then [ probe e (List.mem k ks) ] else [])
             rgs kss)
      | (Range _ | Multi_get _ | Multi_range _), None ->
        assert false (* decomposable implies labeled *))
    events

let check_per_key ~initial ~order events =
  let state0 = List.fold_left (fun s k -> s lor (1 lsl k)) 0 initial in
  let key_mask =
    List.fold_left
      (fun m e ->
        match e.op with
        | Insert k | Delete k | Contains k -> m lor (1 lsl k)
        | Range (lo, hi) -> m lor range_mask lo hi
        | Multi_get ks ->
          (* decomposable already bounded every key *)
          List.fold_left (fun m k -> m lor (1 lsl k)) m ks
        | Multi_range rgs ->
          List.fold_left (fun m (lo, hi) -> m lor range_mask lo hi) m rgs)
      0 events
  in
  let ok = ref true in
  for k = 0 to max_key do
    if !ok && key_mask land (1 lsl k) <> 0 then
      match project k events with
      | [] -> ()
      | sub ->
        let initial = if state0 land (1 lsl k) <> 0 then [ k ] else [] in
        ok := check_dfs ~initial ~order sub
  done;
  !ok

let check ?(initial = []) ?(order = Hwts.Labeling.raw_order) events =
  List.for_all (well_labeled ~order) events
  && List.for_all self_consistent events
  &&
  if decomposable events then check_per_key ~initial ~order events
  else check_dfs ~initial ~order events
