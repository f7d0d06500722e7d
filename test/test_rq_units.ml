(* Unit tests for the range-query building blocks: the bare-or-versioned
   link under both labelings (vCAS helping, Bundling waiting), and the
   active-RQ registry — including qcheck properties. *)

module M = Hwts.Timestamp.Mock ()
module Registry = Rangequery.Rq_registry

(* fresh mock state per test *)
let reset () =
  M.thaw ();
  M.set 10

(* Run [f] with the cached-floor staleness knob pinned to [period]. *)
let with_refresh_period period f =
  let prev = Registry.refresh_period () in
  Registry.set_refresh_period period;
  Fun.protect ~finally:(fun () -> Registry.set_refresh_period prev) f

(* ---------- links ---------- *)

(* A test-only owner of one link, as the structures' nodes own theirs:
   field 0 of [Holder]'s block is the link, which holds a [Value] bare or
   a [Version] of one. *)
type 'a owned =
  | Holder of { mutable link : 'a owned }
  | Value of 'a
  | Version of { mutable ts : int; v : 'a owned; mutable older : 'a owned }

module Owned = struct
  type 'a t = 'a owned

  let version ts v older = Version { ts; v; older }
  let is_version = function Version _ -> true | Holder _ | Value _ -> false

  let value = function
    | Version x -> x.v
    | Holder _ | Value _ -> invalid_arg "Owned.value"

  let older = function
    | Version x -> x.older
    | Holder _ | Value _ -> invalid_arg "Owned.older"

  let set_older n older =
    match n with
    | Version x -> x.older <- older
    | Holder _ | Value _ -> invalid_arg "Owned.set_older"
end

module Cell = Rangequery.Link.Cell (Owned)

let payload = function
  | Value v -> v
  | Holder _ | Version _ -> invalid_arg "payload"

(* One link and the registry its writes settle against: a pin in the
   registry stands for a snapshot held at that label. *)
type 'a obj = { owner : 'a owned; registry : Registry.t }

let obj ?(registry = Registry.create ()) link =
  { owner = Holder { link }; registry }

(* What the link's field holds: the witness a CAS on it expects. *)
let head o =
  match o.owner with
  | Holder h -> h.link
  | Value _ | Version _ -> invalid_arg "head"

let pin o label = Registry.announce o.registry ~read:(fun () -> label)
let unpin o stamp = Registry.release o.registry stamp

(* ---------- vCAS links ---------- *)

(* A vCAS link as the lock-free structures keep theirs: written with a
   CAS from the field's value as read, labeled by helping, then
   settled. *)
module Vlink (T : Hwts.Timestamp.S) = struct
  module H = Rangequery.Vcas_obj.Helping (T) (Cell)
  module K = Rangequery.Link.Make (Owned) (H)

  let make ?registry v = obj ?registry (Value v)

  (* the current value of a link as read (labels a version on the way) *)
  let value link = payload (K.current link)
  let read o = value (head o)

  (* Install a successor of [expected]; the installed, labeled version on
     success, [None] if the field moved. *)
  let cas_with o expected v =
    let version = K.successor expected (Value v) in
    if K.cas o.owner 0 expected version then begin
      H.publish version;
      K.settle o.registry o.owner 0 version;
      Some version
    end
    else None

  let cas o expected v = cas_with o expected v <> None
  let read_at o ts = payload (K.value_at (head o) ts)

  (* Settle the head again: its chain is cut below the registry floor. *)
  let prune o = K.settle o.registry o.owner 0 (head o)
  let chain_length o = K.chain_of (head o)
end

module L = Vlink (M)

(* A versioned write on a link that only the calling domain writes: one
   CAS from the current field, which cannot fail. *)
let write o v = ignore (Option.get (L.cas_with o (head o) v))

let vcas_basics () =
  reset ();
  let o = L.make "a" in
  Alcotest.(check string) "read" "a" (L.read o);
  Alcotest.(check int) "a new link is bare" 1 (L.chain_length o);
  (* a snapshot held below every label keeps the history *)
  let held = pin o 5 in
  let h = head o in
  Alcotest.(check bool) "cas ok" true (L.cas o h "b");
  Alcotest.(check bool) "labeled" true (Cell.label (head o) > 0);
  Alcotest.(check string) "new value" "b" (L.read o);
  Alcotest.(check bool) "stale witness rejected" false (L.cas o h "c");
  Alcotest.(check string) "value intact" "b" (L.read o);
  Alcotest.(check int) "two values retained" 2 (L.chain_length o);
  unpin o held;
  write o "d";
  Alcotest.(check int) "no snapshot: bare again" 1 (L.chain_length o);
  Alcotest.(check string) "bare value" "d" (L.read o)

let vcas_read_at () =
  reset ();
  M.set 100;
  let o = L.make 0 in
  let held = pin o 1 in
  M.set 200;
  write o 1 (* labeled at 200 *);
  M.set 300;
  write o 2 (* labeled at 300 *);
  Alcotest.(check int) "at 250" 1 (L.read_at o 250);
  Alcotest.(check int) "at 200" 1 (L.read_at o 200);
  Alcotest.(check int) "at 199" 0 (L.read_at o 199);
  Alcotest.(check int) "at 1000" 2 (L.read_at o 1000);
  (* the bare end holds at every label *)
  Alcotest.(check int) "before creation" 0 (L.read_at o 50);
  unpin o held

let vcas_helping_labels_pending () =
  reset ();
  M.set 500;
  let o = L.make "x" in
  let held = pin o 1 in
  (* install a version while frozen so its label is 500, then advance the
     clock; a later read_at must still see it at 500, proving the label was
     fixed when first needed, not when read *)
  write o "y";
  M.set 900;
  Alcotest.(check string) "labeled at write time" "y" (L.read_at o 501);
  Alcotest.(check string) "old value before" "x" (L.read_at o 499);
  unpin o held

let vcas_concurrent_single_winner () =
  reset ();
  let o = L.make 0 in
  let rounds = 2_000 in
  let wins =
    Util.spawn_workers 4 (fun _ ->
        let mine = ref 0 in
        for round = 1 to rounds do
          let rec attempt () =
            let h = head o in
            if L.value h >= round then ()
            else if L.cas o h round then incr mine
            else attempt ()
          in
          attempt ()
        done;
        !mine)
  in
  Alcotest.(check int) "final value" rounds (L.read o);
  Alcotest.(check int) "one winner per round" rounds (List.fold_left ( + ) 0 wins)

(* A clock whose next [read] can be armed to park the reading domain
   after it has read its value and before it returns it, so a test can
   hold an installer between publishing a version and labeling it, or a
   helper holding a label read before a later snapshot.  Every read
   returns a fresh value, so racing helpers each propose a different
   label and only agreement on the winner's passes. *)
module Gate = struct
  let name = "gate"
  let is_hardware = false
  let word = Atomic.make 100

  (* 0 = open, 1 = armed (the next read parks), 2 = a reader is parked *)
  let gate = Atomic.make 0

  let read () =
    let v = Atomic.fetch_and_add word 1 in
    if Atomic.get gate = 1 && Atomic.compare_and_set gate 1 2 then
      while Atomic.get gate = 2 do
        Domain.cpu_relax ()
      done;
    v

  let read_floor () = Atomic.get word
  let advance () = Atomic.fetch_and_add word 1
  let snapshot = advance
end

module LG = Vlink (Gate)

let vcas_helpers_agree_on_pending_label () =
  let prev = Hwts_obs.Config.enabled () in
  Hwts_obs.Config.set_enabled true;
  Fun.protect ~finally:(fun () -> Hwts_obs.Config.set_enabled prev)
  @@ fun () ->
  let o = LG.make "old" in
  Atomic.set Gate.gate 1;
  let installer =
    Domain.spawn (fun () -> Option.get (LG.cas_with o (head o) "new"))
  in
  (* parked inside its own labeling read: "new" is the published version
     and its label is still 0 *)
  while Atomic.get Gate.gate <> 2 do
    Domain.cpu_relax ()
  done;
  let wins () =
    Option.get (Hwts_obs.Registry.counter_value "rangequery.vcas.help_wins")
  in
  let wins_before = wins () in
  let ready = Atomic.make 0 in
  let seen =
    Util.spawn_workers 8 (fun _ ->
        Atomic.incr ready;
        while Atomic.get ready < 8 do
          Domain.cpu_relax ()
        done;
        let h = head o in
        let v = LG.value h in
        (v, Cell.label h))
  in
  let helped = wins () - wins_before in
  Atomic.set Gate.gate 0;
  let installed = Domain.join installer in
  let label = snd (List.hd seen) in
  Alcotest.(check bool) "nonzero label" true (label > 0);
  List.iter
    (fun (v, ts) ->
      Alcotest.(check string) "helper saw the pending version" "new" v;
      Alcotest.(check int) "helpers agree on one label" label ts)
    seen;
  Alcotest.(check int) "installer keeps the helped label" label
    (Cell.label installed);
  Alcotest.(check int) "exactly one helper labeled it" 1 helped;
  Alcotest.(check int) "installer's late CAS won nothing" 1
    (wins () - wins_before)

let vcas_qcheck_read_at =
  Util.qcheck ~count:200 "vcas read_at returns version in force"
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 1 1000))
    (fun writes ->
      M.thaw ();
      M.set 10;
      let o = L.make (-1) in
      let held = pin o 1 in
      let labeled =
        List.mapi
          (fun i v ->
            M.set ((i + 2) * 100);
            write o v;
            ((i + 2) * 100, v))
          writes
      in
      (* at any probe time, read_at = last write with label <= probe *)
      let ok =
        List.for_all
          (fun probe ->
            let expected =
              List.fold_left
                (fun acc (ts, v) -> if ts <= probe then v else acc)
                (-1) labeled
            in
            L.read_at o probe = expected)
          [ 50; 150; 250; 550; 1_000_000 ]
      in
      unpin o held;
      ok)

(* With history kept below 250 by a held snapshot, settling the newest
   version at a floor of 250 keeps the version labeled 200 and cuts the
   rest. *)
let vcas_prune () =
  with_refresh_period 1 @@ fun () ->
  reset ();
  M.set 10;
  let o = L.make 0 in
  let held = pin o 5 in
  M.set 100;
  write o 1;
  M.set 200;
  write o 2;
  M.set 300;
  write o 3;
  Alcotest.(check int) "4 values" 4 (L.chain_length o);
  (* a snapshot at 250 needs the version labeled 200 *)
  let at_250 = pin o 250 in
  unpin o held;
  L.prune o;
  Alcotest.(check int) "pruned to 2" 2 (L.chain_length o);
  Alcotest.(check int) "snapshot at 250 intact" 2 (L.read_at o 250);
  Alcotest.(check int) "newest intact" 3 (L.read_at o 1000);
  unpin o at_250

(* ---------- self-loop chain ends ---------- *)

(* One link behind either labeling, created as a new node's own link is:
   pending, then labeled, so its chain ends in a version whose older link
   is itself.  [write v] installs, labels and settles a version holding
   [v] against [registry] and returns its label; [chain ()] counts the
   values retained; [read_at ts] reads at a label. *)
type chain = {
  write : int -> int;
  chain : unit -> int;
  read_at : int -> int;
  registry : Registry.t;
}

module Chains (T : Hwts.Timestamp.S) = struct
  module V = Vlink (T)
  module W = Rangequery.Bundle.Waiting (Cell)
  module B = Rangequery.Link.Make (Owned) (W)

  let vcas registry =
    let own = V.K.pending (Value 0) in
    let o = obj ~registry own in
    V.H.publish own;
    {
      write =
        (fun v -> Cell.label (Option.get (V.cas_with o (head o) v)));
      chain = (fun () -> V.chain_length o);
      read_at = (fun ts -> V.read_at o ts);
      registry;
    }

  (* A bundle: the writer installs a pending entry, then labels it with
     an advance, as Bundling's updates do. *)
  let bundle registry =
    let own = B.pending (Value 0) in
    let o = obj ~registry own in
    W.label own (T.advance ());
    {
      write =
        (fun v ->
          let was = head o in
          let e = B.successor was (Value v) in
          B.install o.owner 0 ~was e;
          let ts = T.advance () in
          W.label e ts;
          B.settle registry o.owner 0 e;
          ts);
      chain = (fun () -> B.chain_of (head o));
      read_at = (fun ts -> payload (B.value_at (head o) ts));
      registry;
    }
end

module CM = Chains (M)

(* A snapshot held at label 150 across N overwrites pins the first
   version; releasing it and making one more labeled write, settled at
   its own label, puts the link back bare. *)
let self_loop_chain make () =
  reset ();
  M.set 100;
  let c = make (Registry.create ()) in
  let held = 150 and n = 20 in
  let stamp = Registry.announce c.registry ~read:(fun () -> held) in
  for i = 1 to n do
    M.set (200 + i);
    ignore (c.write i)
  done;
  Alcotest.(check int) "held snapshot reads its value" 0 (c.read_at held);
  Alcotest.(check int) "N+1 versions while held" (n + 1) (c.chain ());
  Alcotest.(check int) "newest" n (c.read_at max_int);
  Registry.release c.registry stamp;
  M.set 1_000;
  let label = c.write (n + 1) in
  Alcotest.(check int) "one value after release" 1 (c.chain ());
  Alcotest.(check int) "value after release" (n + 1) (c.read_at label)

(* A writer settles every write at the registry floor, as the structures
   do, while a reader on another domain holds snapshots and reads at
   their labels.  Every read must return a write labeled at or before
   the reader's label: a prune or a flatten under a reader would leave
   it at a newer version.  The labels are recorded by the writer and
   checked after both domains finish; the first version (value 0)
   predates every snapshot, so a read of it is never newer. *)
module RL = Hwts.Timestamp.Logical ()
module CR = Chains (RL)

let read_at_races_prune make () =
  let registry = Registry.create () in
  let max_writes = 200_000 and snapshots = 1_000 in
  let labels = Array.make (max_writes + 1) 0 in
  let c = make registry in
  let started = Atomic.make 0 and reader_done = Atomic.make false in
  let writer_done = Atomic.make false in
  let reads =
    Util.spawn_workers 2 (fun me ->
        Atomic.incr started;
        while Atomic.get started < 2 do
          Domain.cpu_relax ()
        done;
        if me = 0 then begin
          let i = ref 1 in
          while !i <= max_writes && not (Atomic.get reader_done) do
            labels.(!i) <- c.write !i;
            if !i mod 7 = 0 then ignore (RL.advance ());
            incr i
          done;
          Atomic.set writer_done true;
          []
        end
        else begin
          let seen = ref [] and taken = ref 0 and moved = ref false in
          (* at least [snapshots], and on until one read saw a write *)
          while
            (!taken < snapshots || not !moved) && not (Atomic.get writer_done)
          do
            incr taken;
            let s =
              Registry.snapshot registry ~floor:RL.read_floor
                ~label:RL.snapshot
            in
            let l = Registry.snap_label s in
            (* hold the snapshot long enough for writes to land in it *)
            for _ = 1 to 8 do
              for _ = 1 to 64 do
                Domain.cpu_relax ()
              done;
              let v = c.read_at l in
              if v > 0 then moved := true;
              seen := (l, v) :: !seen
            done;
            Registry.snap_release registry s
          done;
          Atomic.set reader_done true;
          !seen
        end)
  in
  let reads = List.concat reads in
  let newer =
    List.length (List.filter (fun (l, v) -> v > 0 && labels.(v) > l) reads)
  in
  let moved = List.exists (fun (_, v) -> v > 0) reads in
  Alcotest.(check bool) "reads saw the writer's versions" true moved;
  Alcotest.(check int)
    (Printf.sprintf "reads newer than their label (of %d)" (List.length reads))
    0 newer

let vcas_chains_stay_bounded () =
  (* hammering one key with no active RQs must not grow version chains;
     period 1 = a full registry scan on every prune, the tightest bound *)
  with_refresh_period 1 @@ fun () ->
  let module H = Rangequery.Bst_vcas.Make (Hwts.Timestamp.Hardware) in
  let t = H.create () in
  for _ = 1 to 500 do
    ignore (H.insert t 42);
    ignore (H.delete t 42)
  done;
  let edges, versions = H.version_chain_stats t in
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%d versions over %d edges)" versions edges)
    true
    (versions <= (edges * 3) + 8)

let vcas_chains_bounded_by_staleness () =
  (* under the default lazy refresh, chains may lag but only by O(period):
     the floor catches up at most [period] update ops after it went stale *)
  let period = 64 in
  with_refresh_period period @@ fun () ->
  let module H = Rangequery.Bst_vcas.Make (Hwts.Timestamp.Hardware) in
  let t = H.create () in
  for _ = 1 to 500 do
    ignore (H.insert t 42);
    ignore (H.delete t 42)
  done;
  let edges, versions = H.version_chain_stats t in
  Alcotest.(check bool)
    (Printf.sprintf "staleness-bounded (%d versions over %d edges)" versions
       edges)
    true
    (versions <= (edges * 3) + 8 + (2 * period))

(* ---------- persistent snapshots (time travel) ---------- *)

module BH = Rangequery.Bst_vcas.Make (Hwts.Timestamp.Hardware)

let snapshot_time_travel () =
  let t = BH.create () in
  List.iter (fun k -> ignore (BH.insert t k)) [ 1; 2; 3; 4; 5 ];
  let past = BH.snapshot t in
  ignore (BH.delete t 2);
  ignore (BH.delete t 4);
  ignore (BH.insert t 9);
  Alcotest.(check (array int)) "present" [| 1; 3; 5; 9 |]
    (BH.range_query t ~lo:1 ~hi:10);
  Alcotest.(check (array int)) "past" [| 1; 2; 3; 4; 5 |]
    (BH.collect_at t past ~lo:1 ~hi:10);
  Alcotest.(check bool) "lookup_at deleted key" true (BH.lookup_at t past 2);
  Alcotest.(check bool) "lookup_at future key" false (BH.lookup_at t past 9);
  BH.snap_release t past

let snapshot_survives_pruning_churn () =
  with_refresh_period 1 @@ fun () ->
  let t = BH.create () in
  ignore (BH.insert t 42);
  let past = BH.snapshot t in
  (* churn hard: pruning runs on every update, but the pin must protect
     the snapshot's versions *)
  for _ = 1 to 500 do
    ignore (BH.delete t 42);
    ignore (BH.insert t 42)
  done;
  ignore (BH.delete t 42);
  Alcotest.(check (array int)) "pinned state intact" [| 42 |]
    (BH.collect_at t past ~lo:0 ~hi:100);
  Alcotest.(check (array int)) "current state" [||] (BH.range_query t ~lo:0 ~hi:100);
  BH.snap_release t past;
  (* after release, churn shrinks history again *)
  for _ = 1 to 200 do
    ignore (BH.insert t 42);
    ignore (BH.delete t 42)
  done;
  let edges, versions = BH.version_chain_stats t in
  Alcotest.(check bool)
    (Printf.sprintf "chains shrink after release (%d/%d)" versions edges)
    true
    (versions <= (edges * 3) + 8)

(* A bst-vcas edge holds its node bare once no snapshot can need its
   history.  While a snapshot is held, every write of one edge (the
   insert and the splice of key 5 below leaf 10) keeps the edge
   versioned, and the snapshot still reads the state it was taken at;
   after the release, the next write leaves every edge on the left spine
   bare again (one version per edge). *)
let held_snapshot_keeps_history () =
  let module L = Hwts.Timestamp.Logical () in
  let module S = Rangequery.Bst_vcas.Make (L) in
  let t = S.create () in
  ignore (S.insert t 10);
  let bare () =
    let edges, versions = S.version_chain_stats t in
    versions = edges
  in
  Alcotest.(check bool) "built with no snapshot: bare" true (bare ());
  let past = S.snapshot t in
  for _ = 1 to 25 do
    ignore (S.insert t 5);
    ignore (S.delete t 5)
  done;
  ignore (S.insert t 5);
  Alcotest.(check (array int)) "snapshot reads its state" [| 10 |]
    (S.collect_at t past ~lo:0 ~hi:100);
  Alcotest.(check bool) "snapshot misses the later key" false
    (S.lookup_at t past 5);
  Alcotest.(check (array int)) "current state" [| 5; 10 |]
    (S.range_query t ~lo:0 ~hi:100);
  let edges, versions = S.version_chain_stats t in
  Alcotest.(check bool)
    (Printf.sprintf "held: versioned (%d versions over %d edges)" versions
       edges)
    true (versions > edges);
  S.snap_release t past;
  ignore (S.delete t 5);
  Alcotest.(check bool) "released: the next write leaves it bare" true
    (bare ());
  Alcotest.(check (array int)) "after release" [| 10 |]
    (S.range_query t ~lo:0 ~hi:100)

(* A bare edge can come back to the node it held: an insert parked
   between its seek and its CAS on leaf 10's edge sees that edge go from
   leaf 10 to an internal node (insert 5) and back to leaf 10 (delete
   5).  Its CAS then succeeds, as Natarajan–Mittal's pointer CAS would,
   and the set must be exact; a snapshot taken while it was parked must
   not see its key. *)
let bare_edge_round_trip (module P : Hwts.Timestamp.S) () =
  let module S = Rangequery.Bst_vcas.Make (P) in
  let t = S.create () in
  ignore (S.insert t 10);
  Sync.Pause.park_at 1;
  let inserter =
    Domain.spawn (fun () -> Sync.Slot.with_slot (fun _ -> S.insert t 20))
  in
  while not (Sync.Pause.parked ()) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "insert 5" true (S.insert t 5);
  Alcotest.(check bool) "delete 5" true (S.delete t 5);
  let edges, versions = S.version_chain_stats t in
  Alcotest.(check int) "the edge is bare again" edges versions;
  let s = S.snapshot t in
  Sync.Pause.unpark ();
  Alcotest.(check bool) "parked insert" true (Domain.join inserter);
  Alcotest.(check (array int)) "snapshot taken while parked" [| 10 |]
    (S.collect_at t s ~lo:0 ~hi:100);
  S.snap_release t s;
  Alcotest.(check (list int)) "final set" [ 10; 20 ] (S.to_list t);
  Alcotest.(check bool) "contains 20" true (S.contains t 20);
  Alcotest.(check bool) "contains 5" false (S.contains t 5)

(* ---------- links bare once no snapshot needs them ---------- *)

module type VERSIONED = sig
  include Dstruct.Ordered_set.RQ

  val version_chain_stats : t -> int * int
end

module Ebr = Hwts_reclaim.Ebr_backend

(* Each structure with the pause point at which its insert has installed
   its version and not yet labeled it. *)
let bundled =
  [
    ( "skiplist-bundle",
      (fun (module P : Hwts.Timestamp.S) ->
        (module Rangequery.Skiplist_bundle.Make (P) : VERSIONED)),
      1 );
    ( "lazylist-bundle",
      (fun (module P : Hwts.Timestamp.S) ->
        (module Rangequery.Lazylist_bundle.Make (P) : VERSIONED)),
      1 );
    ( "citrus-bundle",
      (fun (module P : Hwts.Timestamp.S) ->
        (module Rangequery.Citrus_bundle.Make (Ebr) (P) : VERSIONED)),
      1 );
  ]

(* The insert of skiplist-vcas passes a pause point before its CAS. *)
let helped =
  [
    ( "citrus-vcas",
      (fun (module P : Hwts.Timestamp.S) ->
        (module Rangequery.Citrus_vcas.Make (Ebr) (P) : VERSIONED)),
      1 );
    ( "skiplist-vcas",
      (fun (module P : Hwts.Timestamp.S) ->
        (module Rangequery.Skiplist_vcas.Make (P) : VERSIONED)),
      2 );
  ]

let bundle_providers () =
  [
    ("logical", (module Hwts.Timestamp.Logical () : Hwts.Timestamp.S));
    ( "rdtscp-strict",
      (module Hwts.Timestamp.Strict_sharded (Hwts.Timestamp.Hardware) ()
      : Hwts.Timestamp.S) );
  ]

(* Values retained beyond one per link: 0 when every link is bare. *)
let versions (type a) (module S : VERSIONED with type t = a) (t : a) =
  let links, values = S.version_chain_stats t in
  values - links

let all_bare m t = versions m t = 0

(* Runs [insert] on a fresh domain parked at its [n]th pause point and
   calls [f] while it is parked; returns what [f] returned and the
   insert's result. *)
let while_parked n insert f =
  Sync.Pause.park_at n;
  let inserter =
    Domain.spawn (fun () -> Sync.Slot.with_slot (fun _ -> insert ()))
  in
  while not (Sync.Pause.parked ()) do
    Domain.cpu_relax ()
  done;
  let r = f () in
  Sync.Pause.unpark ();
  (r, Domain.join inserter)

(* A structure built with no snapshot open holds every link bare.  While
   a snapshot is held, every write of one link (the one key 5 hangs
   from, by the inserts and deletes of key 5) keeps a version, and the
   snapshot still reads the state it was taken at; after the release the
   next write puts the link back bare. *)
let links_held_snapshot_keeps_history make _ () =
  let (module S : VERSIONED) = make () in
  let t = S.create () in
  ignore (S.insert t 10);
  Alcotest.(check bool) "built with no snapshot: bare" true
    (all_bare (module S) t);
  let past = S.snapshot t in
  for _ = 1 to 25 do
    ignore (S.insert t 5);
    ignore (S.delete t 5)
  done;
  ignore (S.insert t 5);
  Alcotest.(check (array int)) "snapshot reads its state" [| 10 |]
    (S.collect_at t past ~lo:0 ~hi:100);
  Alcotest.(check bool) "snapshot misses the later key" false
    (S.lookup_at t past 5);
  Alcotest.(check (array int)) "current state" [| 5; 10 |]
    (S.range_query t ~lo:0 ~hi:100);
  Alcotest.(check bool) "held: versioned" false (all_bare (module S) t);
  S.snap_release t past;
  ignore (S.delete t 5);
  Alcotest.(check bool) "released: the next write leaves it bare" true
    (all_bare (module S) t);
  Alcotest.(check (array int)) "after release" [| 10 |]
    (S.range_query t ~lo:0 ~hi:100)

(* A pending version (label 0) is never put back bare: readers wait on
   it (Bundling) or help label it (vCAS).  The insert of 20 parks right
   after its pending version is installed on the link 20 hangs from,
   before the insert takes its stamp or labels it, so a snapshot taken
   then is labeled before the insert.  While parked, the link holds a
   version; once the insert is done, that snapshot still misses 20,
   because the version, labeled after the snapshot, stays in place. *)
let links_pending_never_flattened make point () =
  let (module S : VERSIONED) = make () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 30 ];
  let (snap, held), inserted =
    while_parked point
      (fun () -> S.insert t 20)
      (fun () -> (S.snapshot t, not (all_bare (module S) t)))
  in
  Alcotest.(check bool) "parked: the link holds a pending version" true held;
  Alcotest.(check bool) "insert" true inserted;
  Alcotest.(check bool) "snapshot misses the insert" false
    (S.lookup_at t snap 20);
  Alcotest.(check (array int)) "snapshot reads its state" [| 10; 30 |]
    (S.collect_at t snap ~lo:0 ~hi:100);
  Alcotest.(check bool) "held: versioned" false (all_bare (module S) t);
  S.snap_release t snap;
  Alcotest.(check (array int)) "current state" [| 10; 20; 30 |]
    (S.range_query t ~lo:0 ~hi:100)

(* A snapshot labeled before an insert never starts its walk at the new
   node.  [before] holds 10, 20, 30; 20 is then deleted and 15 inserted
   between 10 and 30, so 15 is the raw predecessor of 16.  Starting at
   15 would skip 20, which [before] must still see.  A second snapshot
   is taken while the insert is parked before its stamp (born after it
   too), a third while it is parked after its stamp and before its first
   label (labeled at or after the insert: it sees 15). *)
let links_born_after_snapshot make _ () =
  let (module S : VERSIONED) = make () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 20; 30 ];
  let before = S.snapshot t in
  ignore (S.delete t 20);
  let parked, inserted =
    while_parked 1 (fun () -> S.insert t 15) (fun () -> S.snapshot t)
  in
  Alcotest.(check bool) "insert 15" true inserted;
  Alcotest.(check (array int)) "before: from 16" [| 20; 30 |]
    (S.collect_at t before ~lo:16 ~hi:100);
  Alcotest.(check bool) "before: 20" true (S.lookup_at t before 20);
  Alcotest.(check bool) "before: no 15" false (S.lookup_at t before 15);
  Alcotest.(check (array int)) "before: all" [| 10; 20; 30 |]
    (S.collect_at t before ~lo:0 ~hi:100);
  Alcotest.(check (array int)) "parked before the stamp: all" [| 10; 30 |]
    (S.collect_at t parked ~lo:0 ~hi:100);
  Alcotest.(check bool) "parked before the stamp: no 15" false
    (S.lookup_at t parked 15);
  Alcotest.(check bool) "held: the new link keeps its label" false
    (all_bare (module S) t);
  S.snap_release t before;
  S.snap_release t parked;
  ignore (S.delete t 15);
  let after_stamp, inserted =
    while_parked 2 (fun () -> S.insert t 15) (fun () -> S.snapshot t)
  in
  Alcotest.(check bool) "insert 15 again" true inserted;
  Alcotest.(check bool) "parked after the stamp: 15" true
    (S.lookup_at t after_stamp 15);
  Alcotest.(check (array int)) "parked after the stamp: from 11"
    [| 15; 30 |]
    (S.collect_at t after_stamp ~lo:11 ~hi:100);
  S.snap_release t after_stamp;
  Alcotest.(check (array int)) "current state" [| 10; 15; 30 |]
    (S.range_query t ~lo:0 ~hi:100)

(* A link can come back to the node it held while an insert is parked
   mid-write.  [round] is a key whose insert and delete write a link from
   that node's neighbourhood and back: on skiplist-vcas the very link the
   parked insert read, 10's, whose CAS then succeeds as a Harris-style
   pointer CAS would; on citrus-vcas, whose parked insert holds 30's
   lock, 10's left link.  The round trip leaves no version behind, the
   set is exact, and a snapshot taken while the insert was parked misses
   its key.  The insert parks at its first pause point: before its CAS
   on skiplist-vcas, after installing its version on citrus-vcas. *)
let links_round_trip round make _ () =
  let (module S : VERSIONED) = make () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 30 ];
  let (kept, s), inserted =
    while_parked 1
      (fun () -> S.insert t 20)
      (fun () ->
        let before = versions (module S) t in
        Alcotest.(check bool) "insert the round-trip key" true (S.insert t round);
        Alcotest.(check bool) "delete it" true (S.delete t round);
        (versions (module S) t - before, S.snapshot t))
  in
  Alcotest.(check int) "the round trip leaves no version" 0 kept;
  Alcotest.(check bool) "parked insert" true inserted;
  Alcotest.(check (array int)) "snapshot taken while parked" [| 10; 30 |]
    (S.collect_at t s ~lo:0 ~hi:100);
  S.snap_release t s;
  Alcotest.(check (list int)) "final set" [ 10; 20; 30 ] (S.to_list t);
  Alcotest.(check bool) "contains 20" true (S.contains t 20);
  Alcotest.(check bool) "contains the round-trip key" false
    (S.contains t round)

let link_cases structures cases =
  List.concat_map
    (fun (name, make, point) ->
      List.concat_map
        (fun (provider, ts) ->
          let make () = make ts in
          List.map
            (fun (what, f) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s (%s)" name what provider)
                `Quick (f make point))
            (cases name))
        (bundle_providers ()))
    structures

let bundled_link_cases =
  link_cases bundled (fun _ ->
      [
        ("held snapshot keeps history", links_held_snapshot_keeps_history);
        ("pending is never flattened", links_pending_never_flattened);
        ("born after the snapshot", links_born_after_snapshot);
      ])

let helped_link_cases =
  link_cases helped (fun name ->
      [
        ("held snapshot keeps history", links_held_snapshot_keeps_history);
        ("pending is never flattened", links_pending_never_flattened);
        ( "plain-edge round trip",
          links_round_trip (if name = "citrus-vcas" then 5 else 15) );
      ])

(* A two-children delete whose successor is not the victim's child
   relocates it: the replacement takes the victim's place, and the
   successor's parent's left link is cut to the successor's right child.
   70 is the successor's parent, so the delete of 50 relocates 60.  With
   no snapshot open, both labeled links settle bare, the cut's too.
   Under a held snapshot the next such delete (of 60, relocating 65)
   keeps them versioned, and the snapshot still reads its state. *)
let citrus_relocation_settles make () =
  let (module S : VERSIONED) = make () in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 50; 30; 70; 60; 80; 65 ];
  Alcotest.(check bool) "delete 50" true (S.delete t 50);
  Alcotest.(check int) "no snapshot: every link bare" 0 (versions (module S) t);
  Alcotest.(check (list int)) "after the delete" [ 30; 60; 65; 70; 80 ]
    (S.to_list t);
  let past = S.snapshot t in
  Alcotest.(check bool) "delete 60" true (S.delete t 60);
  Alcotest.(check bool) "held: versioned" true (versions (module S) t > 0);
  Alcotest.(check (array int)) "snapshot reads its state" [| 30; 60; 65; 70; 80 |]
    (S.collect_at t past ~lo:0 ~hi:100);
  S.snap_release t past;
  Alcotest.(check (list int)) "current state" [ 30; 65; 70; 80 ] (S.to_list t)

let relocation_cases =
  List.concat_map
    (fun (name, make) ->
      List.map
        (fun (provider, ts) ->
          Alcotest.test_case
            (Printf.sprintf "%s two-children delete settles (%s)" name provider)
            `Quick
            (citrus_relocation_settles (fun () -> make ts)))
        (bundle_providers ()))
    [
      ( "citrus-bundle",
        fun (module P : Hwts.Timestamp.S) ->
          (module Rangequery.Citrus_bundle.Make (Ebr) (P) : VERSIONED) );
      ( "citrus-vcas",
        fun (module P : Hwts.Timestamp.S) ->
          (module Rangequery.Citrus_vcas.Make (Ebr) (P) : VERSIONED) );
    ]

let snapshot_stable_under_concurrency () =
  let t = BH.create () in
  for k = 1 to 64 do
    ignore (BH.insert t (2 * k))
  done;
  let past = BH.snapshot t in
  let baseline = BH.collect_at t past ~lo:0 ~hi:200 in
  let stop = Atomic.make false in
  let results =
    Util.spawn_workers 3 (fun me ->
        if me = 0 then begin
          let rng = Util.rng 99 in
          for _ = 1 to 4_000 do
            let k = 1 + Dstruct.Prng.below rng 200 in
            if Dstruct.Prng.below rng 2 = 0 then ignore (BH.insert t k)
            else ignore (BH.delete t k)
          done;
          Atomic.set stop true;
          true
        end
        else begin
          let ok = ref true in
          while not (Atomic.get stop) do
            if BH.collect_at t past ~lo:0 ~hi:200 <> baseline then
              ok := false
          done;
          !ok
        end)
  in
  Alcotest.(check (list bool)) "snapshot immutable under churn"
    [ true; true; true ] results;
  BH.snap_release t past

(* ---------- field CAS and the write barrier ---------- *)

(* Runs [f] on a fresh domain and waits for it.  A citrus-ebrrq
   snapshot holds an op section on the domain that took it, so writes
   made while it is held come from another domain. *)
let on_worker f = ignore (Util.spawn_workers 1 (fun _ -> f ()))

(* The Natarajan–Mittal trees, the three Citrus trees, both skip lists and
   the lazy list store fresh nodes (or fresh versions) into fields of their
   nodes, the skip lists' links above level 0 included, through a C
   stub.  Once the structure is promoted to the major heap,
   each such store puts a minor-heap pointer into a major-heap block;
   without the runtime's write barrier the next minor collection would
   leave that edge dangling.  Every
   round of writes below is followed by a collection, then by reads of
   the current tree, of a snapshot taken before any of the writes, and
   of single keys at that snapshot.  The ascending base makes every
   delete after the first one a two-children delete. *)
let field_cas_survives_gc name ts () =
  let module S = (val List.assoc name Workload.Targets.all ts) in
  let t = S.create () in
  let base = List.init 256 (fun i -> 4 * i) in
  List.iter (fun k -> ignore (S.insert t k)) base;
  Gc.full_major ();
  let past = S.snapshot t in
  let module IS = Set.Make (Int) in
  let model = ref (IS.of_list base) in
  for r = 0 to 127 do
    on_worker (fun () ->
        ignore (S.insert t ((4 * r) + 1));
        ignore (S.delete t (4 * r)));
    model := IS.add ((4 * r) + 1) (IS.remove (4 * r) !model);
    if r mod 2 = 0 then Gc.minor () else Gc.full_major ();
    Alcotest.(check (list int))
      "current tree" (IS.elements !model) (S.to_list t);
    Alcotest.(check (array int))
      "snapshot before the writes" (Array.of_list base)
      (S.collect_at t past ~lo:0 ~hi:1_024);
    Alcotest.(check bool) "deleted key at the snapshot" true
      (S.lookup_at t past (4 * r));
    Alcotest.(check bool) "inserted key at the snapshot" false
      (S.lookup_at t past ((4 * r) + 1))
  done;
  S.snap_release t past

let field_cas_cases =
  List.concat_map
    (fun name ->
      List.map
        (fun (ts, provider) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s" name provider)
            `Quick
            (field_cas_survives_gc name ts))
        [ (`Logical, "logical"); (`Hardware_strict, "rdtscp-strict") ])
    [
      "bst-vcas";
      "bst-vcas-kv";
      "bst-ebrrq-lockfree";
      "citrus-ebrrq";
      "citrus-bundle";
      "citrus-vcas";
      "skiplist-bundle";
      "skiplist-vcas";
      "lazylist-bundle";
    ]

(* ---------- state words ---------- *)

(* A test-only lock-based node, laid out as the structures' are: its lock
   bit and flags in one int field, written through {!Field_lock}. *)
type locked_node = { key : int; mutable state : int }

module Sw = Rangequery.Field_lock.Make (struct
  type t = locked_node

  let state_field = 1
  let state n = n.state
end)

let fresh_node key = { key; state = 0 }
let flag_set flag n = Rangequery.Field_lock.has flag n.state

(* The lock is exclusive, on one domain and between two: two domains
   that each add 1 to a plain ref 50,000 times under it lose no add. *)
let state_lock_excludes () =
  let n = fresh_node 1 in
  Sw.lock n;
  Alcotest.(check bool) "a held lock refuses a second try" false
    (Sw.try_lock n);
  let other = ref true in
  on_worker (fun () -> other := Sw.try_lock n);
  Alcotest.(check bool) "and refuses another domain" false !other;
  Sw.unlock n;
  Alcotest.(check bool) "an unlocked node locks" true (Sw.try_lock n);
  Sw.unlock n;
  let count = ref 0 in
  ignore
    (Util.spawn_workers 2 (fun _ ->
         for _ = 1 to 50_000 do
           Sw.lock n;
           incr count;
           Sw.unlock n
         done));
  Alcotest.(check int) "adds under the lock" 100_000 !count;
  Alcotest.(check int) "left unlocked" 0 n.state

(* A flag raised under the lock outlives the unlock, and a marked node
   still locks: its holder's validation reads the mark and fails, as a
   locked insert or delete does on a node deleted since its traversal. *)
let state_unlock_keeps_mark () =
  let open Rangequery.Field_lock in
  let n = fresh_node 1 in
  Sw.lock n;
  Sw.set n marked;
  Sw.unlock n;
  Alcotest.(check int) "marked, unlocked" marked n.state;
  Alcotest.(check bool) "a marked node locks" true (Sw.try_lock n);
  Alcotest.(check bool) "locked, and validation reads the mark" true
    (flag_set locked n && flag_set marked n);
  Sw.unlock n;
  Alcotest.(check int) "the mark survives a second unlock" marked n.state

(* A lazy skip-list inserter raises [fully_linked] on its new node while
   a neighbour may hold that node's lock as a predecessor.  One domain
   raises the flag on each of 100,000 nodes in turn while another locks
   and unlocks the node it is at: no flag may be lost and no lock left
   held.  An unlock that stored its cleared state without a CAS would
   write back a state read before the flag. *)
let state_flag_beside_a_locker () =
  let rounds = 100_000 in
  let nodes = Array.init rounds fresh_node in
  let at = Atomic.make 0 in
  ignore
    (Util.spawn_workers 2 (fun me ->
         if me = 0 then
           for i = 0 to rounds - 1 do
             Atomic.set at i;
             Sw.set nodes.(i) Rangequery.Field_lock.fully_linked
           done
         else
           let i = ref 0 in
           while !i < rounds - 1 do
             i := Atomic.get at;
             Sw.lock nodes.(!i);
             Sw.unlock nodes.(!i)
           done));
  let lost = ref 0 in
  Array.iter
    (fun n -> if n.state <> Rangequery.Field_lock.fully_linked then incr lost)
    nodes;
  Alcotest.(check int) "nodes whose state is not exactly fully linked" 0 !lost

let state_word_cases =
  [
    Alcotest.test_case "a lock excludes a second locker" `Quick
      state_lock_excludes;
    Alcotest.test_case "unlock keeps the mark" `Quick state_unlock_keeps_mark;
    Alcotest.test_case "a flag raised beside a locker" `Quick
      state_flag_beside_a_locker;
  ]

(* A citrus-ebrrq two-children delete unlinks its victim for good (a
   replacement carries the successor's key), so a snapshot taken before
   it finds the key only in limbo.  The snapshot's op section must keep
   that node from being freed through any amount of later churn: the
   reclaimer poisons what it frees, and a covered poisoned node counts a
   [reclaim.poison_hits].  Once the snapshot is released, the same churn
   frees nodes, so the freeing path is live in this test.  Under EBR the
   snapshot holder needs no quiescence of its own; the QSBR backends
   would make the delete's grace wait wait for it. *)
let citrus_limbo_keeps_relocated () =
  let module LL = Hwts.Timestamp.Logical () in
  let module Ce =
    Rangequery.Citrus_ebrrq.Make (Hwts_reclaim.Ebr_backend) (LL)
  in
  let t = Ce.create () in
  (* 70 is the successor's parent, so the delete of 50 relocates 60 *)
  List.iter (fun k -> ignore (Ce.insert t k)) [ 50; 30; 70; 60; 80; 65 ];
  let poison () =
    Option.value ~default:0
      (Hwts_obs.Registry.counter_value "reclaim.poison_hits")
  in
  let hits = poison () in
  let churn ops =
    for i = 1 to ops do
      let k = 1_000 + (i mod 64) in
      ignore (Ce.insert t k);
      ignore (Ce.delete t k);
      Ce.quiesce t
    done
  in
  let past = Ce.snapshot t in
  on_worker (fun () -> ignore (Ce.delete t 50));
  Alcotest.(check (list int)) "50 is out of the tree" [ 30; 60; 65; 70; 80 ]
    (Ce.to_list t);
  on_worker (fun () -> churn 4_096);
  Alcotest.(check bool) "found at the snapshot" true (Ce.lookup_at t past 50);
  Alcotest.(check (array int))
    "range at the snapshot" [| 30; 50; 60; 65; 70; 80 |]
    (Ce.collect_at t past ~lo:0 ~hi:100);
  Alcotest.(check int) "no poisoned node covered" hits (poison ());
  Ce.snap_release t past;
  let reclaimed = Ce.reclaimed t in
  let deadline = Unix.gettimeofday () +. 2. in
  while Ce.reclaimed t = reclaimed && Unix.gettimeofday () < deadline do
    on_worker (fun () -> churn 256)
  done;
  Alcotest.(check bool) "frees after the release" true
    (Ce.reclaimed t > reclaimed);
  let now = Ce.snapshot t in
  Alcotest.(check bool)
    "gone at a later snapshot" false (Ce.lookup_at t now 50);
  Ce.snap_release t now

(* ---------- bundles ---------- *)

module BW = Rangequery.Bundle.Waiting (Cell)
module BK = Rangequery.Link.Make (Owned) (BW)

(* Install a pending entry for [v] as the link, as a structure does under
   its node lock. *)
let push o v =
  let was = head o in
  let e = BK.successor was (Value v) in
  BK.install o.owner 0 ~was e;
  e

let bundle_value_at o ts = payload (BK.value_at (head o) ts)

let bundle_basics () =
  reset ();
  M.set 100;
  let o = obj (Value "root") in
  Alcotest.(check string) "read" "root" (payload (head o));
  let e = push o "v1" in
  Alcotest.(check string) "pending head visible to raw read" "v1"
    (payload (Owned.value (head o)));
  BW.label e 150;
  Alcotest.(check string) "at 150" "v1" (bundle_value_at o 150);
  Alcotest.(check string) "at 149" "root" (bundle_value_at o 149);
  Alcotest.(check int) "chain" 2 (BK.chain_of (head o))

let bundle_exists_at () =
  reset ();
  M.set 100;
  let own = BK.pending (Value "born") in
  let o = obj own in
  BW.label own 200;
  Alcotest.(check bool) "before birth" false (BK.exists_at (head o) 150);
  Alcotest.(check bool) "after birth" true (BK.exists_at (head o) 200);
  Alcotest.(check string) "at birth" "born" (bundle_value_at o 200);
  (* value_at falls back to the creation value *)
  Alcotest.(check string) "fallback" "born" (bundle_value_at o 150);
  (* a link rewritten since [ts] still existed at [ts] *)
  BW.label (push o "moved") 300;
  Alcotest.(check bool) "rewritten after ts" true (BK.exists_at (head o) 250);
  Alcotest.(check bool) "still not before birth" false
    (BK.exists_at (head o) 150);
  Alcotest.(check bool) "a bare link exists at every label" true
    (BK.exists_at (Value "bare") 1)

let bundle_pending_spin_resolves () =
  reset ();
  M.set 100;
  let o = obj (Value 0) in
  let e = push o 1 in
  let reader =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ -> bundle_value_at o 500))
  in
  Unix.sleepf 0.02;
  BW.label e 400;
  Alcotest.(check int) "reader unblocked with labeled entry" 1
    (Domain.join reader)

(* Settling the newest entry at a floor of 250 keeps the entry labeled
   200 and cuts the rest. *)
let bundle_prune () =
  with_refresh_period 1 @@ fun () ->
  reset ();
  M.set 10;
  let o = obj (Value 0) in
  List.iter (fun (v, ts) -> BW.label (push o v) ts)
    [ (1, 100); (2, 200); (3, 300) ];
  Alcotest.(check int) "4 entries" 4 (BK.chain_of (head o));
  (* an active snapshot at 250 needs entry(200); everything older can go *)
  let at_250 = pin o 250 in
  BK.settle o.registry o.owner 0 (head o);
  Alcotest.(check int) "pruned to 2" 2 (BK.chain_of (head o));
  Alcotest.(check int) "snapshot at 250 intact" 2 (bundle_value_at o 250);
  Alcotest.(check int) "newest intact" 3 (bundle_value_at o 1000);
  unpin o at_250

let bundle_multi_label_atomicity () =
  reset ();
  M.set 10;
  (* one update labels two bundles with one timestamp: a snapshot sees both
     or neither *)
  let o1 = obj (Value "a0") and o2 = obj (Value "b0") in
  let e1 = push o1 "a1" and e2 = push o2 "b1" in
  BW.label e1 500;
  BW.label e2 500;
  List.iter
    (fun ts ->
      let x = bundle_value_at o1 ts and y = bundle_value_at o2 ts in
      Alcotest.(check bool)
        (Printf.sprintf "consistent at %d" ts)
        true
        ((x = "a0" && y = "b0") || (x = "a1" && y = "b1")))
    [ 499; 500; 501 ]

(* ---------- registry ---------- *)

let registry_basics () =
  let r = Rangequery.Rq_registry.create () in
  Alcotest.(check int) "empty min" 42
    (Rangequery.Rq_registry.min_active r ~default:42);
  Alcotest.(check int) "empty count" 0 (Rangequery.Rq_registry.active_count r);
  let announced =
    Rangequery.Rq_registry.announce r ~read:(fun () -> 100)
  in
  Alcotest.(check int) "announce returns the stamp" 100 announced;
  Alcotest.(check int) "active min" 100
    (Rangequery.Rq_registry.min_active r ~default:500);
  Alcotest.(check int) "count" 1 (Rangequery.Rq_registry.active_count r);
  Rangequery.Rq_registry.release r announced;
  Alcotest.(check int) "cleared" 0 (Rangequery.Rq_registry.active_count r)

let registry_across_domains () =
  let r = Rangequery.Rq_registry.create () in
  let announced = Atomic.make 0 and release = Atomic.make false in
  let ds =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            Sync.Slot.with_slot (fun _ ->
                let ts =
                  Rangequery.Rq_registry.announce r ~read:(fun () ->
                      (i + 1) * 100)
                in
                ignore (Atomic.fetch_and_add announced 1);
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done;
                Rangequery.Rq_registry.release r ts)))
  in
  while Atomic.get announced < 3 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "min across domains" 100
    (Rangequery.Rq_registry.min_active r ~default:9999);
  Alcotest.(check int) "three active" 3 (Rangequery.Rq_registry.active_count r);
  Atomic.set release true;
  List.iter Domain.join ds;
  Alcotest.(check int) "all gone" 0 (Rangequery.Rq_registry.active_count r)

let registry_zero_active_early_exit () =
  (* With no RQ announced, the pruning floor must come from one shared
     load — no slot array traffic.  Asserted through the obs counters:
     the early-exit counter moves, the slot-scan counter does not. *)
  let prev = Hwts_obs.Config.enabled () in
  Hwts_obs.Config.set_enabled true;
  Fun.protect ~finally:(fun () -> Hwts_obs.Config.set_enabled prev)
  @@ fun () ->
  let r = Rangequery.Rq_registry.create () in
  let early = Hwts_obs.Registry.counter "rangequery.rq.early_exits" in
  let scans = Hwts_obs.Registry.counter "rangequery.rq.slot_scans" in
  let e0 = Hwts_obs.Counter.sum early and s0 = Hwts_obs.Counter.sum scans in
  Alcotest.(check int) "min_active is the caller's label" 7
    (Rangequery.Rq_registry.min_active r ~default:7);
  Alcotest.(check int) "min_active_cached is exact, not cached" 9
    (Rangequery.Rq_registry.min_active_cached r ~default:9);
  Alcotest.(check int) "both calls early-exited" (e0 + 2)
    (Hwts_obs.Counter.sum early);
  Alcotest.(check int) "no slot was scanned" s0 (Hwts_obs.Counter.sum scans);
  (* One announced RQ flips it: the scan path runs and finds the stamp. *)
  let ts = Rangequery.Rq_registry.announce r ~read:(fun () -> 5) in
  Alcotest.(check int) "scan finds the announcement" 5
    (Rangequery.Rq_registry.min_active r ~default:7);
  Alcotest.(check int) "scan counter moved" (s0 + 1)
    (Hwts_obs.Counter.sum scans);
  Alcotest.(check int) "early-exit counter did not" (e0 + 2)
    (Hwts_obs.Counter.sum early);
  Rangequery.Rq_registry.release r ts

let registry_pin_multiset () =
  (* One domain holding several announcements at once — a snapshot handle
     plus RQs running under it.  The published floor must stay the
     minimum over ALL open pins for the slot's whole occupancy, survive
     LIFO releases of inner RQs, and support out-of-order release by stamp
     (snapshot handles close whenever their user closes them). *)
  let r = Rangequery.Rq_registry.create () in
  let outer = Rangequery.Rq_registry.announce r ~read:(fun () -> 10) in
  let inner = Rangequery.Rq_registry.announce r ~read:(fun () -> 50) in
  Alcotest.(check int) "two pins" 2 (Rangequery.Rq_registry.active_count r);
  Alcotest.(check int) "floor is the outer pin" 10
    (Rangequery.Rq_registry.min_active r ~default:99);
  Rangequery.Rq_registry.release r inner;
  (* the LIFO release pops the inner announcement, NOT the slot wholesale *)
  Alcotest.(check int) "outer survives inner exit" 10
    (Rangequery.Rq_registry.min_active r ~default:99);
  let inner2 = Rangequery.Rq_registry.announce r ~read:(fun () -> 70) in
  Rangequery.Rq_registry.release r outer;
  Alcotest.(check int) "out-of-order release moves the floor" 70
    (Rangequery.Rq_registry.min_active r ~default:99);
  Rangequery.Rq_registry.release r 12345;
  Alcotest.(check int) "releasing an unheld stamp is a no-op" 70
    (Rangequery.Rq_registry.min_active r ~default:99);
  Rangequery.Rq_registry.release r inner2;
  Alcotest.(check int) "all pins gone" 0
    (Rangequery.Rq_registry.active_count r);
  Alcotest.(check int) "empty floor" 99
    (Rangequery.Rq_registry.min_active r ~default:99)

let snapshot_pinned_across_nested_rqs_and_pruning () =
  (* The announce-slot lifetime trap: hold a Snapshot.t-style handle open
     on a bundled structure, run ordinary range queries on the SAME
     domain (each announces and releases its own registry pin), and
     churn updates from another domain with the pruning floor refreshed
     on every operation.  A registry that tracked only the latest
     announcement per slot would unpin the handle at the first inner
     release, the churn
     would prune the bundle entries the handle's label still needs, and
     the cut would change under the open handle. *)
  with_refresh_period 1 @@ fun () ->
  let module S = Rangequery.Skiplist_bundle.Make (Hwts.Timestamp.Hardware) in
  let t = S.create () in
  for k = 1 to 24 do
    ignore (S.insert t k)
  done;
  let s = S.snapshot t in
  let before = S.collect_at t s ~lo:1 ~hi:64 in
  let stop = Atomic.make false in
  let churn =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            for i = 1 to 400 do
              let k = 1 + (i mod 24) in
              ignore (S.delete t k);
              ignore (S.insert t k)
            done;
            Atomic.set stop true))
  in
  (* nested same-domain RQs while the churn prunes concurrently *)
  while not (Atomic.get stop) do
    ignore (S.range_query t ~lo:1 ~hi:8)
  done;
  Domain.join churn;
  Alcotest.(check (array int))
    "cut unchanged under nested RQs and pruning churn" before
    (S.collect_at t s ~lo:1 ~hi:64);
  Alcotest.(check bool) "point reads agree with the cut" true
    (Array.for_all (fun k -> S.lookup_at t s k) before);
  S.snap_release t s;
  S.snap_release t s (* idempotent *)

(* ---------- observability is inert ---------- *)

(* One deterministic vCAS RQ scenario with a known number of forced
   timestamp ties: after [advance] settles the strict clock at the frozen
   mock value, every further snapshot on this domain observes a tie and
   bumps. *)
let obs_scenario enabled =
  Hwts_obs.Config.set_enabled enabled;
  Hwts_obs.Registry.reset_all ();
  let module MT = Hwts.Timestamp.Mock () in
  let module ST = Hwts.Timestamp.Strict_sharded (MT) () in
  let module T = Rangequery.Bst_vcas.Make (ST) in
  let t = T.create () in
  for k = 1 to 16 do
    ignore (T.insert t k)
  done;
  MT.set 50;
  MT.freeze ();
  ignore (ST.advance ());
  (* the strict clock now holds the frozen value: each of these snapshots
     ties and must bump *)
  let rqs = List.init 5 (fun i -> T.range_query t ~lo:1 ~hi:(4 + i)) in
  MT.thaw ();
  (* move the mock clock past the bumped stamps so the final check query
     is not itself a tie *)
  MT.set 1000;
  ignore (T.delete t 3);
  ignore (T.insert t 40);
  (rqs, T.range_query t ~lo:1 ~hi:64)

let obs_inert () =
  let prev = Hwts_obs.Config.enabled () in
  Fun.protect
    ~finally:(fun () -> Hwts_obs.Config.set_enabled prev)
    (fun () ->
      let off = obs_scenario false in
      let ties_off = Hwts_obs.Registry.counter_value "timestamp.strict.ties" in
      let on = obs_scenario true in
      let ties_on = Hwts_obs.Registry.counter_value "timestamp.strict.ties" in
      Alcotest.(check bool) "identical results with obs off/on" true (off = on);
      Alcotest.(check (option int)) "nothing counted when disabled" (Some 0)
        ties_off;
      Alcotest.(check (option int)) "forced ties counted when enabled" (Some 5)
        ties_on)

(* ---------- reserved keys ---------- *)

module LL = Hwts.Timestamp.Logical ()

(* The tree's sentinels sit at max_int - 2 .. max_int.  Neither the set
   nor the map reports those keys present, now or in a snapshot, on an
   empty tree or on one holding real keys. *)
let sentinels_absent () =
  let module Bst = Rangequery.Bst_vcas.Make (LL) in
  let module Kv = Rangequery.Bst_vcas_kv.Make (LL) in
  let reserved = [ max_int - 2; max_int - 1; max_int ] in
  let check what t_mem =
    List.iter
      (fun k ->
        Alcotest.(check bool) (Printf.sprintf "%s %d" what k) false (t_mem k))
      reserved
  in
  let s = Bst.create () and m = Kv.create () in
  let probe label =
    check (label ^ ": set contains") (Bst.contains s);
    check (label ^ ": map mem") (Kv.mem m);
    Alcotest.(check bool) (label ^ ": map find") true
      (List.for_all (fun k -> Kv.find m k = None) reserved);
    let ss = Bst.snapshot s and ms = Kv.snapshot m in
    check (label ^ ": set lookup_at") (Bst.lookup_at s ss);
    check (label ^ ": map mem_at") (Kv.mem_at m ms);
    Alcotest.(check bool) (label ^ ": map lookup_at") true
      (List.for_all (fun k -> Kv.lookup_at m ms k = None) reserved);
    Bst.snap_release s ss;
    Kv.snap_release m ms
  in
  probe "empty";
  List.iter
    (fun k ->
      ignore (Bst.insert s k);
      Kv.set m k k)
    [ 5; max_int - 3; 1 ];
  probe "populated"

(* ---------- memory layout ---------- *)

(* Heap words each key adds to a structure, over seeded inserts from
   1024 to 8192 keys under the logical clock.  One more heap block per
   node shows up here as whole words per key, without timing anything.
   The bounds are the measured values, so a block added back to any node
   fails this.  A skip-list node's size follows its tower height, so the
   case restarts the domain's height stream from its own seed and reads
   the same in any order: 4.0088 for skiplist-vcas and 6.0088 for
   skiplist-bundle. *)
let words_per_key create insert =
  let warm = 1024 and keys = 8192 in
  let t = create () in
  let words () = Obj.reachable_words (Obj.repr t) in
  let rng = Util.rng 0x1A40 in
  Dstruct.Skip_level.reseed 0x1A40;
  let n = ref 0 in
  let fill upto =
    while !n < upto do
      if insert t (Dstruct.Prng.below rng (1 lsl 30)) then incr n
    done
  in
  (* the slope after [warm] keys: per-structure state that the first
     operations allocate once is not a per-key cost *)
  fill warm;
  let base = words () in
  fill keys;
  float_of_int (words () - base) /. float_of_int (keys - warm)

let layout_bound name bound words () =
  let w = words () in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4f words/key <= %.2f" name w bound)
    true (w <= bound)

let layout_cases =
  let module Ebr = Hwts_reclaim.Ebr_backend in
  let module Bst = Rangequery.Bst_vcas.Make (LL) in
  let module Kv = Rangequery.Bst_vcas_kv.Make (LL) in
  let module Cv = Rangequery.Citrus_vcas.Make (Ebr) (LL) in
  let module Cb = Rangequery.Citrus_bundle.Make (Ebr) (LL) in
  let module Ce = Rangequery.Citrus_ebrrq.Make (Ebr) (LL) in
  let module Sv = Rangequery.Skiplist_vcas.Make (LL) in
  let module Sb = Rangequery.Skiplist_bundle.Make (LL) in
  let module Lb = Rangequery.Lazylist_bundle.Make (LL) in
  let module Bl = Rangequery.Bst_ebrrq_lockfree.Make (Ebr) (LL) in
  [
    ("bst-vcas", 4., fun () -> words_per_key Bst.create Bst.insert);
    ( "bst-vcas-kv",
      7.,
      fun () -> words_per_key Kv.create (fun t k -> Kv.add t k k) );
    ("citrus-vcas", 7., fun () -> words_per_key Cv.create Cv.insert);
    ("citrus-bundle", 7., fun () -> words_per_key Cb.create Cb.insert);
    ("citrus-ebrrq", 6., fun () -> words_per_key Ce.create Ce.insert);
    ("skiplist-vcas", 4.01, fun () -> words_per_key Sv.create Sv.insert);
    ("skiplist-bundle", 6.01, fun () -> words_per_key Sb.create Sb.insert);
    ("lazylist-bundle", 5., fun () -> words_per_key Lb.create Lb.insert);
    ("bst-ebrrq-lockfree", 8., fun () -> words_per_key Bl.create Bl.insert);
  ]
  |> List.map (fun (name, bound, words) ->
         Alcotest.test_case name `Quick (layout_bound name bound words))

(* ---------- towers ---------- *)

(* A skip list's levels at quiescence, after 8,192 seeded inserts and
   4,096 deletes.  Level 0 holds the live keys; each level above it is
   strictly ascending, a subsequence of the level below, and holds only
   live nodes; each node's block is its [prefix] fields plus one slot per
   level above 0 that it is linked at.  On skiplist-bundle, Field_lock
   writes a state word at every lock, unlock and flag of the run: one
   written into a slot would cut that level short or put a node there
   out of order, so some node's block would outgrow the levels it is
   seen at. *)
let towers_case ~prefix create insert delete towers () =
  Dstruct.Skip_level.reseed 0x70E5;
  let t = create () in
  let rng = Util.rng 0x70E5 in
  let keys = Array.make 8_192 0 and n = ref 0 in
  while !n < Array.length keys do
    let k = 1 + Dstruct.Prng.below rng (1 lsl 30) in
    if insert t k then begin
      keys.(!n) <- k;
      incr n
    end
  done;
  Util.shuffle rng keys;
  for i = 0 to 4_095 do
    assert (delete t keys.(i))
  done;
  let live = Array.sub keys 4_096 4_096 in
  Array.sort compare live;
  let levels : Dstruct.Skip_level.seen list array = towers t in
  let keys_at l = List.map (fun s -> s.Dstruct.Skip_level.key) levels.(l) in
  Alcotest.(check (list int)) "level 0 holds the live keys"
    (Array.to_list live) (keys_at 0);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  (* both ascending, so a merge decides it *)
  let rec within upper lower =
    match (upper, lower) with
    | [], _ -> true
    | _ :: _, [] -> false
    | u :: us, l :: ls ->
      if u = l then within us ls else u > l && within upper ls
  in
  let top = Hashtbl.create 8_192 in
  Array.iteri
    (fun l seen ->
      let ks = keys_at l in
      Alcotest.(check bool)
        (Printf.sprintf "level %d strictly ascending" l)
        true (ascending ks);
      if l > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "level %d within level %d" l (l - 1))
          true
          (within ks (keys_at (l - 1)));
      Alcotest.(check int)
        (Printf.sprintf "level %d: nodes not live" l)
        0
        (List.length (List.filter (fun s -> not s.Dstruct.Skip_level.live) seen));
      List.iter (fun k -> Hashtbl.replace top k l) ks)
    levels;
  Alcotest.(check bool) "some node above level 3" true
    (Array.length levels > 4 && levels.(4) <> []);
  let misfit =
    List.filter
      (fun { Dstruct.Skip_level.key; words; _ } ->
        words <> prefix + Hashtbl.find top key)
      levels.(0)
  in
  Alcotest.(check int) "blocks that are not their prefix plus their top" 0
    (List.length misfit)

let towers_cases =
  let module Sv = Rangequery.Skiplist_vcas.Make (LL) in
  let module Sb = Rangequery.Skiplist_bundle.Make (LL) in
  [
    Alcotest.test_case "skiplist-bundle" `Quick
      (towers_case ~prefix:4 Sb.create Sb.insert Sb.delete Sb.towers);
    Alcotest.test_case "skiplist-vcas" `Quick
      (towers_case ~prefix:2 Sv.create Sv.insert Sv.delete Sv.towers);
  ]

(* ---------- range answers: exact-size ascending arrays ---------- *)

let strictly_ascending a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

(* [got] is strictly ascending and holds exactly [want]'s keys. *)
let check_answer what want got =
  Alcotest.(check bool) (what ^ ": strictly ascending") true
    (strictly_ascending got);
  Alcotest.(check (array int)) what want got

let collect_span = 12_000

let seq_range oracle ~lo ~hi =
  Array.of_list (Dstruct.Seq_set.range_query oracle ~lo ~hi)

(* Over 5,000 keys a range answer spans eight buffer segments.  First
   quiescent reads, then, under EBR, a snapshot held across another
   domain's deletes and inserts: the EBR-RQ trees then find the deleted
   keys in limbo, out of key order, and the versioned structures read
   older versions. *)
let large_collect (inst : Workload.Targets.instance) () =
  let (module S) = inst.structure in
  let t = S.create () and oracle = Dstruct.Seq_set.create () in
  let rng = Util.rng 0xC011EC7 in
  for i = 1 to 10_000 do
    let k = 1 + Dstruct.Prng.below rng collect_span in
    if i mod 8 = 0 then ignore (S.delete t k && Dstruct.Seq_set.delete oracle k)
    else ignore (S.insert t k && Dstruct.Seq_set.insert oracle k)
  done;
  let live = Dstruct.Seq_set.size oracle in
  Alcotest.(check bool) (Printf.sprintf "%d live keys" live) true (live >= 5_000);
  let s = S.snapshot t in
  List.iter
    (fun (what, lo, hi) ->
      check_answer what (seq_range oracle ~lo ~hi) (S.collect_at t s ~lo ~hi))
    [
      ("whole range", 1, collect_span);
      ("inner range", 2_000, 9_999);
      ("range past the keys", collect_span + 1, collect_span + 100);
    ];
  S.snap_release t s;
  S.offline t;
  if inst.reclaim = "ebr" then begin
    let before = seq_range oracle ~lo:1 ~hi:collect_span in
    let s = S.snapshot t in
    on_worker (fun () ->
        Array.iteri (fun i k -> if i mod 3 = 0 then ignore (S.delete t k)) before;
        for k = 1 to collect_span do
          if k mod 5 = 0 && not (Dstruct.Seq_set.contains oracle k) then
            ignore (S.insert t k)
        done;
        S.offline t);
    check_answer "whole range under a held snapshot" before
      (S.collect_at t s ~lo:1 ~hi:collect_span);
    S.snap_release t s
  end

let large_collect_cases =
  List.concat_map
    (fun (name, make) ->
      List.concat_map
        (fun ts ->
          List.map
            (fun reclaim ->
              let inst = make reclaim ts in
              Alcotest.test_case
                (Printf.sprintf "%s/%s/%s" name inst.Workload.Targets.provider
                   inst.reclaim)
                `Quick (large_collect inst))
            (if Workload.Targets.reclaim_sensitive name then
               Workload.Targets.all_reclaims
             else [ `Ebr ]))
        [ `Logical; `Hardware ])
    Workload.Targets.all_instances

(* A citrus-vcas two-children delete relocates the successor with two
   versioned writes: the replacement takes the victim's place, then the
   successor's old link is cut.  The deleter is parked at each pause
   point in turn until it stops between the two, where the raw tree
   holds the successor twice.  A snapshot taken there that already sees
   the replacement meets the successor's key twice in its walk; the
   answer must still hold it once. *)
let citrus_vcas_relocation_duplicate () =
  let module LC = Hwts.Timestamp.Logical () in
  let module S = Rangequery.Citrus_vcas.Make (Hwts_reclaim.Ebr_backend) (LC) in
  (* 70 is the successor's parent, so the delete of 50 relocates 60;
     6,000 more keys put the answer across several buffer segments *)
  let bulk = Array.init 6_000 (fun i -> 100 + i) in
  let with_50 = Array.append [| 30; 50; 60; 65; 70; 80 |] bulk
  and without_50 = Array.append [| 30; 60; 65; 70; 80 |] bulk in
  Util.shuffle (Util.rng 0x5EC0) bulk;
  let build () =
    let t = S.create () in
    List.iter (fun k -> ignore (S.insert t k)) [ 50; 30; 70; 60; 80; 65 ];
    Array.iter (fun k -> ignore (S.insert t k)) bulk;
    t
  in
  let reached = ref false and point = ref 1 and more = ref true in
  while (not !reached) && !more do
    let t = build () in
    let finished = Atomic.make false in
    Sync.Pause.park_at !point;
    let deleter =
      Domain.spawn (fun () ->
          Sync.Slot.with_slot (fun _ ->
              let r = S.delete t 50 in
              Atomic.set finished true;
              r))
    in
    while not (Sync.Pause.parked () || Atomic.get finished) do
      Domain.cpu_relax ()
    done;
    if Sync.Pause.parked () then begin
      let sixties = List.filter (( = ) 60) (S.to_list t) in
      if List.length sixties = 2 then begin
        let s = S.snapshot t in
        let got = S.collect_at t s ~lo:1 ~hi:10_000 in
        S.snap_release t s;
        if got = without_50 then reached := true
        else check_answer "snapshot before the relocation" with_50 got
      end;
      Sync.Pause.unpark ()
    end
    else begin
      (* the delete passed fewer points than [point]: disarm the park *)
      Sync.Pause.disable ();
      more := false
    end;
    Alcotest.(check bool) "delete" true (Domain.join deleter);
    incr point
  done;
  Alcotest.(check bool)
    (Printf.sprintf "a snapshot met the relocated key twice (points 1-%d)"
       (!point - 1))
    true !reached

(* The EBR-RQ trees' limbo path at scale: a snapshot taken before 2,000
   deletes finds those keys only in limbo, and merges them with the
   tree's keys into one ascending answer. *)
let ebrrq_limbo_at_scale (type a)
    (module S : Dstruct.Ordered_set.RQ with type t = a) (limbo_size : a -> int)
    () =
  let t = S.create () in
  let keys = Array.init 6_000 (fun i -> 1 + (2 * i)) in
  let order = Array.copy keys in
  Util.shuffle (Util.rng 0x11B0) order;
  Array.iter (fun k -> ignore (S.insert t k)) order;
  let s = S.snapshot t in
  on_worker (fun () ->
      Array.iteri (fun i k -> if i < 2_000 then ignore (S.delete t k)) order);
  let in_limbo = limbo_size t in
  check_answer "answer at the snapshot" keys (S.collect_at t s ~lo:0 ~hi:20_000);
  S.snap_release t s;
  Alcotest.(check bool)
    (Printf.sprintf "%d nodes in limbo during the read" in_limbo)
    true (in_limbo > 0)

(* Any update that meets a flagged leaf may splice it out, before the
   leaf's deleter retires it.  A snapshot held from before the delete
   must still find the key then.  The deleter of 20 is parked at each
   pause point in turn; while it is parked, a second domain's delete of
   20 helps splice the leaf out (and returns false) once the first has
   flagged it.  Through it all, the held handle reads the state it was
   taken at. *)
let ebrrq_splice_gap () =
  let module LC = Hwts.Timestamp.Logical () in
  let module S =
    Rangequery.Bst_ebrrq_lockfree.Make (Hwts_reclaim.Ebr_backend) (LC)
  in
  let spliced = ref 0 and point = ref 1 and more = ref true in
  while !more do
    let t = S.create () in
    List.iter (fun k -> ignore (S.insert t k)) [ 10; 20; 30 ];
    let s = S.snapshot t in
    let finished = Atomic.make false in
    Sync.Pause.park_at !point;
    let deleter =
      Domain.spawn (fun () ->
          Sync.Slot.with_slot (fun _ ->
              let r = S.delete t 20 in
              Atomic.set finished true;
              r))
    in
    while not (Sync.Pause.parked () || Atomic.get finished) do
      Domain.cpu_relax ()
    done;
    if Sync.Pause.parked () then begin
      let helper =
        List.hd (Util.spawn_workers 1 (fun _ -> S.delete t 20))
      in
      if not helper then incr spliced;
      let got = S.collect_at t s ~lo:0 ~hi:100 and hit = S.lookup_at t s 20 in
      Sync.Pause.unpark ();
      let deleted = Domain.join deleter in
      let at = Printf.sprintf " (deleter parked at point %d)" !point in
      check_answer ("held snapshot" ^ at) [| 10; 20; 30 |] got;
      Alcotest.(check bool) ("held lookup" ^ at) true hit;
      Alcotest.(check bool) ("one delete wins" ^ at) true (deleted <> helper);
      check_answer ("held snapshot after the deletes" ^ at) [| 10; 20; 30 |]
        (S.collect_at t s ~lo:0 ~hi:100);
      Alcotest.(check bool)
        ("held lookup after the deletes" ^ at)
        true (S.lookup_at t s 20)
    end
    else begin
      (* the delete passed fewer points than [point]: disarm the park *)
      Sync.Pause.disable ();
      more := false;
      Alcotest.(check bool) "delete" true (Domain.join deleter)
    end;
    S.snap_release t s;
    incr point
  done;
  Alcotest.(check bool)
    (Printf.sprintf "a helper spliced a parked delete's leaf (points 1-%d)"
       (!point - 2))
    true (!spliced > 0)

(* The delete of 20 is the only helper of its leaf's pending [dtime], and
   it parks inside its [T.read ()], holding a label below the snapshot
   taken next.  A scan at that snapshot meets the leaf through its
   flagged edge, so it must not judge the leaf on the pending time: it
   labels [dtime] itself, above the snapshot, and the parked delete's
   late CAS then loses.  The answer through the handle before the delete
   resumes and after agree, and holds 20: present iff the final [dtime]
   is above the handle's label.  [kind] is the one read made while the
   helper is parked: a scan, or a point lookup; or, first, a second
   domain's delete of 20 splices the leaf out, which labels its [dtime]
   before the splice and below the snapshot, and then a scan. *)
let ebrrq_stale_helper kind () =
  let module S =
    Rangequery.Bst_ebrrq_lockfree.Make (Hwts_reclaim.Ebr_backend) (Gate)
  in
  let read t s =
    match kind with
    | `Scan | `Spliced -> S.collect_at t s ~lo:0 ~hi:100
    | `Lookup -> if S.lookup_at t s 20 then [| 20 |] else [||]
  in
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 10; 20; 30 ];
  Atomic.set Gate.gate 1;
  let deleter =
    Domain.spawn (fun () -> Sync.Slot.with_slot (fun _ -> S.delete t 20))
  in
  while Atomic.get Gate.gate <> 2 do
    Domain.cpu_relax ()
  done;
  let spliced =
    kind = `Spliced && not (List.hd (Util.spawn_workers 1 (fun _ -> S.delete t 20)))
  in
  let s = S.snapshot t in
  let parked = read t s in
  Atomic.set Gate.gate 0;
  Alcotest.(check bool) "delete" true (Domain.join deleter);
  Alcotest.(check bool) "the second delete spliced" (kind = `Spliced) spliced;
  let want =
    match kind with
    | `Scan -> [| 10; 20; 30 |]
    | `Lookup -> [| 20 |]
    | `Spliced -> [| 10; 30 |]
  in
  check_answer "while the helper was parked" want parked;
  check_answer "after it resumed" want (read t s);
  S.snap_release t s;
  Alcotest.(check (list int)) "current state" [ 10; 30 ] (S.to_list t)

(* A set leaf is its key, so a leaf of [k] inserted after an earlier
   one left the tree is the same word as it.  10 and 20 are siblings;
   the delete of 10 is parked at each pause point in turn.  While it is
   parked, a second domain deletes 10 (splicing the parked delete's leaf
   out, and returning false, once that delete has flagged it) and
   inserts 10 again, as 20's sibling under a new parent.  A parked
   delete that then looks for its own leaf by key and identity alone
   finds the new 10 and splices out its unflagged sibling 20.  Whatever
   the point, the parked delete removes a 10, 20 stays, and 10 is there
   at the end iff the second delete found it flagged. *)
let value_equal_leaves (module S : Dstruct.Ordered_set.RQ) () =
  let flagged = ref 0 and point = ref 1 and more = ref true in
  while !more do
    let t = S.create () in
    List.iter (fun k -> ignore (S.insert t k)) [ 10; 20 ];
    let finished = Atomic.make false in
    Sync.Pause.park_at !point;
    let deleter =
      Domain.spawn (fun () ->
          Sync.Slot.with_slot (fun _ ->
              let r = S.delete t 10 in
              Atomic.set finished true;
              r))
    in
    while not (Sync.Pause.parked () || Atomic.get finished) do
      Domain.cpu_relax ()
    done;
    if Sync.Pause.parked () then begin
      let deleted, inserted =
        List.hd
          (Util.spawn_workers 1 (fun _ ->
               let d = S.delete t 10 in
               (d, S.insert t 10)))
      in
      if not deleted then incr flagged;
      Sync.Pause.unpark ();
      let at = Printf.sprintf " (delete parked at point %d)" !point in
      Alcotest.(check bool) ("parked delete" ^ at) true (Domain.join deleter);
      Alcotest.(check bool) ("second insert" ^ at) true inserted;
      Alcotest.(check (list int))
        ("final set" ^ at)
        (if deleted then [ 20 ] else [ 10; 20 ])
        (S.to_list t);
      Alcotest.(check bool) ("contains 20" ^ at) true (S.contains t 20)
    end
    else begin
      (* the delete passed fewer points than [point]: disarm the park *)
      Sync.Pause.disable ();
      more := false;
      Alcotest.(check bool) "delete" true (Domain.join deleter)
    end;
    incr point
  done;
  Alcotest.(check bool)
    (Printf.sprintf "a delete was parked after its flag (points 1-%d)"
       (!point - 2))
    true (!flagged > 0)

let value_equal_cases =
  let module Bv = Rangequery.Bst_vcas.Make (LL) in
  let module Bl =
    Rangequery.Bst_ebrrq_lockfree.Make (Hwts_reclaim.Ebr_backend) (LL)
  in
  [
    Alcotest.test_case "bst-vcas" `Quick (value_equal_leaves (module Bv));
    Alcotest.test_case "bst-ebrrq-lockfree" `Quick
      (value_equal_leaves (module Bl));
  ]

let collect_path_cases =
  let module Ebr = Hwts_reclaim.Ebr_backend in
  let module Ce = Rangequery.Citrus_ebrrq.Make (Ebr) (LL) in
  let module Bl = Rangequery.Bst_ebrrq_lockfree.Make (Ebr) (LL) in
  [
    Alcotest.test_case "citrus-vcas relocation duplicate" `Quick
      citrus_vcas_relocation_duplicate;
    Alcotest.test_case "citrus-ebrrq limbo" `Quick
      (ebrrq_limbo_at_scale (module Ce) Ce.limbo_size);
    Alcotest.test_case "bst-ebrrq-lockfree limbo" `Quick
      (ebrrq_limbo_at_scale (module Bl) Bl.limbo_size);
    Alcotest.test_case "bst-ebrrq-lockfree splice gap" `Quick ebrrq_splice_gap;
    Alcotest.test_case "bst-ebrrq-lockfree stale helper (scan)" `Quick
      (ebrrq_stale_helper `Scan);
    Alcotest.test_case "bst-ebrrq-lockfree stale helper (lookup)" `Quick
      (ebrrq_stale_helper `Lookup);
    Alcotest.test_case "bst-ebrrq-lockfree stale helper (spliced)" `Quick
      (ebrrq_stale_helper `Spliced);
  ]

(* ---------- citrus-ebrrq: marks, limbo and the grace window ---------- *)

(* [f ()] on a fresh domain, and a flag raised once it returns. *)
let spawn_flagged f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Sync.Slot.with_slot (fun _ ->
            Fun.protect ~finally:(fun () -> Atomic.set finished true) f))
  in
  (finished, d)

(* Wait until the domain of [spawn_flagged] returns or [until ()] holds,
   publishing this domain's QSBR safe points meanwhile: a grace wait on
   the other domain waits for them.  It does not pass a pause point, so
   it cannot take a park meant for the other domain. *)
let await ?(until = fun () -> false) (finished, _) =
  while not (Atomic.get finished || until ()) do
    Sync.Quiesce.poke ();
    Domain.cpu_relax ()
  done

let join_flagged ((_, d) as job) =
  await job;
  Domain.join d

(* A citrus-ebrrq tree in which the delete of 50 relocates 60: 70 is the
   successor's parent, and 65 its right child. *)
let relocation_tree (type a) (module S : Dstruct.Ordered_set.RQ with type t = a)
    : a =
  let t = S.create () in
  List.iter (fun k -> ignore (S.insert t k)) [ 50; 30; 70; 60; 80; 65 ];
  t

let count k l = List.length (List.filter (( = ) k) l)

(* The delete of 50 is parked at each pause point in turn until it stops
   between its labeled section and its grace wait: the replacement of
   60 has taken 50's place, and the successor, dead and marked, is still
   linked under 70.  Another domain then deletes 60, the replacement's
   key: it needs the locks the parked delete holds, so it completes only
   once that delete does.  A snapshot taken while the delete is parked
   holds 60 once; one taken after both deletes does not hold it, and the
   marked successor, which walks could reach until it was unlinked,
   does not bring it back. *)
let citrus_parked_relocation (module S : Dstruct.Ordered_set.RQ) () =
  let reached = ref false and point = ref 1 in
  while not !reached do
    let t = relocation_tree (module S) in
    Sync.Pause.park_at !point;
    let first =
      spawn_flagged (fun () ->
          let r = S.delete t 50 in
          S.offline t;
          r)
    in
    await ~until:Sync.Pause.parked first;
    if not (Sync.Pause.parked ()) then begin
      Sync.Pause.disable ();
      Alcotest.failf "the delete of 50 passed %d points without a grace window"
        (!point - 1)
    end;
    if count 60 (S.to_list t) = 2 then begin
      reached := true;
      let second =
        spawn_flagged (fun () ->
            let r = S.delete t 60 in
            S.offline t;
            r)
      in
      let during = S.snapshot t in
      let got = S.collect_at t during ~lo:0 ~hi:100
      and hit = S.lookup_at t during 60 in
      Sync.Pause.unpark ();
      Alcotest.(check bool) "delete 50" true (join_flagged first);
      Alcotest.(check bool) "delete 60" true (join_flagged second);
      let after = S.snapshot t in
      check_answer "snapshot in the grace window" [| 30; 60; 65; 70; 80 |] got;
      Alcotest.(check bool) "60 at that snapshot" true hit;
      check_answer "snapshot after both deletes" [| 30; 65; 70; 80 |]
        (S.collect_at t after ~lo:0 ~hi:100);
      Alcotest.(check bool) "60 at it" false (S.lookup_at t after 60);
      check_answer "the grace-window snapshot, from limbo"
        [| 30; 60; 65; 70; 80 |]
        (S.collect_at t during ~lo:0 ~hi:100);
      Alcotest.(check (list int)) "current tree" [ 30; 65; 70; 80 ]
        (S.to_list t);
      S.snap_release t during;
      S.snap_release t after
    end
    else begin
      Sync.Pause.unpark ();
      Alcotest.(check bool) "delete 50" true (join_flagged first)
    end;
    incr point
  done

(* A scan at a snapshot taken before a delete must return the deleted
   key, whenever it runs.  First, the delete of [victim] is parked at
   each of its pause points in turn, and the scan runs while it is
   parked: a node marked there must already be in limbo, since the walk
   skips it.  Then a scan is parked as its walk reaches 30, the first
   key, holding 50; the delete of 50 labels, marks and retires 50 and
   60, replaces 50, and waits in its grace wait for the scan.  The scan
   resumes through 50 and the marked successor, skips both, and finds
   them in limbo. *)
let citrus_scan_beside_delete (module S : Dstruct.Ordered_set.RQ) victim () =
  let all = [| 30; 50; 60; 65; 70; 80 |] in
  let point = ref 1 and more = ref true in
  while !more do
    let t = relocation_tree (module S) in
    let s = S.snapshot t in
    Sync.Pause.park_at !point;
    let job =
      spawn_flagged (fun () ->
          let r = S.delete t victim in
          S.offline t;
          r)
    in
    await ~until:Sync.Pause.parked job;
    let at = Printf.sprintf " (delete of %d parked at point %d)" victim !point in
    if Sync.Pause.parked () then begin
      let got = S.collect_at t s ~lo:0 ~hi:100
      and hit = S.lookup_at t s victim in
      Sync.Pause.unpark ();
      Alcotest.(check bool) ("delete" ^ at) true (join_flagged job);
      check_answer ("scan" ^ at) all got;
      Alcotest.(check bool) ("lookup" ^ at) true hit
    end
    else begin
      Sync.Pause.disable ();
      more := false;
      Alcotest.(check bool) "delete" true (join_flagged job)
    end;
    check_answer ("scan after the delete" ^ at) all
      (S.collect_at t s ~lo:0 ~hi:100);
    S.snap_release t s;
    incr point
  done;
  (* the section's lock, and one [dies] per node that dies *)
  let least = if victim = 50 then 3 else 2 in
  Alcotest.(check bool)
    (Printf.sprintf "the delete passed %d points, at least %d" (!point - 2)
       least)
    true
    (!point - 2 >= least);
  let t = relocation_tree (module S) in
  let taken = Atomic.make false and go = Atomic.make false in
  let scan =
    spawn_flagged (fun () ->
        let s = S.snapshot t in
        Atomic.set taken true;
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        let got = S.collect_at t s ~lo:0 ~hi:100 in
        S.snap_release t s;
        S.offline t;
        got)
  in
  while not (Atomic.get taken) do
    Domain.cpu_relax ()
  done;
  Sync.Pause.park_at 1;
  Atomic.set go true;
  await ~until:Sync.Pause.parked scan;
  let delete =
    spawn_flagged (fun () ->
        let r = S.delete t 50 in
        S.offline t;
        r)
  in
  await ~until:(fun () -> count 60 (S.to_list t) = 2) delete;
  Sync.Pause.unpark ();
  check_answer "scan parked mid-walk" all (join_flagged scan);
  Alcotest.(check bool) "delete 50" true (join_flagged delete);
  Alcotest.(check (list int)) "current tree" [ 30; 60; 65; 70; 80 ]
    (S.to_list t)

(* A reader that races a limbo trim may still hold a freed cell.  The
   free negates the cell's label, and recovery that counts such a cell
   counts a [reclaim.poison_hits].  Here a list head is kept from before
   the delete's cell, the slot's oldest, was freed, and recovery walks
   it at a label the cell covers, before and after the free. *)
let citrus_freed_cell_poisons () =
  let module LC = Hwts.Timestamp.Logical () in
  let module Ce = Rangequery.Citrus_ebrrq.Make (Hwts_reclaim.Ebr_backend) (LC) in
  let t = Ce.create () in
  List.iter (fun k -> ignore (Ce.insert t k)) [ 10; 20; 30 ];
  let s = Ce.snapshot t in
  let label = Ce.snap_label s in
  Ce.snap_release t s;
  ignore (Ce.delete t 20);
  let held = Ce.limbo t (Sync.Slot.my_slot ()) in
  let poison () =
    Option.value ~default:0
      (Hwts_obs.Registry.counter_value "reclaim.poison_hits")
  in
  let recovered () =
    let run = Sync.Key_run.make ~lo:0 ~hi:100 in
    Ce.recover held label ~lo:0 ~hi:100 run;
    Sync.Key_run.to_array run
  in
  let hits = poison () in
  Alcotest.(check (array int)) "counted while live" [| 20 |] (recovered ());
  Alcotest.(check int) "no poison while live" hits (poison ());
  let deadline = Unix.gettimeofday () +. 2. in
  while Ce.reclaimed t = 0 && Unix.gettimeofday () < deadline do
    for i = 1 to 256 do
      ignore (Ce.insert t (1_000 + i));
      ignore (Ce.delete t (1_000 + i))
    done
  done;
  Alcotest.(check bool) "freed by the churn" true (Ce.reclaimed t > 0);
  Alcotest.(check (array int)) "counted once freed" [| 20 |] (recovered ());
  Alcotest.(check int) "one poison hit" (hits + 1) (poison ())

let citrus_limbo_cases =
  List.concat_map
    (fun (reclaim : Workload.Targets.reclaim) ->
      let module LC = Hwts.Timestamp.Logical () in
      let module R = (val Workload.Targets.backend_of reclaim) in
      let module S = Rangequery.Citrus_ebrrq.Make (R) (LC) in
      let name = Workload.Targets.reclaim_name reclaim in
      [
        Alcotest.test_case
          ("citrus-ebrrq relocation parked before its grace wait/" ^ name)
          `Quick
          (citrus_parked_relocation (module S));
        Alcotest.test_case
          ("citrus-ebrrq scan beside a relocation/" ^ name)
          `Quick
          (citrus_scan_beside_delete (module S) 50);
        Alcotest.test_case
          ("citrus-ebrrq scan beside a splice/" ^ name)
          `Quick
          (citrus_scan_beside_delete (module S) 30);
      ])
    [ `Ebr; `Qsbr; `Qsbr_tsc ]
  @ [
      Alcotest.test_case "citrus-ebrrq freed cell counted is poison" `Quick
        citrus_freed_cell_poisons;
    ]

let () =
  Alcotest.run "rq-units"
    [
      ( "vcas-obj",
        [
          Alcotest.test_case "basics" `Quick vcas_basics;
          Alcotest.test_case "read_at" `Quick vcas_read_at;
          Alcotest.test_case "helping labels" `Quick vcas_helping_labels_pending;
          Alcotest.test_case "single winner" `Slow vcas_concurrent_single_winner;
          Alcotest.test_case "helpers agree on a pending label" `Quick
            vcas_helpers_agree_on_pending_label;
          Alcotest.test_case "prune" `Quick vcas_prune;
          Alcotest.test_case "self-loop chain (head in field)" `Quick
            (self_loop_chain CM.vcas);
          Alcotest.test_case "read_at races prune (head in field)" `Quick
            (read_at_races_prune CR.vcas);
          Alcotest.test_case "chains bounded" `Quick vcas_chains_stay_bounded;
          Alcotest.test_case "chains bounded by staleness" `Quick
            vcas_chains_bounded_by_staleness;
          Alcotest.test_case "snapshot time travel" `Quick snapshot_time_travel;
          Alcotest.test_case "snapshot vs pruning" `Quick
            snapshot_survives_pruning_churn;
          Alcotest.test_case "held snapshot keeps history" `Quick
            held_snapshot_keeps_history;
          Alcotest.test_case "plain-edge round trip (logical)" `Quick
            (bare_edge_round_trip (module Hwts.Timestamp.Logical ()));
          Alcotest.test_case "plain-edge round trip (rdtscp-strict)" `Quick
            (bare_edge_round_trip
               (module Hwts.Timestamp.Strict_sharded
                         (Hwts.Timestamp.Hardware)
                         ()));
          Alcotest.test_case "snapshot stable under churn" `Slow
            snapshot_stable_under_concurrency;
          vcas_qcheck_read_at;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "basics" `Quick bundle_basics;
          Alcotest.test_case "exists_at" `Quick bundle_exists_at;
          Alcotest.test_case "pending spin resolves" `Quick
            bundle_pending_spin_resolves;
          Alcotest.test_case "prune" `Quick bundle_prune;
          Alcotest.test_case "multi-label atomicity" `Quick
            bundle_multi_label_atomicity;
          Alcotest.test_case "self-loop chain" `Quick
            (self_loop_chain CM.bundle);
          Alcotest.test_case "read_at races prune" `Quick
            (read_at_races_prune CR.bundle);
        ] );
      ( "registry",
        [
          Alcotest.test_case "basics" `Quick registry_basics;
          Alcotest.test_case "across domains" `Quick registry_across_domains;
          Alcotest.test_case "zero-active early exit" `Quick
            registry_zero_active_early_exit;
          Alcotest.test_case "pin multiset" `Quick registry_pin_multiset;
          Alcotest.test_case "snapshot pinned across nested RQs + pruning"
            `Slow snapshot_pinned_across_nested_rqs_and_pruning;
        ] );
      ("bundled links", bundled_link_cases);
      ("vcas links", helped_link_cases);
      ("relocation", relocation_cases);
      ("field-cas", field_cas_cases);
      ("state words", state_word_cases);
      ( "limbo",
        [
          Alcotest.test_case "citrus-ebrrq relocated key under a snapshot"
            `Quick citrus_limbo_keeps_relocated;
        ]
        @ citrus_limbo_cases );
      ( "reserved keys",
        [ Alcotest.test_case "sentinels absent" `Quick sentinels_absent ] );
      ( "observability",
        [ Alcotest.test_case "obs is inert" `Quick obs_inert ] );
      ("layout", layout_cases);
      ("towers", towers_cases);
      ("value-equal leaves", value_equal_cases);
      ("large collect", large_collect_cases);
      ("collect paths", collect_path_cases);
    ]
