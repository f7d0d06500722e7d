module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  (* Labels on the nodes: a [Timed] node keeps its insertion time
     [itime], written inside the labeled section that links it, before
     it is reachable.  Its deletion time is written nowhere in the node:
     the section that unlinks it retires it into a limbo cell labeled
     with that time, then marks it.  The reclaimer negates the cell's
     label as it frees the cell: the poison [covers] checks for. *)
  module Labels = struct
    open Citrus_core

    (* a [Timed] node has no label words *)
    type w = unit

    (* One backend instance serves both roles: read sections protect
       unlocked traversals (and the two-children delete's grace wait), op
       sections pin limbo for RQ recovery. *)
    module Reclaim = R.Make (struct
      type t = w node
    end)

    type t = {
      ts_lock : Sync.Rwlock.t; (* the EBR-RQ timestamp lock *)
      ebr : Reclaim.t;
    }

    type link = unit

    let name = "ebrrq-citrus(" ^ T.name ^ ")"
    let reads_heads = false
    let create _ ebr = { ts_lock = Sync.Rwlock.make (); ebr }

    let node key l r =
      Timed { key; left = l; right = r; state = 0; itime = 0 }

    let prepare _ _ _ = ()

    (* Atomic read-and-label: shared mode on the timestamp lock. *)
    let enter t =
      Sync.Rwlock.read_lock t.ts_lock;
      T.read ()

    let born node ts =
      match node with Timed n -> n.itime <- ts | Nil | Node _ | Version _ -> ()

    (* Retire with the deletion time [ts], before the core marks the
       node and before it is unlinked, inside the labeled section.  A
       scan skips a marked node and no longer reaches an unlinked one,
       and folds limbo after its walk, so it finds the node there;
       marking or unlinking first would leave a window in which a scan
       whose label predates the delete finds the node neither in the
       tree nor in limbo, and loses the key.  Early retirement cannot
       free a node a reader still covers: under EBR this domain's open op
       section holds the epoch back until after the unlink, and under QSBR
       a domain that quiesces after the retirement takes its next label
       after this section — at or above [ts] — so the cell no longer
       covers it. *)
    let dies t node ts =
      (* fault injection: the section holds its stamp, and the node is
         neither retired nor marked yet *)
      Sync.Pause.point ();
      Reclaim.retire_labeled t.ebr node ~label:ts

    let label () _ = ()
    let settle _ _ _ () = ()
    let leave t _ _ () = Sync.Rwlock.read_unlock t.ts_lock

    let itime = function Timed n -> n.itime | Nil | Node _ | Version _ -> max_int

    (* A key is in the snapshot iff some node holding it was inserted at
       or before [ts] and not deleted at or before [ts].  A snapshot takes
       [ts_lock] exclusively, so every labeled section that completed
       before it happens-before the scan, and a section that starts later
       stamps above [ts].

       A node the walk reaches is judged by its [itime] and its mark.
       An unmarked node is not dead at [ts]: a section that deletes it at
       or before [ts] completed before the snapshot, and marked it.  A
       marked one is skipped, and limbo judges it: [dies] retired it
       before it was marked, and the snapshot's op section keeps its cell
       from being freed.  So limbo alone decides a dead node, by
       [itime <= ts < dtime] with [dtime] read from its cell. *)
    let visible ts n =
      (* fault injection: the walk has reached [n] but not read its mark;
         deletes on its path label, mark and retire nodes meanwhile *)
      Sync.Pause.point ();
      itime n <= ts && not (marked n)

    let covers ts node label =
      let dtime = abs label in
      let covered = itime node <= ts && ts < dtime in
      if covered && label < 0 then
        Hwts_reclaim.Debug.poison_hit "citrus limbo cell covered after free";
      covered

    (* Snapshot handle: a non-scoped op section pins the limbo lists for
       the handle's whole lifetime (the EBR-RQ form of history retention),
       and the label is taken under the exclusive timestamp lock, so it
       cannot interleave with any update's read-and-label section.
       Acquire and release from the same domain, and release promptly: an
       open handle delays every grace period. *)
    type snap = { s_label : int; mutable s_live : bool }

    let snapshot t =
      Reclaim.enter t.ebr;
      match Sync.Rwlock.with_write t.ts_lock (fun () -> T.snapshot ()) with
      | label -> { s_label = label; s_live = true }
      | exception e ->
        Reclaim.exit t.ebr;
        raise e

    let snap_label s = s.s_label

    let snap_release t s =
      if s.s_live then begin
        s.s_live <- false;
        Reclaim.exit t.ebr
      end

    (* A snapshot walks the current tree and keeps what [visible] accepts;
       recently deleted nodes may already be unlinked, so it then recovers
       them from the limbo lists, as EBR-RQ does. *)
    let snap_child n d _ = child n d
    let read_enter t = Reclaim.read_lock t.ebr
    let read_exit t = Reclaim.read_unlock t.ebr

    (* Every cell of this tree's limbo is [Labeled]. *)
    let rec collect_cells run ts lo hi = function
      | Hwts_reclaim.Limbo.Nil -> ()
      | Hwts_reclaim.Limbo.Labeled c ->
        let k = key_of c.node in
        if k >= lo && k <= hi && covers ts c.node c.label then
          Sync.Key_run.push run k;
        collect_cells run ts lo hi c.next
      | Hwts_reclaim.Limbo.Cons c -> collect_cells run ts lo hi c.next

    let collect_limbo t ts ~lo ~hi run =
      for slot = 0 to Sync.Slot.max_slots - 1 do
        collect_cells run ts lo hi (Reclaim.limbo_cells t.ebr slot)
      done
  end

  module C = struct
    include Citrus_core.Make (Labels)

    (* Every operation runs in an op section, which pins limbo for the
       range queries that recover from it.  [op t f key] opens it with a
       bare [enter]/[exit], closed on a raise too, and allocates no
       closure. *)
    let op t f key =
      Reclaim.enter t.grace;
      match f t key with
      | v ->
        Reclaim.exit t.grace;
        v
      | exception e ->
        Reclaim.exit t.grace;
        raise e

    let contains t key = op t contains key
    let insert t key = op t insert key
    let delete t key = op t delete key
  end

  include C
  include Dstruct.Ordered_set.Ranges (C)

  let limbo_size t = Reclaim.limbo_size t.grace
  let reclaimed t = Reclaim.reclaimed t.grace

  type limbo = Labels.w Citrus_core.node Hwts_reclaim.Limbo.cell

  let limbo t slot = Reclaim.limbo_cells t.grace slot
  let recover cells ts ~lo ~hi run = Labels.collect_cells run ts lo hi cells
end
