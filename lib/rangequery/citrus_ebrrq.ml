module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  (* Labels on the nodes: [w0] is a node's insertion time and [w1] its
     deletion time (0 while alive).  Each is written inside the labeled
     section that links or unlinks the node, [w0] before the node is
     reachable.  The reclaimer negates [w1] as it frees the node: the
     poison [covers] checks for. *)
  module Labels = struct
    open Citrus_core

    type w = int

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
    let on_free =
      Some (function Node n -> n.w1 <- -n.w1 | Nil | Version _ -> ())
    let create _ ebr = { ts_lock = Sync.Rwlock.make (); ebr }
    let fresh _ = 0
    let prepare _ _ _ = ()

    (* Atomic read-and-label: shared mode on the timestamp lock. *)
    let enter t =
      Sync.Rwlock.read_lock t.ts_lock;
      T.read ()

    let born node ts =
      match node with Node n -> n.w0 <- ts | Nil | Version _ -> ()

    (* Retire before unlinking, inside the labeled section.  A scan that
       walks the tree after the unlink folds limbo after it too, so it
       finds the node there; retiring after the unlink would leave a
       window in which the node is in neither, and a scan whose label
       predates the delete would lose the key.  Early retirement cannot
       free a node a reader still covers: under EBR this domain's open op
       section holds the epoch back until after the unlink, and under QSBR
       a domain that quiesces after the retirement takes its next label
       after this section — at or above [dtime] — so the node no longer
       covers it. *)
    let dies t node ts =
      match node with
      | Node n ->
        n.w1 <- ts;
        Reclaim.retire t.ebr node
      | Nil | Version _ -> ()

    let label () _ = ()
    let settle _ _ _ () = ()
    let leave t _ _ () = Sync.Rwlock.read_unlock t.ts_lock

    (* A key is in the snapshot iff some node holding it was inserted at
       or before [ts] and not deleted at or before [ts].  [dtime] is read
       without a fence: a snapshot takes [ts_lock] exclusively, so every
       labeled section that completed before it happens-before the scan,
       and a section that starts later writes a [dtime] above [ts] — read
       as 0 or as that value, the node covers [ts] either way. *)
    let covers ts = function
      | Node n ->
        let w1 = n.w1 in
        let dtime = abs w1 in
        let covered = n.w0 <= ts && (dtime = 0 || dtime > ts) in
        if covered && w1 < 0 then
          Hwts_reclaim.Debug.poison_hit "citrus node covered after free";
        covered
      | Nil | Version _ -> false

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

    (* A snapshot walks the current tree and keeps what [covers] accepts;
       recently deleted nodes may already be unlinked, so it then recovers
       them from the limbo lists, as EBR-RQ does. *)
    let snap_child n d _ = child n d
    let visible = covers
    let read_enter t = Reclaim.read_lock t.ebr
    let read_exit t = Reclaim.read_unlock t.ebr

    let rec collect_cells run ts lo hi = function
      | Hwts_reclaim.Limbo.Nil -> ()
      | Hwts_reclaim.Limbo.Cons c ->
        let k = key_of c.node in
        if k >= lo && k <= hi && covers ts c.node then Sync.Key_run.push run k;
        collect_cells run ts lo hi c.next

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
end
