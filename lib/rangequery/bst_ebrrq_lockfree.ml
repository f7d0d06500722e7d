module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  (* Labels on the leaves: [itime] is a leaf's insertion time and [dtime]
     its deletion time, both 0 until labeled.  They are labeled by
     helping, as vCAS labels a version: whoever meets a 0 it must judge
     CASes in [T.read ()], and the first CAS wins.  A leaf's [itime] is
     labeled once it is linked, its [dtime] once it is flagged, and
     [itime] always first, so [itime <= dtime].  The reclaimer negates
     [dtime] as it frees the leaf: the poison [visible] checks for. *)
  module Labels = struct
    open Bst_core

    (* One backend instance: op sections pin limbo for the snapshots
       that recover from it, and deleters retire into it. *)
    module Reclaim = R.Make (struct
      type t = unit node
    end)

    (* [itime] is field 0 of a [Timed] leaf, read and CASed with the
       externals of a version's label; [dtime] is field 1, CASed through
       the tree's field CAS and read like an edge. *)
    module Itime = Link.Cell (Node)

    external cas_dtime : 'v node -> int -> int -> int -> bool
      = "hwts_cas_field"
    [@@noalloc]

    (* [announced.(slot)]: the leaf the domain in [slot] is deleting,
       from before its flag CAS until after it retires the leaf, else
       [none], an immediate like the tree's sentinels, so every read of
       a slot tests {!is_leaf} before it matches. *)
    type t = { ebr : Reclaim.t; announced : unit node Atomic.t array }

    let none : unit node = leaf max_int

    (* A [Timed] leaf holds no value, so it is the same block at every
       ['v]: limbo and the announcements hold it at [unit]. *)
    let untyped (leaf : 'v node) : unit node = Obj.magic leaf

    let poison leaf =
      if not (is_leaf leaf) then
        match leaf with Timed l -> l.dtime <- -l.dtime | _ -> ()

    let create () =
      {
        ebr = Reclaim.create ~on_free:poison ();
        announced = Array.init Sync.Slot.max_slots (fun _ -> Atomic.make none);
      }

    (* Edges hold no versions: a write is the field CAS itself, and a
       flag is the delete's first step, not its linearization. *)
    let cas _ parent field expected node = cas_field parent field expected node
    let current node = node
    let value_at node _ = node
    let chain_of _ = 1

    let label_itime leaf =
      if Itime.label leaf = 0 then ignore (Itime.cas_label leaf 0 (T.read ()))

    (* [label_dtime] and [visible] are only given [Timed] leaves. *)
    let label_dtime leaf =
      match leaf with
      | Timed l -> if l.dtime = 0 then ignore (cas_dtime leaf 1 0 (T.read ()))
      | Entry _ | Internal _ | Mark _ | Version _ -> ()

    (* A leaf holds its key at [ts] iff it was inserted at or before [ts]
       and not deleted at or before [ts].  A reader never judges on a time
       that a helper could still fill with a clock value read before the
       reader's snapshot: it labels [itime] first (the leaf is linked), and
       [dtime] too when it met the leaf through a flagged edge.  A [dtime]
       still 0 after that belongs to a leaf flagged after the reader read
       its edge, hence after the snapshot: its label lands above [ts], and
       the leaf holds its key at [ts] either way. *)
    let visible ts leaf ~flagged =
      match leaf with
      | Timed l ->
        label_itime leaf;
        if flagged then label_dtime leaf;
        let d = l.dtime in
        let dtime = abs d in
        let covered = Itime.label leaf <= ts && (dtime = 0 || dtime > ts) in
        if covered && d < 0 then
          Hwts_reclaim.Debug.poison_hit "bst-ebrrq leaf covered after free";
        covered
      | Entry _ | Internal _ | Mark _ | Version _ -> true

    (* EBR-RQ's announcement: a deleter names its leaf before the flag
       CAS, and [unannounce] clears it after the retire.  A leaf that any
       update may splice out once it is flagged is thus always in the
       tree, announced, or in limbo. *)
    let flagging t leaf =
      Atomic.set t.announced.(Sync.Slot.my_slot ()) (untyped leaf)

    let unannounce t = Atomic.set t.announced.(Sync.Slot.my_slot ()) none
    let unlinked t leaf = Reclaim.retire t.ebr (untyped leaf)

    (* Snapshot handle: a non-scoped op section pins the limbo lists for
       the handle's lifetime, and the label is one [T.snapshot] advance,
       so every label a helper reads afterwards lands above it.  Acquire
       and release from the same domain, and release promptly: an open
       handle holds every grace period back. *)
    type snap = { s_label : int; mutable s_live : bool }

    let snapshot t =
      Reclaim.enter t.ebr;
      match T.snapshot () with
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

    (* After the walk, the announcements, then limbo: a deleter retires
       its leaf before it clears its announcement, so a leaf spliced out
       before the walk reached it is in one or the other.  Every leaf
       outside the tree has both times labeled ([cleanup]); an announced
       one still in the tree is judged as a walk through a clean edge
       judges it. *)
    let recover_leaf run ts lo hi leaf =
      if not (is_leaf leaf) then
        match leaf with
        | Timed l ->
          if l.key >= lo && l.key <= hi && visible ts leaf ~flagged:false then
            Sync.Key_run.push run l.key
        | Entry _ | Internal _ | Mark _ | Version _ -> ()

    let rec recover_cells run ts lo hi = function
      | Hwts_reclaim.Limbo.Nil -> ()
      | Hwts_reclaim.Limbo.(Cons { node; next; _ } | Labeled { node; next; _ })
        ->
        recover_leaf run ts lo hi node;
        recover_cells run ts lo hi next

    let recover t ts ~lo ~hi run =
      for slot = 0 to Sync.Slot.max_slots - 1 do
        recover_leaf run ts lo hi (Atomic.get t.announced.(slot))
      done;
      for slot = 0 to Sync.Slot.max_slots - 1 do
        recover_cells run ts lo hi (Reclaim.limbo_cells t.ebr slot)
      done

    let hit key ts leaf =
      (not (is_leaf leaf))
      &&
      match leaf with
      | Timed l -> l.key = key && visible ts leaf ~flagged:false
      | Entry _ | Internal _ | Mark _ | Version _ -> false

    let rec hit_in_cells key ts = function
      | Hwts_reclaim.Limbo.Nil -> false
      | Hwts_reclaim.Limbo.(Cons { node; next; _ } | Labeled { node; next; _ })
        ->
        hit key ts node || hit_in_cells key ts next

    let rec hit_announced t key ts slot =
      slot < Sync.Slot.max_slots
      && (hit key ts (Atomic.get t.announced.(slot))
         || hit_announced t key ts (slot + 1))

    let rec hit_in_limbo t key ts slot =
      slot < Sync.Slot.max_slots
      && (hit_in_cells key ts (Reclaim.limbo_cells t.ebr slot)
         || hit_in_limbo t key ts (slot + 1))

    let recovered t key ts = hit_announced t key ts 0 || hit_in_limbo t key ts 0
  end

  module K = Bst_core.Make (Labels)

  module C = struct
    type t = unit K.t

    let name = "ebrrq-lf-bst(" ^ T.name ^ ")"
    let create = K.create
    let timed key () = Bst_core.Timed { itime = 0; dtime = 0; key }
    let add t key = K.add t key () ~leaf:timed ~overwrite:false

    (* A delete's announcement lasts until it returns, past the retire
       when it flagged the leaf. *)
    let remove t key =
      let removed = K.remove t key in
      Labels.unannounce t.K.labels;
      removed

    (* Updates run in op sections, which pin limbo for the snapshots that
       recover from it.  [op t f key] opens one with a bare
       [enter]/[exit], closed on a raise too, and allocates no closure. *)
    let op t f key =
      let ebr = t.K.labels.Labels.ebr in
      Labels.Reclaim.enter ebr;
      match f t key with
      | v ->
        Labels.Reclaim.exit ebr;
        v
      | exception e ->
        Labels.Reclaim.exit ebr;
        raise e

    let insert t key = op t add key
    let delete t key = op t remove key
    let contains = K.mem
    let to_list = K.to_list
    let size = K.size

    type snap = K.snap

    let snapshot = K.snapshot
    let snap_label = K.snap_label
    let snap_release = K.snap_release
    let lookup_at = K.mem_at
    let collect_into = K.keys_at
    let quiesce t = Labels.Reclaim.quiesce t.K.labels.Labels.ebr
    let offline t = Labels.Reclaim.offline t.K.labels.Labels.ebr
  end

  include C
  include Dstruct.Ordered_set.Ranges (C)

  let limbo_size t = Labels.Reclaim.limbo_size t.K.labels.Labels.ebr
end
