module Core (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  type node = {
    key : int;
    left : node option Atomic.t;
    right : node option Atomic.t;
    lock : Sync.Spinlock.t;
    mutable marked : bool;
    itime : int Atomic.t; (* set before the node is linked *)
    dtime : int Atomic.t; (* 0 = alive *)
    mutable poisoned : bool; (* set by the reclaimer when freed *)
  }

  module Reclaim = R.Make (struct
    type t = node
  end)

  (* One backend instance serves both roles: read sections protect
     unlocked traversals (and the two-children delete's grace wait), op
     sections pin limbo for RQ recovery. *)
  type t = {
    root : node;
    ebr : Reclaim.t;
    ts_lock : Sync.Rwlock.t; (* the EBR-RQ timestamp lock *)
  }

  let name = "ebrrq-citrus(" ^ T.name ^ ")"

  let make_node key l r =
    {
      key;
      left = Atomic.make l;
      right = Atomic.make r;
      lock = Sync.Spinlock.make ();
      marked = false;
      itime = Atomic.make 0;
      dtime = Atomic.make 0;
      poisoned = false;
    }

  let create () =
    let root = make_node Dstruct.Ordered_set.min_key None None in
    Atomic.set root.itime 1;
    {
      root;
      ebr = Reclaim.create ~on_free:(fun n -> n.poisoned <- true) ();
      ts_lock = Sync.Rwlock.make ();
    }

  type dir = L | R

  let child n = function L -> n.left | R -> n.right
  let dir_of n key = if key < n.key then L else R

  let find root key =
    let rec walk prev d curr =
      match curr with
      | None -> (prev, d, None)
      | Some n ->
        if n.key = key then (prev, d, Some n)
        else
          let d' = dir_of n key in
          walk n d' (Atomic.get (child n d'))
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk root R (Atomic.get root.right) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let traverse t key = Reclaim.with_read t.ebr (fun () -> find t.root key)

  let contains t key =
    Reclaim.with_op t.ebr (fun () ->
        let _, _, found = traverse t key in
        found <> None)

  let child_is n d c =
    match Atomic.get (child n d) with Some x -> x == c | None -> false

  (* Fresh re-walk under [prev.lock]: a successor relocation re-keys a
     position, so a slot from an earlier unlocked traversal can be
     unmarked and empty yet off [key]'s current search path (the final
     [succ_prev.left := succ_right] restores the observed [None]); an
     attach there would be shadowed and the key lost.  See the matching
     comment in citrus_bundle.ml for the full argument. *)
  let confirm t prev d key =
    match find t.root key with
    | p', d', None -> p' == prev && d' = d
    | _, _, Some _ -> false

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    Reclaim.with_op t.ebr (fun () -> insert_locked t key)

  and insert_locked t key =
    let prev, d, found = traverse t key in
    match found with
    | Some _ -> false
    | None ->
      Sync.Spinlock.lock prev.lock;
      let valid =
        (not prev.marked)
        && Atomic.get (child prev d) = None
        && confirm t prev d key
      in
      if valid then begin
        let node = make_node key None None in
        (* Atomic read-and-label: shared mode on the timestamp lock. *)
        Sync.Rwlock.with_read t.ts_lock (fun () ->
            Atomic.set node.itime (T.read ());
            Atomic.set (child prev d) (Some node));
        Sync.Spinlock.unlock prev.lock;
        true
      end
      else begin
        Sync.Spinlock.unlock prev.lock;
        insert_locked t key
      end

  let leftmost parent0 start =
    let rec walk sprev s =
      match Atomic.get s.left with None -> (sprev, s) | Some nl -> walk s nl
    in
    walk parent0 start

  let rec delete t key = Reclaim.with_op t.ebr (fun () -> delete_locked t key)

  and delete_locked t key =
    let prev, d, found = traverse t key in
    match found with
    | None -> false
    | Some curr ->
      Sync.Spinlock.lock prev.lock;
      Sync.Spinlock.lock curr.lock;
      let valid = (not prev.marked) && (not curr.marked) && child_is prev d curr in
      if not valid then begin
        Sync.Spinlock.unlock curr.lock;
        Sync.Spinlock.unlock prev.lock;
        delete_locked t key
      end
      else begin
        let l = Atomic.get curr.left and r = Atomic.get curr.right in
        match (l, r) with
        | None, None -> splice_out t prev d curr None
        | (Some _ as only), None | None, (Some _ as only) ->
          splice_out t prev d curr only
        | Some _, Some right_child ->
          delete_two_children t key prev d curr right_child l r
      end

  (* Retire before unlinking, inside the labeled section.  A scan that
     walks the tree after the unlink folds limbo after it too, so it finds
     the node there; retiring after the unlink would leave a window in
     which the node is in neither, and a scan whose label predates the
     delete would lose the key.  Early retirement cannot free a node a reader
     still covers: under EBR this domain's open op section holds the
     epoch back until after the unlink, and under QSBR a domain that
     quiesces after the retirement takes its next label after this
     section — at or above [dtime] — so the node no longer covers it. *)
  and splice_out t prev d curr repl =
    Sync.Rwlock.with_read t.ts_lock (fun () ->
        Reclaim.retire t.ebr curr;
        Atomic.set curr.dtime (T.read ());
        Atomic.set (child prev d) repl);
    curr.marked <- true;
    Sync.Spinlock.unlock curr.lock;
    Sync.Spinlock.unlock prev.lock;
    true

  and delete_two_children t key prev d curr right_child l r =
    let succ_prev, succ = leftmost curr right_child in
    if succ_prev != curr then Sync.Spinlock.lock succ_prev.lock;
    Sync.Spinlock.lock succ.lock;
    let valid =
      (not succ.marked)
      && (not succ_prev.marked)
      && Atomic.get succ.left = None
      &&
      if succ_prev == curr then succ == right_child else child_is succ_prev L succ
    in
    if not valid then begin
      Sync.Spinlock.unlock succ.lock;
      if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
      Sync.Spinlock.unlock curr.lock;
      Sync.Spinlock.unlock prev.lock;
      delete_locked t key
    end
    else begin
      let succ_right = Atomic.get succ.right in
      let direct = succ_prev == curr in
      let replacement =
        make_node succ.key l (if direct then succ_right else r)
      in
      (* One shared-mode section labels the delete of [curr], the
         relocation of [succ] and the birth of its replacement with one
         timestamp, so snapshots see the whole step or none of it.  Both
         are retired first, as in [splice_out]. *)
      Sync.Rwlock.with_read t.ts_lock (fun () ->
          Reclaim.retire t.ebr curr;
          Reclaim.retire t.ebr succ;
          let now = T.read () in
          Atomic.set replacement.itime now;
          Atomic.set curr.dtime now;
          Atomic.set succ.dtime now;
          Atomic.set (child prev d) (Some replacement));
      curr.marked <- true;
      succ.marked <- true;
      if not direct then begin
        Reclaim.wait_until_quiescent t.ebr;
        Atomic.set succ_prev.left succ_right
      end;
      Sync.Spinlock.unlock succ.lock;
      if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
      Sync.Spinlock.unlock curr.lock;
      Sync.Spinlock.unlock prev.lock;
      true
    end

  (* A key is in the snapshot iff some node holding it was inserted at or
     before [ts] and not deleted at or before [ts]. *)
  let covers ts n =
    let it = Atomic.get n.itime and dt = Atomic.get n.dtime in
    it > 0 && it <= ts && (dt = 0 || dt > ts)

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  let collect_ts t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let visit n =
      if n.key >= lo && n.key <= hi && covers ts n then begin
        if n.poisoned then
          Hwts_reclaim.Debug.poison_hit "citrus node covered after free";
        Sync.Scratch.Int_buffer.push buf n.key
      end
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    Reclaim.with_read t.ebr (fun () ->
        let rec walk = function
          | None -> ()
          | Some n ->
            if lo < n.key then walk (Atomic.get n.left);
            if n.key > Dstruct.Ordered_set.min_key then visit n;
            if hi > n.key then walk (Atomic.get n.right)
        in
        walk (Atomic.get t.root.right));
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    (* Recently deleted nodes may already be unlinked: recover them
       from the limbo lists, as EBR-RQ does. *)
    Reclaim.fold_limbo t.ebr ~init:() ~f:(fun () n -> visit n);
    List.sort_uniq compare (Sync.Scratch.Int_buffer.to_list buf)

  (* Snapshot handle: a non-scoped op section pins the limbo lists for
     the handle's whole lifetime (the EBR-RQ form of history retention),
     and the label is taken under the exclusive timestamp lock, so it
     cannot interleave with any update's read-and-label section.  Acquire
     and release from the same domain, and release promptly: an open
     handle delays every grace period. *)
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

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: descend the current tree by key — on
     an equal key that does not cover [ts] keep descending right, where a
     relocation may have left the original node still linked — then scan
     limbo for just-unlinked nodes, as [collect_ts] does. *)
  let lookup_at t sn key =
    let ts = snap_label sn in
    let in_tree =
      Reclaim.with_read t.ebr (fun () ->
          let rec walk = function
            | None -> false
            | Some n ->
              (n.key = key && covers ts n)
              || walk (Atomic.get (child n (dir_of n key)))
          in
          walk (Atomic.get t.root.right))
    in
    in_tree
    || Reclaim.fold_limbo t.ebr ~init:false ~f:(fun acc n ->
           acc
           ||
           if n.key = key && covers ts n then begin
             if n.poisoned then
               Hwts_reclaim.Debug.poison_hit "citrus node covered after free";
             true
           end
           else false)

  let to_list t =
    let rec walk acc = function
      | None -> acc
      | Some n ->
        let acc = walk acc (Atomic.get n.right) in
        walk (n.key :: acc) (Atomic.get n.left)
    in
    walk [] (Atomic.get t.root.right)

  let size t = List.length (to_list t)
  let limbo_size t = Reclaim.limbo_size t.ebr
  let reclaimed t = Reclaim.reclaimed t.ebr
  let quiesce t = Reclaim.quiesce t.ebr
  let offline t = Reclaim.offline t.ebr
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
