module type LOGICAL = sig
  include Hwts.Timestamp.S

  val raw : int Atomic.t
end

module Core (R : Hwts_reclaim.Intf.BACKEND) (T : LOGICAL) = struct
  type node = Leaf of leaf | Internal of inode

  and leaf = {
    lkey : int;
    itime : int Sync.Rdcss.loc; (* 0 = not yet labeled *)
    dtime : int Sync.Rdcss.loc; (* 0 = alive *)
    mutable poisoned : bool; (* set by the reclaimer when freed *)
  }

  and inode = { ikey : int; left : edge Atomic.t; right : edge Atomic.t }
  and edge = { target : node; flagged : bool; tagged : bool }

  type dir = L | R

  let inf0 = max_int - 2
  let inf1 = max_int - 1
  let inf2 = max_int

  module Reclaim = R.Make (struct
    type t = leaf
  end)

  type t = { r : inode; s : inode; ebr : Reclaim.t }

  let name = "ebrrq-lf-bst(" ^ T.name ^ ")"
  let clean target = { target; flagged = false; tagged = false }

  let make_leaf ?(itime = 0) key =
    Leaf
      {
        lkey = key;
        itime = Sync.Rdcss.make itime;
        dtime = Sync.Rdcss.make 0;
        poisoned = false;
      }

  let create () =
    let s =
      {
        ikey = inf1;
        left = Atomic.make (clean (make_leaf ~itime:1 inf0));
        right = Atomic.make (clean (make_leaf ~itime:1 inf1));
      }
    in
    let r =
      {
        ikey = inf2;
        left = Atomic.make (clean (Internal s));
        right = Atomic.make (clean (make_leaf ~itime:1 inf2));
      }
    in
    { r; s; ebr = Reclaim.create ~on_free:(fun l -> l.poisoned <- true) () }

  let child n = function L -> n.left | R -> n.right
  let other = function L -> R | R -> L
  let dir_of n key = if key < n.ikey then L else R

  (* Label a time field via DCSS against the timestamp's address: the write
     lands only in the instant during which the timestamp still holds the
     value we read — EBR-RQ's atomic read-and-label, without locks.
     Any thread may help. *)
  let rec label field =
    let snap = Sync.Rdcss.read field in
    if Sync.Rdcss.value snap = 0 then begin
      let v = Atomic.get T.raw in
      match
        Sync.Rdcss.dcss ~control:T.raw ~expected_control:v ~loc:field
          ~expected:snap v
      with
      | Sync.Rdcss.Success -> ()
      | Sync.Rdcss.Control_changed | Sync.Rdcss.Loc_changed -> label field
    end

  let itime_of leaf =
    label leaf.itime;
    Sync.Rdcss.get leaf.itime

  type seek_record = {
    ancestor : inode;
    anc_dir : dir;
    successor : node;
    parent : inode;
    par_dir : dir;
    par_edge : edge;
    leaf_key : int;
    leaf : node;
  }

  let seek t key =
    let rec descend ancestor anc_dir successor parent par_dir par_edge =
      match par_edge.target with
      | Leaf l ->
        {
          ancestor;
          anc_dir;
          successor;
          parent;
          par_dir;
          par_edge;
          leaf_key = l.lkey;
          leaf = par_edge.target;
        }
      | Internal n ->
        let ancestor, anc_dir, successor =
          if par_edge.tagged then (ancestor, anc_dir, successor)
          else (parent, par_dir, par_edge.target)
        in
        let d = dir_of n key in
        descend ancestor anc_dir successor n d (Atomic.get (child n d))
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = descend t.r L (Internal t.s) t.s L (Atomic.get t.s.left) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let cleanup r =
    let key_cell = child r.parent r.par_dir in
    let sibling_cell = child r.parent (other r.par_dir) in
    let key_edge = Atomic.get key_cell in
    (* Helping a delete's splice must first help its labels: once the leaf
       is unreachable a snapshot can no longer find it, so an unlabeled
       dtime (the winning deleter may be stalled between its flag and its
       label) would make a leaf that is alive at the snapshot's timestamp
       silently invisible. *)
    (match key_edge.target with
    | Leaf l when key_edge.flagged ->
      label l.itime;
      label l.dtime
    | _ -> ());
    let promote_cell = if key_edge.flagged then sibling_cell else key_cell in
    let rec tag () =
      let e = Atomic.get promote_cell in
      if e.tagged then e
      else
        let tagged = { e with tagged = true } in
        if Atomic.compare_and_set promote_cell e tagged then tagged else tag ()
    in
    let promoted = tag () in
    let anc_cell = child r.ancestor r.anc_dir in
    let anc_edge = Atomic.get anc_cell in
    anc_edge.target == r.successor
    && (not anc_edge.tagged)
    && Atomic.compare_and_set anc_cell anc_edge
         { target = promoted.target; flagged = promoted.flagged; tagged = false }

  (* [op t f key]: [f t key] in an op section opened with a bare
     [enter]/[exit], closed on a raise too; no closure is allocated. *)
  let op t f key =
    Reclaim.enter t.ebr;
    match f t key with
    | v ->
      Reclaim.exit t.ebr;
      v
    | exception e ->
      Reclaim.exit t.ebr;
      raise e

  let rec insert_loop t key =
    assert (key < inf0);
    let r = seek t key in
    if r.leaf_key = key then begin
      (* Returning on an observation means the observation must be
         labeled first: the leaf's inserter may be stalled between its
         link CAS and its label, and completing "already present" before
         the label lands lets a later snapshot place this insert after
         us. *)
      (match r.leaf with Leaf l -> label l.itime | Internal _ -> ());
      false
    end
    else if r.par_edge.flagged || r.par_edge.tagged then begin
      ignore (cleanup r);
      insert_loop t key
    end
    else begin
      let new_leaf = make_leaf key in
      let small, big =
        if key < r.leaf_key then (new_leaf, r.leaf) else (r.leaf, new_leaf)
      in
      let internal =
        Internal
          {
            ikey = max key r.leaf_key;
            left = Atomic.make (clean small);
            right = Atomic.make (clean big);
          }
      in
      let cell = child r.parent r.par_dir in
      if Atomic.compare_and_set cell r.par_edge (clean internal) then begin
        (match new_leaf with Leaf l -> label l.itime | Internal _ -> ());
        true
      end
      else begin
        let e = Atomic.get cell in
        if e.target == r.leaf && (e.flagged || e.tagged) then ignore (cleanup r);
        insert_loop t key
      end
    end

  let insert t key = op t insert_loop key

  let rec delete_loop t key =
    let r = seek t key in
    if r.leaf_key <> key then false
    else if r.par_edge.flagged || r.par_edge.tagged then begin
      ignore (cleanup r);
      delete_loop t key
    end
    else begin
      let cell = child r.parent r.par_dir in
      if Atomic.compare_and_set cell r.par_edge { r.par_edge with flagged = true }
      then begin
        (match r.leaf with
        | Leaf l ->
          (* The winning deleter labels the deletion time, then splices;
             the insert label is helped first so itime <= dtime even when
             the original inserter is stalled before its own label. *)
          label l.itime;
          label l.dtime;
          (* Known gap, unlike citrus_ebrrq's locked deletes: any helper
             can splice the leaf out right after the flag CAS, before
             this deleter reaches [retire], so a scan can find the leaf
             in neither the tree nor limbo.  Retiring earlier cannot
             close it — the splice is not this domain's step.  Closing it
             takes EBR-RQ's announcement of to-be-deleted nodes. *)
          let done_ = if cleanup r then true else finish t key r.leaf in
          Reclaim.retire t.ebr l;
          done_
        | Internal _ -> assert false)
      end
      else begin
        let e = Atomic.get cell in
        if e.target == r.leaf && (e.flagged || e.tagged) then ignore (cleanup r);
        delete_loop t key
      end
    end

  and finish t key leaf =
    let r = seek t key in
    if r.leaf != leaf then true
    else if cleanup r then true
    else finish t key leaf

  let delete t key = op t delete_loop key

  (* The leaf [key] routes to from internal node [n]: a module-level
     recursion, not a closure over [key], so a point read allocates
     nothing. *)
  let rec leaf_below key n =
    match (Atomic.get (child n (dir_of n key))).target with
    | Leaf l -> l
    | Internal m -> leaf_below key m

  let contains t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let l = leaf_below key t.s in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    if l.lkey = key then begin
      (* Same helping rule as insert's already-present path: label the
         observed leaf before reporting it present. *)
      label l.itime;
      true
    end
    else false

  let covers ts leaf =
    let it = itime_of leaf in
    let dt = Sync.Rdcss.get leaf.dtime in
    it <= ts && (dt = 0 || dt > ts)

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  let visit buf ts lo hi l =
    if l.lkey >= lo && l.lkey <= hi && l.lkey < inf0 && covers ts l then begin
      (* A freed leaf still covered by a live snapshot is the
         observable shape of a reclamation use-after-free. *)
      if l.poisoned then
        Hwts_reclaim.Debug.poison_hit "bst-ebrrq leaf covered after free";
      Sync.Scratch.Int_buffer.push buf l.lkey
    end

  let rec collect_into buf ts lo hi = function
    | Leaf l -> visit buf ts lo hi l
    | Internal n ->
      if lo < n.ikey then collect_into buf ts lo hi (Atomic.get n.left).target;
      if hi >= n.ikey then collect_into buf ts lo hi (Atomic.get n.right).target

  let rec collect_cells buf ts lo hi = function
    | Hwts_reclaim.Limbo.Nil -> ()
    | Hwts_reclaim.Limbo.Cons c ->
      visit buf ts lo hi c.node;
      collect_cells buf ts lo hi c.next

  let collect_ts t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    (* [r]'s left edge always holds [s] *)
    collect_into buf ts lo hi (Atomic.get t.r.left).target;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    for slot = 0 to Sync.Slot.max_slots - 1 do
      collect_cells buf ts lo hi (Reclaim.limbo_cells t.ebr slot)
    done;
    Sync.Scratch.Int_buffer.to_sorted_array buf

  (* Snapshot handle: a non-scoped op section pins the limbo lists for
     the handle's lifetime, and the label is one [T.snapshot] advance.
     Same-domain
     acquire/release; release promptly (an open handle holds the EBR
     epoch back). *)
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

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: directed descent to the external leaf
     for [key] (keys never relocate in this tree), then the limbo lists
     for a just-unlinked leaf still covered at [ts]. *)
  let hit key ts l =
    l.lkey = key && covers ts l
    &&
    (if l.poisoned then
       Hwts_reclaim.Debug.poison_hit "bst-ebrrq leaf covered after free";
     true)

  let rec hit_in_cells key ts = function
    | Hwts_reclaim.Limbo.Nil -> false
    | Hwts_reclaim.Limbo.Cons c -> hit key ts c.node || hit_in_cells key ts c.next

  let rec hit_in_limbo t key ts slot =
    slot < Sync.Slot.max_slots
    && (hit_in_cells key ts (Reclaim.limbo_cells t.ebr slot)
       || hit_in_limbo t key ts (slot + 1))

  let lookup_at t sn key =
    let ts = snap_label sn in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let l = leaf_below key t.s in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    hit key ts l || hit_in_limbo t key ts 0

  let to_list t =
    let rec walk acc node =
      match node with
      | Leaf l -> if l.lkey < inf0 then l.lkey :: acc else acc
      | Internal n ->
        let acc = walk acc (Atomic.get n.right).target in
        walk acc (Atomic.get n.left).target
    in
    walk [] (Internal t.s)

  let size t = List.length (to_list t)
  let limbo_size t = Reclaim.limbo_size t.ebr
  let quiesce t = Reclaim.quiesce t.ebr
  let offline t = Reclaim.offline t.ebr
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : LOGICAL) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
