module Core (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  type node = Leaf of int | Internal of inode
  and inode = { ikey : int; left : edge V.t; right : edge V.t }
  and edge = { target : node; flagged : bool; tagged : bool }

  type dir = L | R

  let inf0 = max_int - 2
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = { r : inode; s : inode; registry : Rq_registry.t }

  let name = "vcas-bst(" ^ T.name ^ ")"
  let clean target = { target; flagged = false; tagged = false }

  (* Bound version chains: after labeling our own write at [label], cut
     history that no open snapshot can need (announce-then-read makes
     this safe).  The registry floor is the cached one: refreshed lazily,
     guaranteed never to lead the true minimum. *)
  let prune_with t cell label =
    V.prune cell (Rq_registry.min_active_cached t.registry ~default:label)

  let create () =
    let s =
      {
        ikey = inf1;
        left = V.make (clean (Leaf inf0));
        right = V.make (clean (Leaf inf1));
      }
    in
    let r =
      {
        ikey = inf2;
        left = V.make (clean (Internal s));
        right = V.make (clean (Leaf inf2));
      }
    in
    { r; s; registry = Rq_registry.create () }

  let child n = function L -> n.left | R -> n.right
  let other = function L -> R | R -> L
  let dir_of n key = if key < n.ikey then L else R

  type seek_record = {
    ancestor : inode;
    anc_dir : dir;
    successor : node;
    parent : inode;
    par_dir : dir;
    par_ver : edge V.version;
    leaf_key : int;
    leaf : node;
  }

  let seek t key =
    let rec descend ancestor anc_dir successor parent par_dir par_ver =
      let par_edge = V.value par_ver in
      match par_edge.target with
      | Leaf k ->
        {
          ancestor;
          anc_dir;
          successor;
          parent;
          par_dir;
          par_ver;
          leaf_key = k;
          leaf = par_edge.target;
        }
      | Internal n ->
        let ancestor, anc_dir, successor =
          if par_edge.tagged then (ancestor, anc_dir, successor)
          else (parent, par_dir, par_edge.target)
        in
        let d = dir_of n key in
        descend ancestor anc_dir successor n d (V.head (child n d))
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = descend t.r L (Internal t.s) t.s L (V.head t.s.left) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let cleanup r =
    let key_cell = child r.parent r.par_dir in
    let sibling_cell = child r.parent (other r.par_dir) in
    let key_edge = V.read key_cell in
    let promote_cell = if key_edge.flagged then sibling_cell else key_cell in
    let rec tag () =
      let ver = V.head promote_cell in
      let e = V.value ver in
      if e.tagged then e
      else
        let tagged = { e with tagged = true } in
        if V.cas promote_cell ver tagged then tagged else tag ()
    in
    let promoted = tag () in
    let anc_cell = child r.ancestor r.anc_dir in
    let anc_ver = V.head anc_cell in
    let anc_edge = V.value anc_ver in
    anc_edge.target == r.successor
    && (not anc_edge.tagged)
    && V.cas anc_cell anc_ver
         { target = promoted.target; flagged = promoted.flagged; tagged = false }

  let rec insert t key =
    assert (key < inf0);
    let r = seek t key in
    let par_edge = V.value r.par_ver in
    if r.leaf_key = key then false
    else if par_edge.flagged || par_edge.tagged then begin
      ignore (cleanup r);
      insert t key
    end
    else begin
      let new_leaf = Leaf key in
      let small, big =
        if key < r.leaf_key then (new_leaf, r.leaf) else (r.leaf, new_leaf)
      in
      let internal =
        Internal
          {
            ikey = max key r.leaf_key;
            left = V.make (clean small);
            right = V.make (clean big);
          }
      in
      let cell = child r.parent r.par_dir in
      match V.cas_with cell r.par_ver (clean internal) with
      | Some installed ->
        prune_with t cell (V.timestamp installed);
        true
      | None -> begin
        let e = V.read cell in
        if e.target == r.leaf && (e.flagged || e.tagged) then ignore (cleanup r);
        insert t key
      end
    end

  let rec delete t key =
    let r = seek t key in
    let par_edge = V.value r.par_ver in
    if r.leaf_key <> key then false
    else if par_edge.flagged || par_edge.tagged then begin
      ignore (cleanup r);
      delete t key
    end
    else begin
      let cell = child r.parent r.par_dir in
      match V.cas_with cell r.par_ver { par_edge with flagged = true } with
      | Some installed ->
        prune_with t cell (V.timestamp installed);
        if cleanup r then true else finish t key r.leaf
      | None -> begin
        let e = V.read cell in
        if e.target == r.leaf && (e.flagged || e.tagged) then ignore (cleanup r);
        delete t key
      end
    end

  and finish t key leaf =
    let r = seek t key in
    if r.leaf != leaf then true
    else if cleanup r then true
    else finish t key leaf

  let contains t key =
    let rec down node =
      match node with
      | Leaf k -> k = key
      | Internal n -> down (V.read (child n (dir_of n key))).target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = down (Internal t.s) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  (* In-order collection into the per-domain buffer: left subtree, leaf,
     right subtree, so the buffer ends up sorted ascending and is
     snapshotted into the result list exactly once. *)
  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  let collect_keys ~read_edge ~lo ~hi root =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec collect node =
      match node with
      | Leaf k ->
        if k >= lo && k <= hi && k < inf0 then
          Sync.Scratch.Int_buffer.push buf k
      | Internal n ->
        if lo < n.ikey then collect (read_edge n.left).target;
        if hi >= n.ikey then collect (read_edge n.right).target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    collect root;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_list buf

  (* Snapshot: fix the cut by advancing the timestamp (vCAS protocol: the
     reader is the advancing operation); reads then traverse the
     versioned edges at that label. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let collect_at t s ~lo ~hi =
    let ts = snap_label s in
    collect_keys ~read_edge:(fun c -> V.read_at c ts) ~lo ~hi (Internal t.s)

  let lookup_at t s key =
    let ts = snap_label s in
    let rec down node =
      match node with
      | Leaf k -> k = key
      | Internal n -> down (V.read_at (child n (dir_of n key)) ts).target
    in
    down (Internal t.s)

  let to_list t =
    collect_keys ~read_edge:V.read ~lo:min_int ~hi:max_int (Internal t.s)

  let size t = List.length (to_list t)

  let version_chain_stats t =
    let rec spine (edges, versions) cell =
      let count = V.chain_length cell in
      match (V.read cell).target with
      | Leaf _ -> (edges + 1, versions + count)
      | Internal n -> spine (edges + 1, versions + count) n.left
    in
    spine (0, 0) t.s.left
  (* Versioned links / bundles retain old values under GC; there is no
     reclamation grace protocol to participate in. *)
  let quiesce _ = ()
  let offline _ = ()
end

module Make (T : Hwts.Timestamp.S) = struct
  module C = Core (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
