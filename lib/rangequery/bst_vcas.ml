module Core (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  (* Every child edge is a versioned cell holding a [node].  A clean edge
     is its target node itself; only a flagged (leaf being deleted) or
     tagged (parent being spliced out) edge allocates a [Mark] around its
     target, and a [Mark]'s target is never itself a [Mark].  A tree level
     is therefore three heap blocks: cell, version, node.  CAS still
     compares versions, which are fresh per write, so reinstalling a node
     that was linked before cannot be mistaken for an unchanged edge. *)
  type node =
    | Leaf of int
    | Internal of { ikey : int; left : node V.t; right : node V.t }
    | Mark of { target : node; flagged : bool; tagged : bool }

  let inf0 = max_int - 2
  let inf1 = max_int - 1

  (* [root] is the Natarajan–Mittal sentinel [r]'s left edge, the only
     part of [r] a traversal reads.  It always holds the sentinel [s]:
     a real key's leaf hangs below an internal node under [s], so [s] is
     at most a seek's ancestor and no update writes [root]. *)
  type t = { root : node V.t; registry : Rq_registry.t }

  let name = "vcas-bst(" ^ T.name ^ ")"
  let target = function Mark m -> m.target | node -> node
  let flagged = function Mark m -> m.flagged | _ -> false
  let tagged = function Mark m -> m.tagged | _ -> false
  let marked = function Mark _ -> true | _ -> false

  let edge target ~flagged ~tagged =
    if flagged || tagged then Mark { target; flagged; tagged } else target

  (* Bound version chains: after labeling our own write at [label], cut
     history that no open snapshot can need (announce-then-read makes
     this safe).  The registry floor is the cached one: refreshed lazily,
     guaranteed never to lead the true minimum. *)
  let prune_with t cell label =
    V.prune cell (Rq_registry.min_active_cached t.registry ~default:label)

  let create () =
    let s =
      Internal
        { ikey = inf1; left = V.make (Leaf inf0); right = V.make (Leaf inf1) }
    in
    { root = V.make s; registry = Rq_registry.create () }

  (* The seek record names cells rather than (node, direction) pairs:
     [par_cell] holds the edge to the leaf, [sib_cell] the parent's other
     edge, [anc_cell] the ancestor's edge to [successor]. *)
  type seek_record = {
    anc_cell : node V.t;
    successor : node;
    par_cell : node V.t;
    sib_cell : node V.t;
    par_ver : node V.version;
    leaf_key : int;
    leaf : node;
  }

  let seek t key =
    let rec descend anc_cell successor par_cell sib_cell par_ver node =
      match node with
      | Mark m ->
        descend anc_cell successor par_cell sib_cell par_ver m.target
      | Leaf k ->
        {
          anc_cell;
          successor;
          par_cell;
          sib_cell;
          par_ver;
          leaf_key = k;
          leaf = node;
        }
      | Internal n ->
        let anc_cell, successor =
          if tagged (V.value par_ver) then (anc_cell, successor)
          else (par_cell, node)
        in
        let cell, sib =
          if key < n.ikey then (n.left, n.right) else (n.right, n.left)
        in
        let ver = V.head cell in
        descend anc_cell successor cell sib ver (V.value ver)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    (* Entering [s] through the clean [root] edge makes [root] the
       ancestor cell and [s] the successor, the seek's usual start; the
       sibling argument is replaced at that same step. *)
    let root = V.head t.root in
    let s = V.value root in
    let r = descend t.root s t.root t.root root s in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let cleanup r =
    let promote_cell =
      if flagged (V.read r.par_cell) then r.sib_cell else r.par_cell
    in
    let rec tag () =
      let ver = V.head promote_cell in
      let e = V.value ver in
      if tagged e then e
      else
        let tagged_e =
          Mark { target = target e; flagged = flagged e; tagged = true }
        in
        if V.cas promote_cell ver tagged_e then tagged_e else tag ()
    in
    let promoted = tag () in
    let anc_ver = V.head r.anc_cell in
    let anc_edge = V.value anc_ver in
    target anc_edge == r.successor
    && (not (tagged anc_edge))
    && V.cas r.anc_cell anc_ver
         (edge (target promoted) ~flagged:(flagged promoted) ~tagged:false)

  let rec insert t key =
    assert (key < inf0);
    let r = seek t key in
    if r.leaf_key = key then false
    else if marked (V.value r.par_ver) then begin
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
          { ikey = max key r.leaf_key; left = V.make small; right = V.make big }
      in
      match V.cas_with r.par_cell r.par_ver internal with
      | Some installed ->
        prune_with t r.par_cell (V.timestamp installed);
        true
      | None ->
        let e = V.read r.par_cell in
        if target e == r.leaf && marked e then ignore (cleanup r);
        insert t key
    end

  let rec delete t key =
    let r = seek t key in
    if r.leaf_key <> key then false
    else if marked (V.value r.par_ver) then begin
      ignore (cleanup r);
      delete t key
    end
    else begin
      let flag = Mark { target = r.leaf; flagged = true; tagged = false } in
      match V.cas_with r.par_cell r.par_ver flag with
      | Some installed ->
        prune_with t r.par_cell (V.timestamp installed);
        if cleanup r then true else finish t key r.leaf
      | None ->
        let e = V.read r.par_cell in
        if target e == r.leaf && marked e then ignore (cleanup r);
        delete t key
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
      | Internal n -> down (V.read (if key < n.ikey then n.left else n.right))
      | Mark m -> down m.target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = down (V.read t.root) in
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
        if lo < n.ikey then collect (read_edge n.left);
        if hi >= n.ikey then collect (read_edge n.right)
      | Mark m -> collect m.target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    collect (read_edge root);
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
    collect_keys ~read_edge:(fun c -> V.read_at c ts) ~lo ~hi t.root

  let lookup_at t s key =
    let ts = snap_label s in
    let rec down node =
      match node with
      | Leaf k -> k = key
      | Internal n ->
        down (V.read_at (if key < n.ikey then n.left else n.right) ts)
      | Mark m -> down m.target
    in
    down (V.read_at t.root ts)

  let to_list t = collect_keys ~read_edge:V.read ~lo:min_int ~hi:max_int t.root
  let size t = List.length (to_list t)

  let version_chain_stats t =
    let rec spine (edges, versions) cell =
      let acc = (edges + 1, versions + V.chain_length cell) in
      match target (V.read cell) with Internal n -> spine acc n.left | _ -> acc
    in
    spine (0, 0) t.root
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
