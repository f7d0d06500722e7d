module Make (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  (* Natarajan–Mittal external BST with value-carrying leaves; every child
     edge is a versioned object.  Mirrors Bst_vcas, plus value plumbing
     and leaf replacement for update-in-place. *)

  type 'v node = Leaf of leaf_key * 'v option | Internal of 'v inode

  and 'v inode = {
    ikey : int;
    left : 'v edge V.t;
    right : 'v edge V.t;
  }

  and 'v edge = { target : 'v node; flagged : bool; tagged : bool }

  and leaf_key = int

  type dir = L | R

  let inf0 = max_int - 2
  let inf1 = max_int - 1
  let inf2 = max_int

  type 'v t = { r : 'v inode; s : 'v inode; registry : Rq_registry.t }

  let name = "vcas-bst-kv(" ^ T.name ^ ")"
  let clean target = { target; flagged = false; tagged = false }

  let prune_with t cell label =
    V.prune cell (Rq_registry.min_active_cached t.registry ~default:label)

  let create () =
    let s =
      {
        ikey = inf1;
        left = V.make (clean (Leaf (inf0, None)));
        right = V.make (clean (Leaf (inf1, None)));
      }
    in
    let r =
      {
        ikey = inf2;
        left = V.make (clean (Internal s));
        right = V.make (clean (Leaf (inf2, None)));
      }
    in
    { r; s; registry = Rq_registry.create () }

  let child n = function L -> n.left | R -> n.right
  let other = function L -> R | R -> L
  let dir_of n key = if key < n.ikey then L else R

  type 'v seek_record = {
    ancestor : 'v inode;
    anc_dir : dir;
    successor : 'v node;
    parent : 'v inode;
    par_dir : dir;
    par_ver : 'v edge V.version;
    leaf_key : int;
    leaf_value : 'v option;
    leaf : 'v node;
  }

  let seek t key =
    let rec descend ancestor anc_dir successor parent par_dir par_ver =
      let par_edge = V.value par_ver in
      match par_edge.target with
      | Leaf (k, v) ->
        {
          ancestor;
          anc_dir;
          successor;
          parent;
          par_dir;
          par_ver;
          leaf_key = k;
          leaf_value = v;
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

  (* Shared update driver: on key hit run [on_hit], on miss link a fresh
     internal with the new leaf.  Both paths are single versioned CASes. *)
  let rec update t key value ~overwrite =
    assert (key < inf0);
    let r = seek t key in
    let par_edge = V.value r.par_ver in
    if r.leaf_key = key then
      if not overwrite then false
      else begin
        (* replace the leaf in place *)
        if par_edge.flagged || par_edge.tagged then begin
          ignore (cleanup r);
          update t key value ~overwrite
        end
        else begin
          let cell = child r.parent r.par_dir in
          match V.cas_with cell r.par_ver (clean (Leaf (key, Some value))) with
          | Some installed ->
            prune_with t cell (V.timestamp installed);
            true
          | None -> update t key value ~overwrite
        end
      end
    else if par_edge.flagged || par_edge.tagged then begin
      ignore (cleanup r);
      update t key value ~overwrite
    end
    else begin
      let new_leaf = Leaf (key, Some value) in
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
      | None ->
        let e = V.read cell in
        if e.target == r.leaf && (e.flagged || e.tagged) then ignore (cleanup r);
        update t key value ~overwrite
    end

  let set t key value = ignore (update t key value ~overwrite:true)
  let add t key value = update t key value ~overwrite:false

  let rec remove t key =
    let r = seek t key in
    let par_edge = V.value r.par_ver in
    if r.leaf_key <> key then false
    else if par_edge.flagged || par_edge.tagged then begin
      ignore (cleanup r);
      remove t key
    end
    else begin
      let cell = child r.parent r.par_dir in
      match V.cas_with cell r.par_ver { par_edge with flagged = true } with
      | Some installed ->
        prune_with t cell (V.timestamp installed);
        if cleanup r then true else finish t key r.leaf
      | None ->
        let e = V.read cell in
        if e.target == r.leaf && (e.flagged || e.tagged) then ignore (cleanup r);
        remove t key
    end

  and finish t key leaf =
    let r = seek t key in
    if r.leaf != leaf then true
    else if cleanup r then true
    else finish t key leaf

  let find t key =
    let rec down node =
      match node with
      | Leaf (k, v) -> if k = key then v else None
      | Internal n -> down (V.read (child n (dir_of n key))).target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = down (Internal t.s) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let mem t key = find t key <> None

  let collect_range ~read_edge t ~lo ~hi =
    let rec collect acc node =
      match node with
      | Leaf (k, v) -> (
        if k >= lo && k <= hi && k < inf0 then
          match v with Some v -> (k, v) :: acc | None -> acc
        else acc)
      | Internal n ->
        let acc =
          if hi >= n.ikey then collect acc (read_edge n.right).target else acc
        in
        if lo < n.ikey then collect acc (read_edge n.left).target else acc
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = collect [] (Internal t.s) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_alist t =
    collect_range ~read_edge:V.read t ~lo:min_int ~hi:(inf0 - 1)

  let size t = List.length (to_alist t)

  (* Snapshot handle, as in Bst_vcas: the guard stamp occupies the
     domain's announce slot for the handle's lifetime, and the label is
     one [T.snapshot] advance. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let lookup_at t s key =
    let ts = snap_label s in
    let rec down node =
      match node with
      | Leaf (k, v) -> if k = key then v else None
      | Internal n -> down (V.read_at (child n (dir_of n key)) ts).target
    in
    down (Internal t.s)

  let collect_at t s ~lo ~hi =
    let ts = snap_label s in
    collect_range ~read_edge:(fun c -> V.read_at c ts) t ~lo ~hi

  (* The map's values are polymorphic, so it takes the derived range
     entry points from the shared derivation function rather than from
     the [Ordered_set.Ranges] functor. *)
  let range_query_labeled t ~lo ~hi =
    Dstruct.Ordered_set.read_labeled ~snapshot ~snap_label ~snap_release
      collect_at t ~lo ~hi

  let range_query t ~lo ~hi = snd (range_query_labeled t ~lo ~hi)
end
