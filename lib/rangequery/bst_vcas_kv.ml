module Make (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  (* Natarajan–Mittal external BST with value-carrying leaves; every child
     edge is a versioned object.  Mirrors Bst_vcas (same edge encoding: a
     clean edge is its target node, a flagged or tagged one a [Mark]),
     plus value plumbing and leaf replacement for update-in-place. *)

  type 'v node =
    | Leaf of leaf_key * 'v option
    | Internal of { ikey : int; left : 'v node V.t; right : 'v node V.t }
    | Mark of { target : 'v node; flagged : bool; tagged : bool }

  and leaf_key = int

  let inf0 = max_int - 2
  let inf1 = max_int - 1

  type 'v t = { root : 'v node V.t; registry : Rq_registry.t }

  let name = "vcas-bst-kv(" ^ T.name ^ ")"
  let target = function Mark m -> m.target | node -> node
  let flagged = function Mark m -> m.flagged | _ -> false
  let tagged = function Mark m -> m.tagged | _ -> false
  let marked = function Mark _ -> true | _ -> false

  let edge target ~flagged ~tagged =
    if flagged || tagged then Mark { target; flagged; tagged } else target

  let prune_with t cell label =
    V.prune cell (Rq_registry.min_active_cached t.registry ~default:label)

  let create () =
    let s =
      Internal
        {
          ikey = inf1;
          left = V.make (Leaf (inf0, None));
          right = V.make (Leaf (inf1, None));
        }
    in
    { root = V.make s; registry = Rq_registry.create () }

  type 'v seek_record = {
    anc_cell : 'v node V.t;
    successor : 'v node;
    par_cell : 'v node V.t;
    sib_cell : 'v node V.t;
    par_ver : 'v node V.version;
    leaf_key : int;
    leaf : 'v node;
  }

  let seek t key =
    let rec descend anc_cell successor par_cell sib_cell par_ver node =
      match node with
      | Mark m ->
        descend anc_cell successor par_cell sib_cell par_ver m.target
      | Leaf (k, _) ->
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

  (* Shared update driver: on a key hit replace the leaf (when
     [overwrite]), on a miss link a fresh internal with the new leaf.
     Both paths are single versioned CASes. *)
  let rec update t key value ~overwrite =
    assert (key < inf0);
    let r = seek t key in
    let par_marked = marked (V.value r.par_ver) in
    if r.leaf_key = key then
      if not overwrite then false
      else begin
        (* replace the leaf in place *)
        if par_marked then begin
          ignore (cleanup r);
          update t key value ~overwrite
        end
        else
          match V.cas_with r.par_cell r.par_ver (Leaf (key, Some value)) with
          | Some installed ->
            prune_with t r.par_cell (V.timestamp installed);
            true
          | None -> update t key value ~overwrite
      end
    else if par_marked then begin
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
          { ikey = max key r.leaf_key; left = V.make small; right = V.make big }
      in
      match V.cas_with r.par_cell r.par_ver internal with
      | Some installed ->
        prune_with t r.par_cell (V.timestamp installed);
        true
      | None ->
        let e = V.read r.par_cell in
        if target e == r.leaf && marked e then ignore (cleanup r);
        update t key value ~overwrite
    end

  let set t key value = ignore (update t key value ~overwrite:true)
  let add t key value = update t key value ~overwrite:false

  let rec remove t key =
    let r = seek t key in
    if r.leaf_key <> key then false
    else if marked (V.value r.par_ver) then begin
      ignore (cleanup r);
      remove t key
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
      | Internal n -> down (V.read (if key < n.ikey then n.left else n.right))
      | Mark m -> down m.target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = down (V.read t.root) in
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
          if hi >= n.ikey then collect acc (read_edge n.right) else acc
        in
        if lo < n.ikey then collect acc (read_edge n.left) else acc
      | Mark m -> collect acc m.target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = collect [] (read_edge t.root) in
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
      | Internal n ->
        down (V.read_at (if key < n.ikey then n.left else n.right) ts)
      | Mark m -> down m.target
    in
    down (V.read_at t.root ts)

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
