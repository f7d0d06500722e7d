module Make (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  (* Natarajan–Mittal external BST whose child edges are vCAS chains.  A
     set keeps its keys in [Leaf]s; a map keeps each binding in an
     [Entry] and uses [Leaf] only for the sentinels.  An [Internal] holds
     the head version of each child edge in a mutable field, so an edge
     is one pointer.  A clean edge's version holds its target node
     itself; only a flagged (leaf being deleted) or tagged (parent being
     spliced out) edge allocates a [Mark] around its target, and a
     [Mark]'s target is never itself a [Mark].  A tree level is therefore
     two heap blocks: version and node.  CAS compares versions, which are
     fresh per write, so reinstalling a node that was linked before
     cannot be mistaken for an unchanged edge. *)
  type 'v node =
    | Leaf of int
    | Entry of { key : int; value : 'v }
    | Internal of {
        ikey : int;
        mutable left : 'v node V.version;
        mutable right : 'v node V.version;
      }
    | Mark of { target : 'v node; flagged : bool; tagged : bool }

  (* Edge heads are read as plain fields and CASed in place.  [Internal]'s
     inline record is its block: [ikey] is field 0, [left] field 1,
     [right] field 2.  Only [cas_edge] below calls the stub, and only on
     an [Internal]. *)
  external cas_field :
    'v node -> int -> 'v node V.version -> 'v node V.version -> bool
    = "hwts_cas_field"
  [@@noalloc]

  let inf0 = max_int - 2
  let inf1 = max_int - 1

  (* [root] is the sentinel [r]; its left edge always holds the sentinel
     [s].  A real key's leaf hangs below an internal node under [s], so
     [s] is at most a seek's successor and no update writes [r]'s edges. *)
  type 'v t = { root : 'v node; registry : Rq_registry.t }

  (* The label a current read resolves at: every version qualifies, so
     [V.value_at head now] is the labeled head's value. *)
  let now = max_int
  let target = function Mark m -> m.target | node -> node
  let flagged = function Mark m -> m.flagged | _ -> false
  let tagged = function Mark m -> m.tagged | _ -> false
  let marked = function Mark _ -> true | _ -> false

  let edge target ~flagged ~tagged =
    if flagged || tagged then Mark { target; flagged; tagged } else target

  let head node left =
    match node with
    | Internal n -> if left then n.left else n.right
    | Leaf _ | Entry _ | Mark _ -> invalid_arg "Bst_vcas.head: not internal"

  let edge_value node left = V.value (V.labeled (head node left))

  (* Install [node] on [parent]'s [left] edge iff its head is still
     [expected], and label it.  An update's linearizing write ([~prune])
     then cuts history that no open snapshot can need (announce-then-read
     makes this safe); the registry floor is the cached one: refreshed
     lazily, guaranteed never to lead the true minimum. *)
  let cas_edge t ~prune parent left expected node =
    head parent left == expected
    &&
    let candidate = V.successor expected node in
    cas_field parent (if left then 1 else 2) expected candidate
    && begin
         V.publish candidate;
         if prune then
           V.prune_from candidate
             (Rq_registry.min_active_cached t.registry
                ~default:(V.timestamp candidate));
         true
       end

  let create () =
    let s =
      Internal
        { ikey = inf1; left = V.first (Leaf inf0); right = V.first (Leaf inf1) }
    in
    let r =
      Internal { ikey = max_int; left = V.first s; right = V.first (Leaf max_int) }
    in
    { root = r; registry = Rq_registry.create () }

  (* The seek record names each edge by its node and side: [parent]'s
     [par_left] edge holds the leaf (its other edge the sibling), and
     [anc]'s [anc_left] edge holds [successor]. *)
  type 'v seek_record = {
    anc : 'v node;
    anc_left : bool;
    successor : 'v node;
    parent : 'v node;
    par_left : bool;
    par_ver : 'v node V.version;
    leaf_key : int;
    leaf : 'v node;
  }

  let key_of = function
    | Leaf k -> k
    | Entry e -> e.key
    | Internal _ | Mark _ -> invalid_arg "Bst_vcas.key_of: not a leaf"

  let rec descend key anc anc_left successor parent par_left par_ver node =
    match node with
    | Mark m ->
      descend key anc anc_left successor parent par_left par_ver m.target
    | Leaf _ | Entry _ ->
      let leaf_key = key_of node in
      { anc; anc_left; successor; parent; par_left; par_ver; leaf_key; leaf = node }
    | Internal n ->
      let left = key < n.ikey in
      let ver = V.labeled (if left then n.left else n.right) in
      if tagged (V.value par_ver) then
        descend key anc anc_left successor node left ver (V.value ver)
      else descend key parent par_left node node left ver (V.value ver)

  (* Entering [s] through [r]'s clean left edge makes [r] the ancestor
     and [s] the successor, the seek's usual start. *)
  let seek t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let ver = V.labeled (head t.root true) in
    let s = V.value ver in
    let r = descend key t.root true s t.root true ver s in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let rec tag t parent left =
    let ver = V.labeled (head parent left) in
    let e = V.value ver in
    if tagged e then e
    else
      let tagged_e =
        Mark { target = target e; flagged = flagged e; tagged = true }
      in
      if cas_edge t ~prune:false parent left ver tagged_e then tagged_e
      else tag t parent left

  let cleanup t r =
    let promote_left =
      if flagged (edge_value r.parent r.par_left) then not r.par_left
      else r.par_left
    in
    let promoted = tag t r.parent promote_left in
    let anc_ver = V.labeled (head r.anc r.anc_left) in
    let anc_edge = V.value anc_ver in
    target anc_edge == r.successor
    && (not (tagged anc_edge))
    && cas_edge t ~prune:false r.anc r.anc_left anc_ver
         (edge (target promoted) ~flagged:(flagged promoted) ~tagged:false)

  (* After a lost CAS on the leaf's edge: help a delete that marked it. *)
  let help_lost t r =
    let e = edge_value r.parent r.par_left in
    if target e == r.leaf && marked e then ignore (cleanup t r)

  (* One update path: on a key hit replace the leaf (when
     [overwrite]), on a miss link a fresh internal over the old leaf and
     [leaf key value].  Both are one versioned CAS. *)
  let rec add t key value ~leaf ~overwrite =
    assert (key < inf0);
    let r = seek t key in
    let par_marked = marked (V.value r.par_ver) in
    if r.leaf_key = key && not overwrite then false
    else if par_marked then begin
      ignore (cleanup t r);
      add t key value ~leaf ~overwrite
    end
    else if r.leaf_key = key then
      cas_edge t ~prune:true r.parent r.par_left r.par_ver (leaf key value)
      || add t key value ~leaf ~overwrite
    else begin
      let fresh = leaf key value and ikey = max key r.leaf_key in
      let internal =
        if key < r.leaf_key then
          Internal { ikey; left = V.first fresh; right = V.first r.leaf }
        else Internal { ikey; left = V.first r.leaf; right = V.first fresh }
      in
      cas_edge t ~prune:true r.parent r.par_left r.par_ver internal
      || begin
           help_lost t r;
           add t key value ~leaf ~overwrite
         end
    end

  let rec remove t key =
    let r = seek t key in
    if r.leaf_key <> key then false
    else if marked (V.value r.par_ver) then begin
      ignore (cleanup t r);
      remove t key
    end
    else
      let flag = Mark { target = r.leaf; flagged = true; tagged = false } in
      if cas_edge t ~prune:true r.parent r.par_left r.par_ver flag then
        cleanup t r || finish t key r.leaf
      else begin
        help_lost t r;
        remove t key
      end

  and finish t key leaf =
    let r = seek t key in
    r.leaf != leaf || cleanup t r || finish t key leaf

  (* Point reads descend to the leaf [key] routes to at label [ts]
     ([now] for the current tree). *)
  let rec leaf_at key ts node =
    match node with
    | Internal n ->
      leaf_at key ts (V.value_at (if key < n.ikey then n.left else n.right) ts)
    | Mark m -> leaf_at key ts m.target
    | Leaf _ | Entry _ -> node

  let leaf_now t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let l = leaf_at key now t.root in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    l

  (* The sentinels' keys are reserved: no reader reports them present. *)
  let holds key leaf = key < inf0 && key_of leaf = key

  let binding key = function
    | Entry e when e.key = key -> Some e.value
    | Leaf _ | Entry _ | Internal _ | Mark _ -> None

  let mem t key = holds key (leaf_now t key)
  let find t key = binding key (leaf_now t key)

  (* Range reads walk [lo, hi] in order at label [ts]: keys go into the
     per-domain buffer (left subtree first, so it ends up ascending and
     is copied once into the exact-size result array); bindings are
     consed right subtree first, for the same order. *)
  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  let rec keys_into buf ts lo hi node =
    match node with
    | Leaf k ->
      if k >= lo && k <= hi && k < inf0 then Sync.Scratch.Int_buffer.push buf k
    | Entry e ->
      if e.key >= lo && e.key <= hi then Sync.Scratch.Int_buffer.push buf e.key
    | Internal n ->
      if lo < n.ikey then keys_into buf ts lo hi (V.value_at n.left ts);
      if hi >= n.ikey then keys_into buf ts lo hi (V.value_at n.right ts)
    | Mark m -> keys_into buf ts lo hi m.target

  let keys t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    keys_into buf ts lo hi t.root;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_array buf

  let rec bindings_onto acc ts lo hi node =
    match node with
    | Entry e -> if e.key >= lo && e.key <= hi then (e.key, e.value) :: acc else acc
    | Leaf _ -> acc
    | Internal n ->
      let acc =
        if hi >= n.ikey then bindings_onto acc ts lo hi (V.value_at n.right ts)
        else acc
      in
      if lo < n.ikey then bindings_onto acc ts lo hi (V.value_at n.left ts)
      else acc
    | Mark m -> bindings_onto acc ts lo hi m.target

  let bindings t ts ~lo ~hi =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = bindings_onto [] ts lo hi t.root in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  (* Snapshot: fix the cut by advancing the timestamp (vCAS protocol: the
     reader is the advancing operation); reads then traverse the
     versioned edges at that label. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s
  let mem_at t s key = holds key (leaf_at key (snap_label s) t.root)
  let find_at t s key = binding key (leaf_at key (snap_label s) t.root)
  let keys_at t s ~lo ~hi = keys t (snap_label s) ~lo ~hi
  let bindings_at t s ~lo ~hi = bindings t (snap_label s) ~lo ~hi
  let to_list t = Array.to_list (keys t now ~lo:min_int ~hi:max_int)
  let to_alist t = bindings t now ~lo:min_int ~hi:max_int
  let size t = Array.length (keys t now ~lo:min_int ~hi:max_int)

  let version_chain_stats t =
    let rec spine edges versions node =
      match node with
      | Internal n ->
        spine (edges + 1) (versions + V.chain_of n.left)
          (target (V.value (V.labeled n.left)))
      | Leaf _ | Entry _ | Mark _ -> (edges, versions)
    in
    spine 0 0 t.root
end
