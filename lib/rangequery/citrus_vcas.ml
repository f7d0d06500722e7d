module Core (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  type node = {
    key : int;
    left : node option V.t;
    right : node option V.t;
    lock : Sync.Spinlock.t;
    mutable marked : bool;
  }

  (* The backend is used purely as a grace mechanism here: read sections
     around unlocked traversals, [wait_until_quiescent] before the
     relocation delete's final unlink.  Nothing is retired — these
     variants never recover nodes from limbo. *)
  module Grace = R.Make (struct
    type t = node
  end)

  type t = { root : node; grace : Grace.t; registry : Rq_registry.t }

  let name = "vcas-citrus(" ^ T.name ^ ")"

  let make_node key l r =
    {
      key;
      left = V.make l;
      right = V.make r;
      lock = Sync.Spinlock.make ();
      marked = false;
    }

  let create () =
    {
      root = make_node Dstruct.Ordered_set.min_key None None;
      grace = Grace.create ();
      registry = Rq_registry.create ();
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
          walk n d' (V.read (child n d'))
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk root R (V.read root.right) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let traverse t key = Grace.with_read t.grace (fun () -> find t.root key)

  let contains t key =
    let _, _, found = traverse t key in
    found <> None

  let child_is n d c =
    match V.read (child n d) with Some x -> x == c | None -> false

  (* versioned write + history pruning under the announce-then-read rule;
     the pruning floor comes from the lazily refreshed registry cache *)
  let write_pruned t cell v =
    let installed = V.write_with cell v in
    V.prune cell
      (Rq_registry.min_active_cached t.registry
         ~default:(V.timestamp installed))

  (* Fresh re-walk under [prev.lock]: a successor relocation re-keys a
     position, so a slot from an earlier unlocked traversal can be
     unmarked and empty yet off [key]'s current search path (the final
     unlink restores the observed [None]); an attach there would be
     shadowed and the key lost.  See the matching comment in
     citrus_bundle.ml for the full argument. *)
  let confirm t prev d key =
    match find t.root key with
    | p', d', None -> p' == prev && d' = d
    | _, _, Some _ -> false

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let prev, d, found = traverse t key in
    match found with
    | Some _ -> false
    | None ->
      Sync.Spinlock.lock prev.lock;
      let valid =
        (not prev.marked)
        && V.read (child prev d) = None
        && confirm t prev d key
      in
      if valid then begin
        write_pruned t (child prev d) (Some (make_node key None None));
        Sync.Spinlock.unlock prev.lock;
        true
      end
      else begin
        Sync.Spinlock.unlock prev.lock;
        insert t key
      end

  let leftmost parent0 start =
    let rec walk sprev s =
      match V.read s.left with None -> (sprev, s) | Some nl -> walk s nl
    in
    walk parent0 start

  let rec delete t key =
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
        delete t key
      end
      else begin
        let l = V.read curr.left and r = V.read curr.right in
        match (l, r) with
        | None, None -> splice_out t prev d curr None
        | (Some _ as only), None | None, (Some _ as only) ->
          splice_out t prev d curr only
        | Some _, Some right_child ->
          delete_two_children t key prev d curr right_child l r
      end

  and splice_out t prev d curr repl =
    curr.marked <- true;
    write_pruned t (child prev d) repl;
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
      && V.read succ.left = None
      &&
      if succ_prev == curr then succ == right_child else child_is succ_prev L succ
    in
    if not valid then begin
      Sync.Spinlock.unlock succ.lock;
      if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
      Sync.Spinlock.unlock curr.lock;
      Sync.Spinlock.unlock prev.lock;
      delete t key
    end
    else begin
      let succ_right = V.read succ.right in
      let direct = succ_prev == curr in
      let replacement =
        make_node succ.key l (if direct then succ_right else r)
      in
      curr.marked <- true;
      succ.marked <- true;
      write_pruned t (child prev d) (Some replacement);
      if not direct then begin
        Grace.wait_until_quiescent t.grace;
        write_pruned t succ_prev.left succ_right
      end;
      Sync.Spinlock.unlock succ.lock;
      if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
      Sync.Spinlock.unlock curr.lock;
      Sync.Spinlock.unlock prev.lock;
      true
    end

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  (* vCAS range read at a snapshot label.  The relocation delete is two
     versioned writes, so de-duplicate. *)
  let collect_ts t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk node_opt =
      match node_opt with
      | None -> ()
      | Some n ->
        if lo < n.key then walk (V.read_at n.left ts);
        if n.key >= lo && n.key <= hi then
          Sync.Scratch.Int_buffer.push buf n.key;
        if hi > n.key then walk (V.read_at n.right ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk (V.read_at t.root.right ts);
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    List.sort_uniq compare (Sync.Scratch.Int_buffer.to_list buf)

  (* Snapshot handle: announce-slot guard + captured label; the RQ is the
     advancing operation (vCAS).  Reads at the held label need no grace
     section: these variants never retire nodes (GC keeps spliced
     subtrees alive), so [read_at] walks are safe unprotected. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  let lookup_at t s key =
    let ts = snap_label s in
    let rec walk = function
      | None -> false
      | Some n ->
        if n.key = key then true
        else walk (V.read_at (child n (dir_of n key)) ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk (V.read_at t.root.right ts) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc = function
      | None -> acc
      | Some n ->
        let acc = walk acc (V.read n.right) in
        walk (n.key :: acc) (V.read n.left)
    in
    walk [] (V.read t.root.right)

  let size t = List.length (to_list t)
  let quiesce t = Grace.quiesce t.grace
  let offline t = Grace.offline t.grace
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
