module Core (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  type node = {
    key : int;
    left : node option Atomic.t; (* raw links: elemental operations *)
    right : node option Atomic.t;
    bleft : node option B.t; (* bundled links: range queries *)
    bright : node option B.t;
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

  let name = "bundle-citrus(" ^ T.name ^ ")"

  (* Fresh nodes' bundles start pending; the installing update labels them
     together with the link entry. *)
  let make_node key l r =
    {
      key;
      left = Atomic.make l;
      right = Atomic.make r;
      bleft = B.make_pending l;
      bright = B.make_pending r;
      lock = Sync.Spinlock.make ();
      marked = false;
    }

  let create () =
    let root =
      {
        key = Dstruct.Ordered_set.min_key;
        left = Atomic.make None;
        right = Atomic.make None;
        bleft = B.make None;
        bright = B.make None;
        lock = Sync.Spinlock.make ();
        marked = false;
      }
    in
    { root; grace = Grace.create (); registry = Rq_registry.create () }

  type dir = L | R

  let child n = function L -> n.left | R -> n.right
  let bchild n = function L -> n.bleft | R -> n.bright
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

  let traverse t key = Grace.with_read t.grace (fun () -> find t.root key)

  let contains t key =
    let _, _, found = traverse t key in
    found <> None

  let child_is n d c =
    match Atomic.get (child n d) with Some x -> x == c | None -> false

  let prune_with t bundle ts =
    B.prune bundle (Rq_registry.min_active_cached t.registry ~default:ts)

  (* Re-walk from the root under [prev.lock] and require the walk to end
     at the same empty slot.  "Unmarked and still None" is not enough for
     an insert: a successor relocation re-keys a position (the
     replacement carries [succ.key] where [curr.key] stood), so a slot
     chosen by an earlier unlocked traversal can be live and empty yet no
     longer on [key]'s search path — the relocation's final
     [succ_prev.left := succ_right] restores the very [None] the stale
     inserter validated, and the attached node would be shadowed
     (reachable by no search, so the key silently vanishes).  A fresh
     walk sees the current routing, and any re-keying that lands between
     this check and the raw link must lock one of the nodes the
     relocation already holds — which includes every attach point it
     moves. *)
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
        && Atomic.get (child prev d) = None
        && confirm t prev d key
      in
      if valid then begin
        let node = make_node key None None in
        let link = bchild prev d in
        B.prepare link (Some node);
        (* timestamp before the raw link (the commit point elemental
           traversals observe), and the fresh node's bundles labeled
           before it is reachable so no neighbour can prepare on a
           pending bundle *)
        let ts = T.advance () in
        B.label node.bleft ts;
        B.label node.bright ts;
        Atomic.set (child prev d) (Some node);
        B.label link ts;
        prune_with t link ts;
        Sync.Spinlock.unlock prev.lock;
        true
      end
      else begin
        Sync.Spinlock.unlock prev.lock;
        insert t key
      end

  let leftmost parent0 start =
    let rec walk sprev s =
      match Atomic.get s.left with None -> (sprev, s) | Some nl -> walk s nl
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
        let l = Atomic.get curr.left and r = Atomic.get curr.right in
        match (l, r) with
        | None, None -> splice_out t prev d curr None
        | (Some _ as only), None | None, (Some _ as only) ->
          splice_out t prev d curr only
        | Some _, Some right_child ->
          delete_two_children t key prev d curr right_child l r
      end

  and splice_out t prev d curr repl =
    let link = bchild prev d in
    B.prepare link repl;
    (* timestamp before the unlink: once a traversal can miss [curr],
       every later snapshot timestamp covers the delete *)
    let ts = T.advance () in
    Atomic.set (child prev d) repl;
    curr.marked <- true;
    B.label link ts;
    prune_with t link ts;
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
      delete t key
    end
    else begin
      let succ_right = Atomic.get succ.right in
      let direct = succ_prev == curr in
      let replacement =
        make_node succ.key l (if direct then succ_right else r)
      in
      let link = bchild prev d in
      B.prepare link (Some replacement);
      if not direct then B.prepare succ_prev.bleft succ_right;
      (* One timestamp for every entry — the whole relocation is a single
         atomic step for snapshot traversals — taken before the raw swap
         so observable effects never precede their label; the replacement
         node's own bundles are labeled before it becomes reachable *)
      let ts = T.advance () in
      B.label replacement.bleft ts;
      B.label replacement.bright ts;
      Atomic.set (child prev d) (Some replacement);
      curr.marked <- true;
      succ.marked <- true;
      B.label link ts;
      if not direct then B.label succ_prev.bleft ts;
      prune_with t link ts;
      if not direct then begin
        (* Elemental traversals may still be en route to the original
           successor through the old links: drain them before unlinking. *)
        Grace.wait_until_quiescent t.grace;
        Atomic.set succ_prev.left succ_right
      end;
      Sync.Spinlock.unlock succ.lock;
      if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
      Sync.Spinlock.unlock curr.lock;
      Sync.Spinlock.unlock prev.lock;
      true
    end

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  (* Bundling range read at a snapshot label.  In-order traversal fills
     the per-domain buffer ascending; the result list is snapshotted from
     it once. *)
  let collect_ts t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk node_opt =
      match node_opt with
      | None -> ()
      | Some n ->
        if lo < n.key then walk (B.read_at n.bleft ts);
        if n.key >= lo && n.key <= hi then
          Sync.Scratch.Int_buffer.push buf n.key;
        if hi > n.key then walk (B.read_at n.bright ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk (B.read_at t.root.bright ts);
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_list buf

  (* Snapshot handle: the announce-slot guard keeps bundle pruning below
     the captured label for the handle's lifetime; bundles never advance
     the clock for reads, so the label is a plain [T.read]. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.read

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: directed descent through the bundled
     child links at [ts]. *)
  let lookup_at t sn key =
    let ts = snap_label sn in
    let rec walk = function
      | None -> false
      | Some n ->
        if n.key = key then true
        else walk (B.read_at (bchild n (dir_of n key)) ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk (B.read_at t.root.bright ts) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc = function
      | None -> acc
      | Some n ->
        let acc = walk acc (Atomic.get n.right) in
        walk (n.key :: acc) (Atomic.get n.left)
    in
    walk [] (Atomic.get t.root.right)

  let size t = List.length (to_list t)
  let quiesce t = Grace.quiesce t.grace
  let offline t = Grace.offline t.grace
  let active_rqs t = Rq_registry.active_count t.registry

  let bundle_stats t =
    let rec spine (links, entries) n =
      let links = links + 1 and entries = entries + B.length n.bleft in
      match Atomic.get n.left with
      | None -> (links, entries)
      | Some l -> spine (links, entries) l
    in
    match Atomic.get t.root.right with
    | None -> (0, 0)
    | Some n -> spine (0, 0) n
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
