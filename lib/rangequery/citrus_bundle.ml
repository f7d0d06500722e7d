module Core (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  (* A [Node]'s inline record is its block, and an absent child is [Nil],
     as in citrus_ebrrq.ml.  [left] (field 1), [right] (2), [lock] (3)
     and the bundle heads [bleft] (5) and [bright] (6) are written only
     through {!Field_lock}, so the field order matters. *)
  type node =
    | Nil
    | Node of {
        key : int;
        mutable left : node; (* raw links: elemental operations *)
        mutable right : node;
        mutable lock : bool;
        mutable marked : bool;
        mutable bleft : node B.entry; (* bundled links: range queries *)
        mutable bright : node B.entry;
      }

  module F = Field_lock.Make (struct
    type t = node

    let lock_field = 3
    let locked = function Node n -> n.lock | Nil -> false
  end)

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
    Node
      {
        key;
        left = l;
        right = r;
        lock = false;
        marked = false;
        bleft = B.pending l;
        bright = B.pending r;
      }

  let create () =
    let root =
      Node
        {
          key = Dstruct.Ordered_set.min_key;
          left = Nil;
          right = Nil;
          lock = false;
          marked = false;
          bleft = B.first Nil;
          bright = B.first Nil;
        }
    in
    { root; grace = Grace.create (); registry = Rq_registry.create () }

  type dir = L | R

  let key_of = function Node n -> n.key | Nil -> max_int
  let marked = function Node n -> n.marked | Nil -> false
  let mark = function Node n -> n.marked <- true | Nil -> ()

  let child n d =
    match n with
    | Node n -> ( match d with L -> n.left | R -> n.right)
    | Nil -> Nil

  let set_child n d ~was v = F.link n (match d with L -> 1 | R -> 2) ~was v

  (* the head of the bundled link from [n] toward [d]; [n] is never
     [Nil] *)
  let bchild n d =
    match n with
    | Node n -> ( match d with L -> n.bleft | R -> n.bright)
    | Nil -> invalid_arg "Citrus_bundle.bchild: Nil"

  (* Push a pending entry for [target] onto the bundled link from [n]
     toward [d]; the caller holds [n]'s lock and labels the entry. *)
  let prepare n d target =
    let was = bchild n d in
    let entry = B.successor was target in
    F.install n (match d with L -> 5 | R -> 6) ~was entry;
    entry

  let dir_of n key = if key < key_of n then L else R

  let find root key =
    let rec walk prev d n =
      match n with
      | Node m when m.key <> key ->
        let d' = if key < m.key then L else R in
        walk n d' (child n d')
      | Node _ | Nil -> (prev, d, n)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk root R (child root R) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let traverse t key = Grace.with_read t.grace (fun () -> find t.root key)

  let contains t key =
    let _, _, found = traverse t key in
    found != Nil

  let prune_with t entry ts =
    B.prune_from entry (Rq_registry.min_active_cached t.registry ~default:ts)

  (* Re-walk from the root under [prev.lock] and require the walk to end
     at the same empty slot.  "Unmarked and still Nil" is not enough for
     an insert: a successor relocation re-keys a position (the
     replacement carries [succ.key] where [curr.key] stood), so a slot
     chosen by an earlier unlocked traversal can be live and empty yet no
     longer on [key]'s search path — the relocation's final
     [succ_prev.left := succ_right] restores the very [Nil] the stale
     inserter validated, and the attached node would be shadowed
     (reachable by no search, so the key silently vanishes).  A fresh
     walk sees the current routing, and any re-keying that lands between
     this check and the raw link must lock one of the nodes the
     relocation already holds — which includes every attach point it
     moves. *)
  let confirm t prev d key =
    let p', d', n = find t.root key in
    n == Nil && p' == prev && d' = d

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let prev, d, found = traverse t key in
    if found != Nil then false
    else begin
      F.lock prev;
      let valid =
        (not (marked prev)) && child prev d == Nil && confirm t prev d key
      in
      if valid then begin
        let node = make_node key Nil Nil in
        let link = prepare prev d node in
        (* timestamp before the raw link (the commit point elemental
           traversals observe), and the fresh node's bundles labeled
           before it is reachable so no neighbour can prepare on a
           pending bundle *)
        let ts = T.advance () in
        B.label (bchild node L) ts;
        B.label (bchild node R) ts;
        set_child prev d ~was:Nil node;
        B.label link ts;
        prune_with t link ts;
        F.unlock prev;
        true
      end
      else begin
        F.unlock prev;
        insert t key
      end
    end

  let leftmost parent0 start =
    let rec walk sprev s =
      match child s L with Nil -> (sprev, s) | nl -> walk s nl
    in
    walk parent0 start

  let rec delete t key =
    let prev, d, curr = traverse t key in
    if curr == Nil then false
    else begin
      F.lock prev;
      F.lock curr;
      let valid =
        (not (marked prev)) && (not (marked curr)) && child prev d == curr
      in
      if not valid then begin
        F.unlock curr;
        F.unlock prev;
        delete t key
      end
      else
        let l = child curr L and r = child curr R in
        if l == Nil then splice_out t prev d curr r
        else if r == Nil then splice_out t prev d curr l
        else delete_two_children t key prev d curr l r
    end

  and splice_out t prev d curr repl =
    let link = prepare prev d repl in
    (* timestamp before the unlink: once a traversal can miss [curr],
       every later snapshot timestamp covers the delete *)
    let ts = T.advance () in
    set_child prev d ~was:curr repl;
    mark curr;
    B.label link ts;
    prune_with t link ts;
    F.unlock curr;
    F.unlock prev;
    true

  and delete_two_children t key prev d curr l r =
    let succ_prev, succ = leftmost curr r in
    if succ_prev != curr then F.lock succ_prev;
    F.lock succ;
    let valid =
      (not (marked succ))
      && (not (marked succ_prev))
      && child succ L == Nil
      && if succ_prev == curr then succ == r else child succ_prev L == succ
    in
    if not valid then begin
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      delete t key
    end
    else begin
      let succ_right = child succ R in
      let direct = succ_prev == curr in
      let replacement =
        make_node (key_of succ) l (if direct then succ_right else r)
      in
      let link = prepare prev d replacement in
      if not direct then ignore (prepare succ_prev L succ_right);
      (* One timestamp for every entry — the whole relocation is a single
         atomic step for snapshot traversals — taken before the raw swap
         so observable effects never precede their label; the replacement
         node's own bundles are labeled before it becomes reachable *)
      let ts = T.advance () in
      B.label (bchild replacement L) ts;
      B.label (bchild replacement R) ts;
      set_child prev d ~was:curr replacement;
      mark curr;
      mark succ;
      B.label link ts;
      if not direct then B.label (bchild succ_prev L) ts;
      prune_with t link ts;
      if not direct then begin
        (* Elemental traversals may still be en route to the original
           successor through the old links: drain them before unlinking. *)
        Grace.wait_until_quiescent t.grace;
        set_child succ_prev L ~was:succ succ_right
      end;
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
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
    let rec walk = function
      | Nil -> ()
      | Node n ->
        if lo < n.key then walk (B.value_at n.bleft ts);
        if n.key >= lo && n.key <= hi then
          Sync.Scratch.Int_buffer.push buf n.key;
        if hi > n.key then walk (B.value_at n.bright ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk (B.value_at (bchild t.root R) ts);
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
      | Nil -> false
      | Node m as n ->
        m.key = key || walk (B.value_at (bchild n (dir_of n key)) ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk (B.value_at (bchild t.root R) ts) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc = function
      | Nil -> acc
      | Node n ->
        let acc = walk acc n.right in
        walk (n.key :: acc) n.left
    in
    walk [] (child t.root R)

  let size t = List.length (to_list t)
  let quiesce t = Grace.quiesce t.grace
  let offline t = Grace.offline t.grace
  let active_rqs t = Rq_registry.active_count t.registry

  let bundle_stats t =
    let rec spine links entries = function
      | Nil -> (links, entries)
      | Node n -> spine (links + 1) (entries + B.chain_of n.bleft) n.left
    in
    spine 0 0 (child t.root R)
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
