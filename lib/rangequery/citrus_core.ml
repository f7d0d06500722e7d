(* The Citrus tree with a version chain per edge, shared by the two
   labeling disciplines Fig. 3 compares: vCAS (readers help label a
   pending version) and Bundling (the update labels, readers wait).  The
   tree, its locks and its relocation are the same for both; a
   {!LABELING} module supplies what differs.  Citrus_vcas and
   Citrus_bundle are thin instances. *)

module type LABELING = sig
  module T : Hwts.Timestamp.S

  val name : string

  val reads_heads : bool
  (** Whether an unlocked step of [find] follows the edge's labeled head
      (vCAS, helping) instead of its raw link (Bundling).  A vCAS find on
      raw links fails either way round: a snapshot can help label a
      pending head and finish before the raw link is written, so a later
      [contains] misses the key; with the raw link first, a helper labels
      after the snapshot's label, so the snapshot misses a key an earlier
      [contains] saw.  The flag also decides when the relocation's final
      unlink reaches its head (see [delete_two_children]). *)

  val fresh : 'a -> 'a Chain.version
  (** The head of a new node's edge.  vCAS: labeled now.  Bundling:
      pending, labeled by the update that links the node. *)

  val stamp : unit -> int
  (** Taken once per update before its raw links change.  Bundling
      advances the clock and labels every version the update installs
      with it; vCAS takes none (0) and labels each version by helping. *)

  val label : 'a Chain.version -> int -> unit
  (** Label a just-installed version of the update with its stamp (vCAS:
      publish it, helping if needed). *)

  val value_at : 'a Chain.version -> int -> 'a
  (** The value at a snapshot label (vCAS helps, Bundling waits). *)

  val snap_label : unit -> int
  (** vCAS: the snapshot advances the clock.  Bundling: a plain read. *)

  val prune_from : 'a Chain.version -> int -> unit
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (L : LABELING) = struct
  (* A [Node]'s inline record is its block, and an absent child is [Nil],
     as in citrus_ebrrq.ml.  [left] (field 1), [right] (2), [lock] (3)
     and the heads [hleft] (5) and [hright] (6) are written only through
     {!Field_lock}, so the field order matters.  Under a node's lock a
     raw link and its head's value agree; locked validation reads the
     raw links, snapshots the heads. *)
  type node =
    | Nil
    | Node of {
        key : int;
        mutable left : node; (* raw links *)
        mutable right : node;
        mutable lock : bool;
        mutable marked : bool;
        mutable hleft : node Chain.version; (* versioned links *)
        mutable hright : node Chain.version;
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

  let name = L.name

  let make_node key l r =
    Node
      {
        key;
        left = l;
        right = r;
        lock = false;
        marked = false;
        hleft = L.fresh l;
        hright = L.fresh r;
      }

  (* Label a fresh node's heads with the update's stamp, before the node
     is reachable, so no neighbour can prepare on a pending head. *)
  let seal node ts =
    match node with
    | Node n ->
      L.label n.hleft ts;
      L.label n.hright ts
    | Nil -> ()

  (* The root's heads are labeled at creation: a creation label only
     needs to predate the first snapshot that reads it. *)
  let create () =
    let root = make_node Dstruct.Ordered_set.min_key Nil Nil in
    seal root (L.T.read_floor ());
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

  (* the head of the versioned link from [n] toward [d]; [n] is never
     [Nil] *)
  let head n d =
    match n with
    | Node n -> ( match d with L -> n.hleft | R -> n.hright)
    | Nil -> invalid_arg "Citrus_core.head: Nil"

  (* One unlocked step of [find] from [n] toward [d]; at label [max_int]
     every version qualifies, so a head is read at its newest. *)
  let step n d =
    if L.reads_heads then L.value_at (head n d) max_int else child n d

  (* Push a pending version for [target] onto the link from [n] toward
     [d]; the caller holds [n]'s lock and labels the version. *)
  let prepare n d target =
    let was = head n d in
    assert (Chain.label was <> 0);
    let version = Chain.successor was target in
    F.install n (match d with L -> 5 | R -> 6) ~was version;
    version

  let dir_of n key = if key < key_of n then L else R

  let find root key =
    let rec walk prev d n =
      match n with
      | Node m when m.key <> key ->
        let d' = if key < m.key then L else R in
        walk n d' (step n d')
      | Node _ | Nil -> (prev, d, n)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk root R (step root R) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let traverse t key = Grace.with_read t.grace (fun () -> find t.root key)

  let contains t key =
    let _, _, found = traverse t key in
    found != Nil

  (* History pruning under the announce-then-read rule; the floor comes
     from the lazily refreshed registry cache. *)
  let prune t version =
    L.prune_from version
      (Rq_registry.min_active_cached t.registry ~default:(Chain.label version))

  (* One labeled write by the holder of [n]'s lock of the link toward [d],
     which it read as [was]: the stamp is taken before the raw link (the
     commit point unlocked traversals observe), so once a traversal can
     see the change, every later snapshot label covers it. *)
  let write t n d ~was v =
    let version = prepare n d v in
    let ts = L.stamp () in
    set_child n d ~was v;
    L.label version ts;
    prune t version

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
        (* [write], with the fresh node sealed before it is reachable *)
        let node = make_node key Nil Nil in
        let link = prepare prev d node in
        let ts = L.stamp () in
        seal node ts;
        set_child prev d ~was:Nil node;
        L.label link ts;
        prune t link;
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
    write t prev d ~was:curr repl;
    mark curr;
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
      (* Where finds follow raw links, the final unlink's head joins the
         relocation's one stamp, so the whole relocation is a single
         atomic step for snapshots.  Where finds follow heads, the head
         is a find's path too, and moves after the grace wait below as a
         write of its own. *)
      let early = (not direct) && not L.reads_heads in
      let link = prepare prev d replacement in
      if early then ignore (prepare succ_prev L succ_right);
      let ts = L.stamp () in
      seal replacement ts;
      set_child prev d ~was:curr replacement;
      mark curr;
      mark succ;
      L.label link ts;
      if early then L.label (head succ_prev L) ts;
      prune t link;
      if not direct then begin
        (* Unlocked traversals may still be en route to the original
           successor through the old links: drain them before unlinking. *)
        Grace.wait_until_quiescent t.grace;
        if early then set_child succ_prev L ~was:succ succ_right
        else write t succ_prev L ~was:succ succ_right
      end;
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      true
    end

  (* Snapshot handle: the announce-slot guard keeps pruning below the
     captured label for the handle's lifetime.  Reads at the held label
     need no grace section: these trees never retire nodes (GC keeps
     spliced subtrees alive). *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:L.T.read_floor ~label:L.snap_label

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  (* Range read at a snapshot label.  In-order traversal fills the
     per-domain buffer ascending.  Under vCAS the relocation is two
     versioned writes, so a snapshot between them meets the relocated key
     twice; [to_sorted_array] drops the duplicate, and costs nothing over
     [to_array] on an ascending buffer. *)
  let collect_at t s ~lo ~hi =
    let ts = snap_label s in
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk = function
      | Nil -> ()
      | Node n ->
        if lo < n.key then walk (L.value_at n.hleft ts);
        if n.key >= lo && n.key <= hi then
          Sync.Scratch.Int_buffer.push buf n.key;
        if hi > n.key then walk (L.value_at n.hright ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk (L.value_at (head t.root R) ts);
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_sorted_array buf

  (* Point read at the held label: directed descent through the
     versioned links at [ts]. *)
  let lookup_at t s key =
    let ts = snap_label s in
    let rec walk = function
      | Nil -> false
      | Node m as n ->
        m.key = key || walk (L.value_at (head n (dir_of n key)) ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk (L.value_at (head t.root R) ts) in
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
end
