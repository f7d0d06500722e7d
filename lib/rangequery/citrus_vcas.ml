module Core (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  (* A [Node]'s inline record is its block, and an absent child is [Nil],
     as in citrus_ebrrq.ml.  [lock] (field 3) is taken only through
     {!Field_lock}. *)
  type node =
    | Nil
    | Node of {
        key : int;
        left : node V.t;
        right : node V.t;
        mutable lock : bool;
        mutable marked : bool;
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

  let name = "vcas-citrus(" ^ T.name ^ ")"

  let make_node key l r =
    Node
      { key; left = V.make l; right = V.make r; lock = false; marked = false }

  let create () =
    {
      root = make_node Dstruct.Ordered_set.min_key Nil Nil;
      grace = Grace.create ();
      registry = Rq_registry.create ();
    }

  type dir = L | R

  let key_of = function Node n -> n.key | Nil -> max_int
  let marked = function Node n -> n.marked | Nil -> false
  let mark = function Node n -> n.marked <- true | Nil -> ()

  (* the versioned link from [n] toward [d]; [n] is never [Nil] *)
  let child n d =
    match n with
    | Node n -> ( match d with L -> n.left | R -> n.right)
    | Nil -> invalid_arg "Citrus_vcas.child: Nil"

  let dir_of n key = if key < key_of n then L else R

  let find root key =
    let rec walk prev d n =
      match n with
      | Node m when m.key <> key ->
        let d' = if key < m.key then L else R in
        walk n d' (V.read (child n d'))
      | Node _ | Nil -> (prev, d, n)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk root R (V.read (child root R)) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let traverse t key = Grace.with_read t.grace (fun () -> find t.root key)

  let contains t key =
    let _, _, found = traverse t key in
    found != Nil

  (* versioned write + history pruning under the announce-then-read rule;
     the pruning floor comes from the lazily refreshed registry cache *)
  let write_pruned t cell v =
    let installed = V.write_with cell v in
    V.prune cell
      (Rq_registry.min_active_cached t.registry
         ~default:(V.timestamp installed))

  (* Fresh re-walk under [prev]'s lock: a successor relocation re-keys a
     position, so a slot from an earlier unlocked traversal can be
     unmarked and empty yet off [key]'s current search path (the final
     unlink restores the observed [Nil]); an attach there would be
     shadowed and the key lost.  See the matching comment in
     citrus_bundle.ml for the full argument. *)
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
        (not (marked prev))
        && V.read (child prev d) == Nil
        && confirm t prev d key
      in
      if valid then begin
        write_pruned t (child prev d) (make_node key Nil Nil);
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
      match V.read (child s L) with Nil -> (sprev, s) | nl -> walk s nl
    in
    walk parent0 start

  let rec delete t key =
    let prev, d, curr = traverse t key in
    if curr == Nil then false
    else begin
      F.lock prev;
      F.lock curr;
      let valid =
        (not (marked prev))
        && (not (marked curr))
        && V.read (child prev d) == curr
      in
      if not valid then begin
        F.unlock curr;
        F.unlock prev;
        delete t key
      end
      else
        let l = V.read (child curr L) and r = V.read (child curr R) in
        if l == Nil then splice_out t prev d curr r
        else if r == Nil then splice_out t prev d curr l
        else delete_two_children t key prev d curr l r
    end

  and splice_out t prev d curr repl =
    mark curr;
    write_pruned t (child prev d) repl;
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
      && V.read (child succ L) == Nil
      &&
      if succ_prev == curr then succ == r
      else V.read (child succ_prev L) == succ
    in
    if not valid then begin
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      delete t key
    end
    else begin
      let succ_right = V.read (child succ R) in
      let direct = succ_prev == curr in
      let replacement =
        make_node (key_of succ) l (if direct then succ_right else r)
      in
      mark curr;
      mark succ;
      write_pruned t (child prev d) replacement;
      if not direct then begin
        Grace.wait_until_quiescent t.grace;
        write_pruned t (child succ_prev L) succ_right
      end;
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      true
    end

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  (* vCAS range read at a snapshot label.  The relocation delete is two
     versioned writes, so de-duplicate. *)
  let collect_ts t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk = function
      | Nil -> ()
      | Node n ->
        if lo < n.key then walk (V.read_at n.left ts);
        if n.key >= lo && n.key <= hi then
          Sync.Scratch.Int_buffer.push buf n.key;
        if hi > n.key then walk (V.read_at n.right ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk (V.read_at (child t.root R) ts);
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_sorted_list buf

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
      | Nil -> false
      | Node m as n ->
        m.key = key || walk (V.read_at (child n (dir_of n key)) ts)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk (V.read_at (child t.root R) ts) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc = function
      | Nil -> acc
      | Node n ->
        let acc = walk acc (V.read n.right) in
        walk (n.key :: acc) (V.read n.left)
    in
    walk [] (V.read (child t.root R))

  let size t = List.length (to_list t)
  let quiesce t = Grace.quiesce t.grace
  let offline t = Grace.offline t.grace
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
