module Core (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  (* One block per key.  A [Node]'s inline record is its block, and an
     absent child is [Nil], which is no block at all.  [left] (field 1),
     [right] (2) and [lock] (3) are written only through {!Field_lock}, so
     the field order matters.  A node is allocated inside the labeled
     section that links it, so its [itime] is immutable; [dtime] is a
     plain field (see [covers]). *)
  type node =
    | Nil
    | Node of {
        key : int;
        mutable left : node;
        mutable right : node;
        mutable lock : bool;
        mutable marked : bool;
        itime : int;
        mutable dtime : int; (* 0 = alive *)
        mutable poisoned : bool; (* set by the reclaimer when freed *)
      }

  module F = Field_lock.Make (struct
    type t = node

    let lock_field = 3
    let locked = function Node n -> n.lock | Nil -> false
  end)

  module Reclaim = R.Make (struct
    type t = node
  end)

  (* One backend instance serves both roles: read sections protect
     unlocked traversals (and the two-children delete's grace wait), op
     sections pin limbo for RQ recovery. *)
  type t = {
    root : node;
    ebr : Reclaim.t;
    ts_lock : Sync.Rwlock.t; (* the EBR-RQ timestamp lock *)
  }

  let name = "ebrrq-citrus(" ^ T.name ^ ")"

  let make_node key itime left right =
    Node
      {
        key;
        left;
        right;
        lock = false;
        marked = false;
        itime;
        dtime = 0;
        poisoned = false;
      }

  let create () =
    {
      root = make_node Dstruct.Ordered_set.min_key 1 Nil Nil;
      ebr =
        Reclaim.create
          ~on_free:(function Node n -> n.poisoned <- true | Nil -> ())
          ();
      ts_lock = Sync.Rwlock.make ();
    }

  type dir = L | R

  let key_of = function Node n -> n.key | Nil -> max_int
  let marked = function Node n -> n.marked | Nil -> false
  let mark = function Node n -> n.marked <- true | Nil -> ()
  let set_dtime n ts = match n with Node n -> n.dtime <- ts | Nil -> ()

  let child n d =
    match n with
    | Node n -> ( match d with L -> n.left | R -> n.right)
    | Nil -> Nil

  let set_child n d ~was v = F.link n (match d with L -> 1 | R -> 2) ~was v
  let dir_of n k = if k < key_of n then L else R

  (* [(prev, d, n)]: [n] is [prev]'s [d] child and holds [key], or is
     [Nil] where [key] would be attached. *)
  let find root k =
    let rec walk prev d n =
      match n with
      | Node m when m.key <> k ->
        let d' = if k < m.key then L else R in
        walk n d' (child n d')
      | Node _ | Nil -> (prev, d, n)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk root R (child root R) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let traverse t key = Reclaim.with_read t.ebr (fun () -> find t.root key)

  let contains t key =
    Reclaim.with_op t.ebr (fun () ->
        let _, _, found = traverse t key in
        found != Nil)

  (* Fresh re-walk under [prev]'s lock: a successor relocation re-keys a
     position, so a slot from an earlier unlocked traversal can be
     unmarked and empty yet off [key]'s current search path (the final
     [succ_prev.left := succ_right] restores the observed [Nil]); an
     attach there would be shadowed and the key lost.  See the matching
     comment in citrus_core.ml for the full argument. *)
  let confirm t prev d key =
    let p', d', n = find t.root key in
    n == Nil && p' == prev && d' = d

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    Reclaim.with_op t.ebr (fun () -> insert_locked t key)

  and insert_locked t key =
    let prev, d, found = traverse t key in
    if found != Nil then false
    else begin
      F.lock prev;
      let valid =
        (not (marked prev)) && child prev d == Nil && confirm t prev d key
      in
      if valid then begin
        (* Atomic read-and-label: shared mode on the timestamp lock. *)
        Sync.Rwlock.with_read t.ts_lock (fun () ->
            set_child prev d ~was:Nil (make_node key (T.read ()) Nil Nil));
        F.unlock prev;
        true
      end
      else begin
        F.unlock prev;
        insert_locked t key
      end
    end

  let leftmost parent0 start =
    let rec walk sprev s =
      match child s L with Nil -> (sprev, s) | nl -> walk s nl
    in
    walk parent0 start

  let rec delete t key = Reclaim.with_op t.ebr (fun () -> delete_locked t key)

  and delete_locked t key =
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
        delete_locked t key
      end
      else
        let l = child curr L and r = child curr R in
        if l == Nil then splice_out t prev d curr r
        else if r == Nil then splice_out t prev d curr l
        else delete_two_children t key prev d curr l r
    end

  (* Retire before unlinking, inside the labeled section.  A scan that
     walks the tree after the unlink folds limbo after it too, so it finds
     the node there; retiring after the unlink would leave a window in
     which the node is in neither, and a scan whose label predates the
     delete would lose the key.  Early retirement cannot free a node a reader
     still covers: under EBR this domain's open op section holds the
     epoch back until after the unlink, and under QSBR a domain that
     quiesces after the retirement takes its next label after this
     section — at or above [dtime] — so the node no longer covers it. *)
  and splice_out t prev d curr repl =
    Sync.Rwlock.with_read t.ts_lock (fun () ->
        Reclaim.retire t.ebr curr;
        set_dtime curr (T.read ());
        set_child prev d ~was:curr repl);
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
      delete_locked t key
    end
    else begin
      let succ_right = child succ R in
      let direct = succ_prev == curr in
      (* One shared-mode section labels the delete of [curr], the
         relocation of [succ] and the birth of its replacement with one
         timestamp, so snapshots see the whole step or none of it.  Both
         are retired first, as in [splice_out]. *)
      Sync.Rwlock.with_read t.ts_lock (fun () ->
          Reclaim.retire t.ebr curr;
          Reclaim.retire t.ebr succ;
          let now = T.read () in
          let replacement =
            make_node (key_of succ) now l (if direct then succ_right else r)
          in
          set_dtime curr now;
          set_dtime succ now;
          set_child prev d ~was:curr replacement);
      mark curr;
      mark succ;
      if not direct then begin
        Reclaim.wait_until_quiescent t.ebr;
        set_child succ_prev L ~was:succ succ_right
      end;
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      true
    end

  (* A key is in the snapshot iff some node holding it was inserted at or
     before [ts] and not deleted at or before [ts].  [dtime] is read
     without a fence: a snapshot takes [ts_lock] exclusively, so every
     labeled section that completed before it happens-before the scan,
     and a section that starts later writes a [dtime] above [ts] — read
     as 0 or as that value, the node covers [ts] either way. *)
  let covers ts = function
    | Node n ->
      let covered = n.itime <= ts && (n.dtime = 0 || n.dtime > ts) in
      if covered && n.poisoned then
        Hwts_reclaim.Debug.poison_hit "citrus node covered after free";
      covered
    | Nil -> false

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  let collect_ts t ts ~lo ~hi =
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let visit n =
      let k = key_of n in
      if k >= lo && k <= hi && covers ts n then
        Sync.Scratch.Int_buffer.push buf k
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    Reclaim.with_read t.ebr (fun () ->
        let rec walk = function
          | Nil -> ()
          | Node m as n ->
            if lo < m.key then walk m.left;
            if m.key > Dstruct.Ordered_set.min_key then visit n;
            if hi > m.key then walk m.right
        in
        walk (child t.root R));
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    (* Recently deleted nodes may already be unlinked: recover them
       from the limbo lists, as EBR-RQ does. *)
    Reclaim.fold_limbo t.ebr ~init:() ~f:(fun () n -> visit n);
    Sync.Scratch.Int_buffer.to_sorted_array buf

  (* Snapshot handle: a non-scoped op section pins the limbo lists for
     the handle's whole lifetime (the EBR-RQ form of history retention),
     and the label is taken under the exclusive timestamp lock, so it
     cannot interleave with any update's read-and-label section.  Acquire
     and release from the same domain, and release promptly: an open
     handle delays every grace period. *)
  type snap = { s_label : int; mutable s_live : bool }

  let snapshot t =
    Reclaim.enter t.ebr;
    match Sync.Rwlock.with_write t.ts_lock (fun () -> T.snapshot ()) with
    | label -> { s_label = label; s_live = true }
    | exception e ->
      Reclaim.exit t.ebr;
      raise e

  let snap_label s = s.s_label

  let snap_release t s =
    if s.s_live then begin
      s.s_live <- false;
      Reclaim.exit t.ebr
    end

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: descend the current tree by key — on
     an equal key that does not cover [ts] keep descending right, where a
     relocation may have left the original node still linked — then scan
     limbo for just-unlinked nodes, as [collect_ts] does. *)
  let lookup_at t sn k =
    let ts = snap_label sn in
    let holds n = key_of n = k && covers ts n in
    let in_tree =
      Reclaim.with_read t.ebr (fun () ->
          let rec walk n =
            n != Nil && (holds n || walk (child n (dir_of n k)))
          in
          walk (child t.root R))
    in
    in_tree
    || Reclaim.fold_limbo t.ebr ~init:false ~f:(fun acc n -> acc || holds n)

  let to_list t =
    let rec walk acc = function
      | Nil -> acc
      | Node n ->
        let acc = walk acc n.right in
        walk (n.key :: acc) n.left
    in
    walk [] (child t.root R)

  let size t = List.length (to_list t)
  let limbo_size t = Reclaim.limbo_size t.ebr
  let reclaimed t = Reclaim.reclaimed t.ebr
  let quiesce t = Reclaim.quiesce t.ebr
  let offline t = Reclaim.offline t.ebr
end

module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module C = Core (R) (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
