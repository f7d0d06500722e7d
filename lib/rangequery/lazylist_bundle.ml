module Core (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  (* A node is one block, the inline record of [Node], and the list end
     is the immediate [Nil], as in the Citrus trees: a raw traversal step
     is one load of [next].  On a list whose every operation is an O(n)
     pointer chase, that constant factor — and keeping bundle
     dereferences off the raw search path below — is the whole game.
     [next] (field 1), [lock] (2), [marked] (3) and [b] (4) are written
     only through {!Field_lock}, so the field order matters. *)
  type node =
    | Nil
    | Node of {
        key : int;
        mutable next : node; (* raw link; Nil = list end *)
        mutable lock : bool;
        mutable marked : bool;
        mutable b : node B.entry; (* bundled link *)
      }

  module F = Field_lock.Make (struct
    type t = node

    let lock_field = 2
    let locked = function Node n -> n.lock | Nil -> false
  end)

  type t = { head : node; registry : Rq_registry.t }

  let name = "bundle-lazylist(" ^ T.name ^ ")"

  let make_node key next b = Node { key; next; lock = false; marked = false; b }

  let create () =
    {
      head = make_node Dstruct.Ordered_set.min_key Nil (B.first Nil);
      registry = Rq_registry.create ();
    }

  let node_key = function Nil -> max_int | Node n -> n.key

  (* [search t key] returns [(pred, curr)] with
     [node_key pred < key <= node_key curr]; [pred] is always a [Node]. *)
  let search t key =
    let rec walk pred =
      match pred with
      | Nil -> assert false
      | Node p -> (
        let curr = p.next in
        match curr with
        | Node c when c.key < key -> walk curr
        | _ -> (pred, curr))
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk t.head in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let validate pred curr =
    match pred with
    | Nil -> assert false
    | Node p ->
      (not p.marked)
      && (match curr with Node c -> not c.marked | Nil -> true)
      && p.next == curr

  let prune_with t entry ts =
    B.prune_from entry (Rq_registry.min_active_cached t.registry ~default:ts)

  (* Push a pending entry for [target] onto [pred]'s bundle; the caller
     holds [pred]'s lock and labels the entry. *)
  let prepare pred target =
    match pred with
    | Nil -> assert false
    | Node p ->
      let was = p.b in
      let entry = B.successor was target in
      F.install pred 4 ~was entry;
      entry

  let rec insert t key =
    assert (
      key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let pred, curr = search t key in
    F.lock pred;
    if not (validate pred curr) then begin
      F.unlock pred;
      insert t key
    end
    else begin
      let result =
        if node_key curr = key then false
        else begin
          let nb = B.pending curr in
          let node = make_node key curr nb in
          let link = prepare pred node in
          (* timestamp before the raw link (the point-op commit), and
             the new node's own bundle labeled before the node is
             reachable: a neighbour that locks it right after linking
             must never find a pending bundle to prepare on *)
          let ts = T.advance () in
          B.label nb ts;
          F.link pred 1 ~was:curr node;
          B.label link ts;
          prune_with t link ts;
          true
        end
      in
      F.unlock pred;
      result
    end

  let rec delete t key =
    let pred, curr = search t key in
    match curr with
    | Nil -> false
    | Node c when c.key <> key -> false
    | Node c ->
      F.lock pred;
      F.lock curr;
      (* [curr] (not a rebuilt node) keeps the physical equality the
         validation relies on *)
      if not (validate pred curr) then begin
        F.unlock curr;
        F.unlock pred;
        delete t key
      end
      else begin
        let after = c.next in
        let link = prepare pred after in
        (* timestamp first, then mark: once a contains can observe the
           deletion, every later snapshot timestamp covers it *)
        let ts = T.advance () in
        F.set curr 3;
        F.link pred 1 ~was:curr after;
        B.label link ts;
        prune_with t link ts;
        F.unlock curr;
        F.unlock pred;
        true
      end

  (* Direct walk rather than [search]: the 80%-contains mix pays for the
     (pred, curr) tuple [search] allocates on every call, and contains
     needs no predecessor. *)
  let contains t key =
    let rec walk n =
      match n with
      | Nil -> false
      | Node c ->
        if c.key < key then walk c.next else c.key = key && not c.marked
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r =
      match t.head with Nil -> false | Node h -> walk h.next
    in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let buf_scratch : Sync.Scratch.Int_buffer.t Sync.Scratch.t =
    Sync.Scratch.make (fun () -> Sync.Scratch.Int_buffer.create ())

  (* Raw-walk to a predecessor of [lo] (the same cheap next-pointer chase
     [contains] does), then switch to bundle reads at [ts] for the
     [lo, hi] window — rather than walking the *entire* list through
     bundle dereferences (roughly 3x the cost per node and O(list
     length) of them per query).

     Soundness of the entry point: an unmarked [pred] whose bundle holds
     an entry labeled <= [ts] was in the list at the snapshot time;
     since [pred.key < lo], every snapshot member in [lo, hi] lies on
     its bundled successor chain.  A marked predecessor — or one whose
     bundle carries no entry labeled <= [ts] (it postdates the snapshot,
     or its insert label is still pending) — falls back to the head,
     whose bundle covers all history.  This also makes the seek safe to
     run any time after the clock read, which a long-held snapshot
     handle relies on. *)
  let start_at t key ts =
    match search t key with
    | (Node p as pred), _ when (not p.marked) && B.exists_at p.b ts -> pred
    | _ -> t.head

  let collect_ts t ts ~lo ~hi =
    let start = start_at t lo ts in
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk n =
      match n with
      | Nil -> ()
      | Node r -> (
        match B.value_at r.b ts with
        | Nil -> ()
        | Node m as succ ->
          if m.key <= hi then begin
            if m.key >= lo then Sync.Scratch.Int_buffer.push buf m.key;
            walk succ
          end)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk start;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_array buf

  (* Snapshot handle: the announce-slot guard keeps bundle pruning below
     the captured label for the handle's lifetime.  Bundles never advance
     the clock for reads, so the label is a plain [T.read]. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.read

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: raw-seek a predecessor (validated
     against the snapshot exactly like [collect_ts], else fall back to
     the head) and chase bundled links — membership at [ts] is exactly
     appearing on the bundled successor chain at [ts]. *)
  let lookup_at t sn key =
    let ts = snap_label sn in
    let start = start_at t key ts in
    let rec walk n =
      match n with
      | Nil -> false
      | Node r -> (
        match B.value_at r.b ts with
        | Nil -> false
        | Node m as succ ->
          if m.key > key then false else m.key = key || walk succ)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc n =
      match n with
      | Nil -> List.rev acc
      | Node r ->
        let acc = if r.marked then acc else r.key :: acc in
        walk acc r.next
    in
    match t.head with Nil -> [] | Node h -> walk [] h.next

  let size t = List.length (to_list t)
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
