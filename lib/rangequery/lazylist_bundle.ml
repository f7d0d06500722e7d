module Core (T : Hwts.Timestamp.S) = struct
  (* A node is one block, the inline record of [Node], and the list end
     is the immediate [Nil], as in the Citrus trees: a raw traversal step
     is one load of [next].  On a list whose every operation is an O(n)
     pointer chase, that constant factor — and keeping bundle
     dereferences off the raw search path below — is the whole game.
     [next] (field 1), [lock] (2), [marked] (3) and [b] (4) are written
     only through {!Field_lock} and {!Link}, so the field order matters.
     [b] is the bundled link: the successor itself once no snapshot can
     need its history, else a [Version], the head of its bundle ({!Link});
     no [next] and no version's value is a [Version]. *)
  type node =
    | Nil
    | Node of {
        key : int;
        mutable next : node; (* raw link; Nil = list end *)
        mutable lock : bool;
        mutable marked : bool;
        mutable b : node; (* bundled link *)
      }
    | Version of { mutable ts : int; v : node; mutable older : node }

  module Versions = struct
    type _ t = node

    let version ts v older = Version { ts; v; older }
    let is_version = function Version _ -> true | Nil | Node _ -> false

    let value = function
      | Version x -> x.v
      | Nil | Node _ -> invalid_arg "Lazylist_bundle.value: not a version"

    let older = function
      | Version x -> x.older
      | Nil | Node _ -> invalid_arg "Lazylist_bundle.older: not a version"

    let set_older n older =
      match n with
      | Version x -> x.older <- older
      | Nil | Node _ -> invalid_arg "Lazylist_bundle.set_older: not a version"
  end

  (* Bundling's labeling (the update labels, readers wait) on the link. *)
  module W = Bundle.Waiting (Link.Cell (Versions))
  module L = Link.Make (Versions) (W)

  module F = Field_lock.Make (struct
    type t = node

    let lock_field = 2
    let locked = function Node n -> n.lock | Nil | Version _ -> false
  end)

  type t = { head : node; registry : Rq_registry.t }

  let name = "bundle-lazylist(" ^ T.name ^ ")"

  let make_node key next b = Node { key; next; lock = false; marked = false; b }

  (* The head's link is bare from the start: the head holds at every
     label. *)
  let create () =
    {
      head = make_node Dstruct.Ordered_set.min_key Nil Nil;
      registry = Rq_registry.create ();
    }

  let node_key = function
    | Nil -> max_int
    | Node n -> n.key
    | Version _ -> invalid_arg "Lazylist_bundle.node_key: a version"

  (* The walks are module-level recursions with explicit arguments: a
     nested [let rec] would allocate a closure on every call. *)
  let rec search_from key pred =
    match pred with
    | Nil | Version _ -> assert false
    | Node p -> (
      let curr = p.next in
      match curr with
      | Node c when c.key < key -> search_from key curr
      | _ -> (pred, curr))

  (* [search t key] returns [(pred, curr)] with
     [node_key pred < key <= node_key curr]; [pred] is always a [Node]. *)
  let search t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = search_from key t.head in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let validate pred curr =
    match pred with
    | Nil | Version _ -> assert false
    | Node p ->
      (not p.marked)
      && (match curr with Node c -> not c.marked | Nil | Version _ -> true)
      && p.next == curr

  (* Push a pending version for [target] onto [pred]'s bundled link; the
     caller holds [pred]'s lock, labels the version and settles it. *)
  let prepare pred target =
    match pred with
    | Nil | Version _ -> assert false
    | Node p ->
      let was = p.b in
      let version = L.successor was target in
      L.install pred 4 ~was version;
      version

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
          let nb = L.pending curr in
          let node = make_node key curr nb in
          let link = prepare pred node in
          (* timestamp before the raw link (the point-op commit), and
             the new node's own link labeled and settled before the node
             is reachable: a neighbour that locks it right after linking
             must never find a pending version to prepare on *)
          let ts = T.advance () in
          W.label nb ts;
          L.settle t.registry node 4 nb;
          F.link pred 1 ~was:curr node;
          W.label link ts;
          L.settle t.registry pred 4 link;
          true
        end
      in
      F.unlock pred;
      result
    end

  let rec delete t key =
    let pred, curr = search t key in
    match curr with
    | Nil | Version _ -> false
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
        W.label link ts;
        L.settle t.registry pred 4 link;
        F.unlock curr;
        F.unlock pred;
        true
      end

  (* Direct walk rather than [search]: the 80%-contains mix would pay for
     the (pred, curr) tuple [search] allocates on every call, and
     contains needs no predecessor. *)
  let rec holds key n =
    match n with
    | Nil | Version _ -> false
    | Node c ->
      if c.key < key then holds key c.next else c.key = key && not c.marked

  let contains t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r =
      match t.head with Nil | Version _ -> false | Node h -> holds key h.next
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

     Soundness of the entry point: an unmarked [pred] whose link holds a
     value at [ts] (bare, or a version labeled <= [ts]) was in the list
     at the snapshot time; since [pred.key < lo], every snapshot member
     in [lo, hi] lies on its bundled successor chain.  A marked
     predecessor — or one whose link holds no value at [ts] (it
     postdates the snapshot, or its insert label is still pending) —
     falls back to the head, whose link covers all history.  This also
     makes the seek safe to run any time after the clock read, which a
     long-held snapshot handle relies on. *)
  let rec pred_from key pred =
    match pred with
    | Node { next = Node c as curr; _ } when c.key < key -> pred_from key curr
    | _ -> pred

  let start_at t key ts =
    match pred_from key t.head with
    | Node p as pred when (not p.marked) && L.exists_at p.b ts -> pred
    | _ -> t.head

  (* The successor a bundled link holds at [ts]: a bare link is its
     value at every label. *)
  let next_at b ts = match b with Version _ -> L.value_at b ts | bare -> bare

  let rec collect_from buf ts lo hi n =
    match n with
    | Nil | Version _ -> ()
    | Node r -> (
      match next_at r.b ts with
      | Nil | Version _ -> ()
      | Node m as succ ->
        if m.key <= hi then begin
          if m.key >= lo then Sync.Scratch.Int_buffer.push buf m.key;
          collect_from buf ts lo hi succ
        end)

  let collect_ts t ts ~lo ~hi =
    let start = start_at t lo ts in
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    collect_from buf ts lo hi start;
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
  let rec member_from ts key n =
    match n with
    | Nil | Version _ -> false
    | Node r -> (
      match next_at r.b ts with
      | Nil | Version _ -> false
      | Node m as succ ->
        if m.key > key then false else m.key = key || member_from ts key succ)

  let lookup_at t sn key =
    let ts = snap_label sn in
    let start = start_at t key ts in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = member_from ts key start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc n =
      match n with
      | Nil | Version _ -> List.rev acc
      | Node r ->
        let acc = if r.marked then acc else r.key :: acc in
        walk acc r.next
    in
    match t.head with Nil | Version _ -> [] | Node h -> walk [] h.next

  let size t = List.length (to_list t)

  (* Bundled links and the values they retain, over the linked nodes. *)
  let version_chain_stats t =
    let rec walk links values = function
      | Nil | Version _ -> (links, values)
      | Node r -> walk (links + 1) (values + L.chain_of r.b) r.next
    in
    walk 0 0 t.head
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
