module Core (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  (* Nodes are a variant with an inline record: [Atomic.get next] yields
     the successor block directly (or the immediate [Nil]), so a traversal
     step costs two dependent loads where the previous
     [node option Atomic.t] layout paid three (atomic box -> option box ->
     node).  On a list whose every operation is an O(n) pointer chase,
     that constant factor — and keeping bundle dereferences off the raw
     search path below — is the whole game. *)
  type node =
    | Nil
    | Node of {
        key : int;
        next : node Atomic.t; (* raw link; Nil = list end *)
        b : node B.t; (* bundled link *)
        lock : Sync.Spinlock.t;
        marked : bool Atomic.t;
      }

  type t = { head : node; registry : Rq_registry.t }

  let name = "bundle-lazylist(" ^ T.name ^ ")"

  let make_node key next b =
    Node
      {
        key;
        next = Atomic.make next;
        b;
        lock = Sync.Spinlock.make ();
        marked = Atomic.make false;
      }

  let create () =
    {
      head = make_node Dstruct.Ordered_set.min_key Nil (B.make Nil);
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
        let curr = Atomic.get p.next in
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
      (not (Atomic.get p.marked))
      && (match curr with Node c -> not (Atomic.get c.marked) | Nil -> true)
      && Atomic.get p.next == curr

  let prune_with t bundle ts =
    B.prune bundle (Rq_registry.min_active_cached t.registry ~default:ts)

  let rec insert t key =
    assert (
      key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let pred, curr = search t key in
    match pred with
    | Nil -> assert false
    | Node p ->
      Sync.Spinlock.lock p.lock;
      if not (validate pred curr) then begin
        Sync.Spinlock.unlock p.lock;
        insert t key
      end
      else begin
        let result =
          if node_key curr = key then false
          else begin
            let nb = B.make_pending curr in
            let node = make_node key curr nb in
            B.prepare p.b node;
            (* timestamp before the raw link (the point-op commit), and
               the new node's own bundle labeled before the node is
               reachable: a neighbour that locks it right after linking
               must never find a pending bundle to prepare on *)
            let ts = T.advance () in
            B.label nb ts;
            Atomic.set p.next node;
            B.label p.b ts;
            prune_with t p.b ts;
            true
          end
        in
        Sync.Spinlock.unlock p.lock;
        result
      end

  let rec delete t key =
    let pred, curr = search t key in
    match curr with
    | Nil -> false
    | Node c when c.key <> key -> false
    | Node c -> (
      match pred with
      | Nil -> assert false
      | Node p ->
        Sync.Spinlock.lock p.lock;
        Sync.Spinlock.lock c.lock;
        (* [curr] (not a rebuilt node) keeps the physical equality the
           validation relies on *)
        if not (validate pred curr) then begin
          Sync.Spinlock.unlock c.lock;
          Sync.Spinlock.unlock p.lock;
          delete t key
        end
        else begin
          let after = Atomic.get c.next in
          B.prepare p.b after;
          (* timestamp first, then mark: once a contains can observe the
             deletion, every later snapshot timestamp covers it *)
          let ts = T.advance () in
          Atomic.set c.marked true;
          Atomic.set p.next after;
          B.label p.b ts;
          prune_with t p.b ts;
          Sync.Spinlock.unlock c.lock;
          Sync.Spinlock.unlock p.lock;
          true
        end)

  (* Direct walk rather than [search]: the 80%-contains mix pays for the
     (pred, curr) tuple [search] allocates on every call, and contains
     needs no predecessor. *)
  let contains t key =
    let rec walk n =
      match n with
      | Nil -> false
      | Node c ->
        if c.key < key then walk (Atomic.get c.next)
        else c.key = key && not (Atomic.get c.marked)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r =
      match t.head with Nil -> false | Node h -> walk (Atomic.get h.next)
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
  let collect_ts t ts ~lo ~hi =
    let pred, _ = search t lo in
    let start =
      match pred with
      | Nil -> t.head
      | Node p ->
        if Atomic.get p.marked then t.head
        else (
          match B.read_at_opt p.b ts with
          | Some _ -> pred
          | None -> t.head)
    in
    let buf = Sync.Scratch.get buf_scratch in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk n =
      match n with
      | Nil -> ()
      | Node r -> (
        match B.read_at r.b ts with
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
    Sync.Scratch.Int_buffer.to_list buf

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
    let pred, _ = search t key in
    let start =
      match pred with
      | Nil -> t.head
      | Node p ->
        if Atomic.get p.marked then t.head
        else (
          match B.read_at_opt p.b ts with
          | Some _ -> pred
          | None -> t.head)
    in
    let rec walk n =
      match n with
      | Nil -> false
      | Node r -> (
        match B.read_at r.b ts with
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
        let acc = if Atomic.get r.marked then acc else r.key :: acc in
        walk acc (Atomic.get r.next)
    in
    match t.head with Nil -> [] | Node h -> walk [] (Atomic.get h.next)

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
