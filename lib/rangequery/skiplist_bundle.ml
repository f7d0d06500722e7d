let max_level = Dstruct.Skip_level.max_level

module Core (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  (* One block per node plus its tower.  [b0] (field 2), [lock] (3),
     [marked] (4) and [fully_linked] (5) are written only through
     {!Field_lock}, so the field order matters; so are the tower's slots,
     once the node is linked. *)
  type node = {
    key : int;
    next : node array; (* raw links, all levels; [||] for tail *)
    mutable b0 : node B.entry; (* bundled level-0 link *)
    mutable lock : bool;
    mutable marked : bool;
    mutable fully_linked : bool;
  }

  let top_level n = Array.length n.next - 1

  module F = Field_lock.Make (struct
    type t = node

    let lock_field = 3
    let locked n = n.lock
  end)

  type t = { head : node; registry : Rq_registry.t }

  let name = "bundle-skiplist(" ^ T.name ^ ")"

  (* The tail ends every level.  Its bundle is never read (every walk
     stops at its key, [max_int]), so it is a one-entry chain that points
     back at the tail, tied to it with [let rec]. *)
  let create () =
    let ts = T.read_floor () in
    let rec tail =
      {
        key = max_int;
        next = [||];
        b0 = end_;
        lock = false;
        marked = false;
        fully_linked = true;
      }
    and end_ = { Chain.ts; v = tail; older = end_ } in
    let head =
      {
        tail with
        key = Dstruct.Ordered_set.min_key;
        next = Array.make (max_level + 1) tail;
        b0 = B.first tail;
      }
    in
    { head; registry = Rq_registry.create () }

  let random_level = Dstruct.Skip_level.random

  type scratch = {
    preds : node array;
    succs : node array;
    buf : Sync.Scratch.Int_buffer.t;
  }
  (* Per-domain traversal workspace: [find] overwrites every level before
     callers read it, so reuse across operations (and instances) is safe. *)

  let scratch_cell : scratch option ref Sync.Scratch.t =
    Sync.Scratch.make (fun () -> ref None)

  let get_scratch t =
    let cell = Sync.Scratch.get scratch_cell in
    match !cell with
    | Some s -> s
    | None ->
      let s =
        {
          preds = Array.make (max_level + 1) t.head;
          succs = Array.make (max_level + 1) t.head;
          buf = Sync.Scratch.Int_buffer.create ();
        }
      in
      cell := Some s;
      s

  let find t key preds succs =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let lfound = ref (-1) in
    let pred = ref t.head in
    for level = max_level downto 0 do
      let curr = ref !pred.next.(level) in
      while !curr.key < key do
        pred := !curr;
        curr := !curr.next.(level)
      done;
      if !lfound = -1 && !curr.key = key then lfound := level;
      preds.(level) <- !pred;
      succs.(level) <- !curr
    done;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    !lfound

  (* An insert labels its bundles before it sets [fully_linked], so a
     snapshot may already hold a linked node that is not yet fully
     linked.  Point ops wait for such a node instead of calling it
     absent, as [insert] does (and as the lazy skip list does). *)
  let await_linked n =
    while not n.fully_linked do
      Tsc.cpu_relax ()
    done

  let contains t key =
    let { preds; succs; _ } = get_scratch t in
    let lfound = find t key preds succs in
    lfound <> -1
    &&
    let n = succs.(lfound) in
    (not n.marked)
    && begin
         await_linked n;
         not n.marked
       end

  (* Lock (unlock) each distinct predecessor of levels 0..[top] once:
     equal predecessors are adjacent. *)
  let with_locked_preds preds succs top ~validate_succ f =
    let rec lock_from level last =
      if level <= top then begin
        let pred = preds.(level) in
        if pred != last then F.lock pred;
        lock_from (level + 1) pred
      end
    in
    let rec unlock_from level last =
      if level <= top then begin
        let pred = preds.(level) in
        if pred != last then F.unlock pred;
        unlock_from (level + 1) pred
      end
    in
    F.lock preds.(0);
    lock_from 1 preds.(0);
    let valid =
      let ok = ref true in
      for level = 0 to top do
        let pred = preds.(level) and succ = succs.(level) in
        (* a pred that is not fully linked yet has a pending level-0
           bundle: preparing on it would collide with its inserter's
           in-flight label, so treat it like a marked node and retry *)
        if
          pred.marked
          || (not pred.fully_linked)
          || (validate_succ && succ.marked)
          || pred.next.(level) != succ
        then ok := false
      done;
      !ok
    in
    let result = f valid in
    F.unlock preds.(0);
    unlock_from 1 preds.(0);
    result

  let prune_with t entry ts =
    B.prune_from entry (Rq_registry.min_active_cached t.registry ~default:ts)

  (* Push a pending entry for [target] onto [n]'s level-0 bundle; the
     caller holds [n]'s lock and labels the entry. *)
  let prepare n target =
    let was = n.b0 in
    let entry = B.successor was target in
    F.install n 2 ~was entry;
    entry

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let top = random_level () in
    let { preds; succs; _ } = get_scratch t in
    let lfound = find t key preds succs in
    if lfound <> -1 then begin
      let found = succs.(lfound) in
      if not found.marked then begin
        await_linked found;
        false
      end
      else insert t key
    end
    else
      let outcome =
        with_locked_preds preds succs top ~validate_succ:true (fun valid ->
            if not valid then `Retry
            else begin
              let node =
                {
                  key;
                  next = Array.sub succs 0 (top + 1);
                  b0 = B.pending succs.(0);
                  lock = false;
                  marked = false;
                  fully_linked = false;
                }
              in
              let link = prepare preds.(0) node in
              (* the timestamp must exist before the node becomes raw-
                 visible: a clock read that happens after any traversal
                 can observe the insert then yields ts >= this label, so
                 point ops and snapshots agree on the order *)
              let ts = T.advance () in
              for level = 0 to top do
                F.link_slot preds.(level).next level ~was:succs.(level) node
              done;
              B.label link ts;
              B.label node.b0 ts;
              prune_with t link ts;
              (* fault injection: labeled and linked, not yet fully
                 linked — point ops must wait, not answer "absent" *)
              Sync.Pause.point ();
              F.set node 5;
              `Added
            end)
      in
      match outcome with `Added -> true | `Retry -> insert t key

  let ok_to_delete node lfound =
    node.fully_linked && top_level node = lfound && not node.marked

  let delete t key =
    let { preds; succs; _ } = get_scratch t in
    let rec attempt victim =
      let lfound = find t key preds succs in
      let victim =
        match victim with
        | Some _ -> victim
        | None ->
          let lfound =
            if lfound <> -1 && not succs.(lfound).fully_linked then begin
              await_linked succs.(lfound);
              find t key preds succs
            end
            else lfound
          in
          if lfound <> -1 && ok_to_delete succs.(lfound) lfound then begin
            let v = succs.(lfound) in
            F.lock v;
            if v.marked then begin
              F.unlock v;
              None
            end
            else
              (* the mark — the point-op commit — is deferred to the
                 unlink step below, after the bundle timestamp exists;
                 holding v.lock keeps competing deleters out meanwhile *)
              Some v
          end
          else None
      in
      match victim with
      | None -> false
      | Some v ->
        let top = top_level v in
        let outcome =
          with_locked_preds preds succs top ~validate_succ:false
            (fun valid ->
              if not valid then `Retry
              else begin
                let still = ref true in
                for level = 0 to top do
                  if preds.(level).next.(level) != v then still := false
                done;
                if not !still then `Retry
                else begin
                  let link = prepare preds.(0) v.next.(0) in
                  (* timestamp first, then mark: a contains that observes
                     the deletion can only do so after the label exists,
                     so no snapshot taken later can predate the delete *)
                  let ts = T.advance () in
                  F.set v 4;
                  for level = top downto 0 do
                    F.link_slot preds.(level).next level ~was:v
                      v.next.(level)
                  done;
                  B.label link ts;
                  prune_with t link ts;
                  `Done
                end
              end)
        in
        (match outcome with
        | `Done ->
          F.unlock v;
          true
        | `Retry -> attempt (Some v))
    in
    attempt None

  (* A raw-found predecessor of [key], or the head if that node postdates
     the snapshot at [ts]. *)
  let start_at t sc key ts =
    ignore (find t key sc.preds sc.succs);
    let pred = sc.preds.(0) in
    if B.exists_at pred.b0 ts then pred else t.head

  (* Range query: locate a predecessor of [lo] through the raw levels,
     then walk the level-0 bundles at the snapshot time.  The walk stops
     at the tail, whose key is above every [hi] it compares with. *)
  let collect_ts t ts ~lo ~hi =
    let sc = get_scratch t in
    let start = start_at t sc lo ts in
    let hi = Int.min hi Dstruct.Ordered_set.max_key in
    let buf = sc.buf in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk n =
      let m = B.value_at n.b0 ts in
      if m.key <= hi then begin
        if m.key >= lo then Sync.Scratch.Int_buffer.push buf m.key;
        walk m
      end
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk start;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_array buf

  (* Snapshot handle: announce-slot guard + plain [T.read] label, as in
     the other bundle structures. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.read

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: raw-find a predecessor (fall back to
     the head when it postdates the snapshot), then chase level-0 bundles
     — membership at [ts] is appearing on the bundled chain at [ts]. *)
  let lookup_at t sn key =
    let ts = snap_label sn in
    let start = start_at t (get_scratch t) key ts in
    let rec walk n =
      let m = B.value_at n.b0 ts in
      if m.key > key then false else m.key = key || walk m
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc n =
      if n.key = max_int then List.rev acc
      else
        let acc =
          if
            n.key > Dstruct.Ordered_set.min_key
            && (not n.marked)
            && n.fully_linked
          then n.key :: acc
          else acc
        in
        walk acc n.next.(0)
    in
    walk [] t.head

  let size t = List.length (to_list t)
  let active_rqs t = Rq_registry.active_count t.registry
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
