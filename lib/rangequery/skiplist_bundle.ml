let max_level = Dstruct.Skip_level.max_level

module Core (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  type node = {
    key : int;
    next : node Atomic.t array; (* raw links, all levels; [||] for tail *)
    b0 : node option B.t; (* bundled level-0 link; None = list end *)
    lock : Sync.Spinlock.t;
    marked : bool Atomic.t;
    fully_linked : bool Atomic.t;
    top_level : int;
  }

  type t = { head : node; registry : Rq_registry.t }

  let name = "bundle-skiplist(" ^ T.name ^ ")"

  let make_node key top_level next_init b0 =
    {
      key;
      next = Array.init (top_level + 1) (fun _ -> Atomic.make next_init);
      b0;
      lock = Sync.Spinlock.make ();
      marked = Atomic.make false;
      fully_linked = Atomic.make false;
      top_level;
    }

  let create () =
    let tail =
      {
        key = max_int;
        next = [||];
        b0 = B.make None;
        lock = Sync.Spinlock.make ();
        marked = Atomic.make false;
        fully_linked = Atomic.make true;
        top_level = max_level;
      }
    in
    let head = make_node Dstruct.Ordered_set.min_key max_level tail (B.make (Some tail)) in
    Atomic.set head.fully_linked true;
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
      let curr = ref (Atomic.get !pred.next.(level)) in
      while !curr.key < key do
        pred := !curr;
        curr := Atomic.get !curr.next.(level)
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
    while not (Atomic.get n.fully_linked) do
      Tsc.cpu_relax ()
    done

  let contains t key =
    let { preds; succs; _ } = get_scratch t in
    let lfound = find t key preds succs in
    lfound <> -1
    &&
    let n = succs.(lfound) in
    (not (Atomic.get n.marked))
    && begin
         await_linked n;
         not (Atomic.get n.marked)
       end

  let t_null =
    {
      key = min_int;
      next = [||];
      b0 = B.make None;
      lock = Sync.Spinlock.make ();
      marked = Atomic.make false;
      fully_linked = Atomic.make false;
      top_level = 0;
    }

  let with_locked_preds preds succs top ~validate_succ f =
    let rec lock_from level last =
      if level <= top then begin
        let pred = preds.(level) in
        if pred != last then Sync.Spinlock.lock pred.lock;
        lock_from (level + 1) pred
      end
    in
    let rec unlock_from level last =
      if level <= top then begin
        let pred = preds.(level) in
        if pred != last then Sync.Spinlock.unlock pred.lock;
        unlock_from (level + 1) pred
      end
    in
    lock_from 0 t_null;
    let valid =
      let ok = ref true in
      for level = 0 to top do
        let pred = preds.(level) and succ = succs.(level) in
        (* a pred that is not fully linked yet has a pending level-0
           bundle: preparing on it would collide with its inserter's
           in-flight label, so treat it like a marked node and retry *)
        if
          Atomic.get pred.marked
          || (not (Atomic.get pred.fully_linked))
          || (validate_succ && Atomic.get succ.marked)
          || Atomic.get pred.next.(level) != succ
        then ok := false
      done;
      !ok
    in
    let result = f valid in
    unlock_from 0 t_null;
    result

  let prune_with t bundle ts =
    B.prune bundle (Rq_registry.min_active_cached t.registry ~default:ts)

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let top = random_level () in
    let { preds; succs; _ } = get_scratch t in
    let lfound = find t key preds succs in
    if lfound <> -1 then begin
      let found = succs.(lfound) in
      if not (Atomic.get found.marked) then begin
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
                make_node key top t.head (B.make_pending (Some succs.(0)))
              in
              for level = 0 to top do
                Atomic.set node.next.(level) succs.(level)
              done;
              let link = preds.(0).b0 in
              B.prepare link (Some node);
              (* the timestamp must exist before the node becomes raw-
                 visible: a clock read that happens after any traversal
                 can observe the insert then yields ts >= this label, so
                 point ops and snapshots agree on the order *)
              let ts = T.advance () in
              for level = 0 to top do
                Atomic.set preds.(level).next.(level) node
              done;
              B.label link ts;
              B.label node.b0 ts;
              prune_with t link ts;
              (* fault injection: labeled and linked, not yet fully
                 linked — point ops must wait, not answer "absent" *)
              Sync.Pause.point ();
              Atomic.set node.fully_linked true;
              `Added
            end)
      in
      match outcome with `Added -> true | `Retry -> insert t key

  let ok_to_delete node lfound =
    Atomic.get node.fully_linked
    && node.top_level = lfound
    && not (Atomic.get node.marked)

  let delete t key =
    let { preds; succs; _ } = get_scratch t in
    let rec attempt victim =
      let lfound = find t key preds succs in
      let victim =
        match victim with
        | Some _ -> victim
        | None ->
          let lfound =
            if lfound <> -1 && not (Atomic.get succs.(lfound).fully_linked)
            then begin
              await_linked succs.(lfound);
              find t key preds succs
            end
            else lfound
          in
          if lfound <> -1 && ok_to_delete succs.(lfound) lfound then begin
            let v = succs.(lfound) in
            Sync.Spinlock.lock v.lock;
            if Atomic.get v.marked then begin
              Sync.Spinlock.unlock v.lock;
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
        let outcome =
          with_locked_preds preds succs v.top_level ~validate_succ:false
            (fun valid ->
              if not valid then `Retry
              else begin
                let still = ref true in
                for level = 0 to v.top_level do
                  if Atomic.get preds.(level).next.(level) != v then
                    still := false
                done;
                if not !still then `Retry
                else begin
                  let link = preds.(0).b0 in
                  B.prepare link (Some (Atomic.get v.next.(0)));
                  (* timestamp first, then mark: a contains that observes
                     the deletion can only do so after the label exists,
                     so no snapshot taken later can predate the delete *)
                  let ts = T.advance () in
                  Atomic.set v.marked true;
                  for level = v.top_level downto 0 do
                    Atomic.set preds.(level).next.(level)
                      (Atomic.get v.next.(level))
                  done;
                  B.label link ts;
                  prune_with t link ts;
                  `Done
                end
              end)
        in
        (match outcome with
        | `Done ->
          Sync.Spinlock.unlock v.lock;
          true
        | `Retry -> attempt (Some v))
    in
    attempt None

  (* Range query: locate a predecessor of [lo] through the raw levels, fall
     back to the head if that node postdates the snapshot, then walk the
     level-0 bundles at the snapshot time. *)
  let collect_ts t ts ~lo ~hi =
    let sc = get_scratch t in
    ignore (find t lo sc.preds sc.succs);
    let start =
      match B.read_at_opt sc.preds.(0).b0 ts with
      | Some _ -> sc.preds.(0)
      | None -> t.head (* the predecessor did not exist at [ts] *)
    in
    let buf = sc.buf in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk n =
      match B.read_at n.b0 ts with
      | None -> ()
      | Some m ->
        if m.key <= hi then begin
          if m.key >= lo then Sync.Scratch.Int_buffer.push buf m.key;
          walk m
        end
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk start;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_list buf

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
    let sc = get_scratch t in
    ignore (find t key sc.preds sc.succs);
    let start =
      match B.read_at_opt sc.preds.(0).b0 ts with
      | Some _ -> sc.preds.(0)
      | None -> t.head
    in
    let rec walk n =
      match B.read_at n.b0 ts with
      | None -> false
      | Some m -> if m.key > key then false else m.key = key || walk m
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
            && (not (Atomic.get n.marked))
            && Atomic.get n.fully_linked
          then n.key :: acc
          else acc
        in
        walk acc (Atomic.get n.next.(0))
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
