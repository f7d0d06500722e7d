let max_level = Dstruct.Skip_level.max_level

module Core (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  type node = {
    key : int;
    bottom : succ V.t array; (* versioned level-0 cell; [||] for the tail *)
    upper : succ Atomic.t array; (* levels 1..top_level, index l-1 *)
    top_level : int;
    linked_at : int Atomic.t; (* label of the bottom-level link; 0 = unknown *)
  }

  and succ = { target : node; marked : bool }

  type t = { head : node; tail : node; registry : Rq_registry.t }

  let name = "vcas-skiplist(" ^ T.name ^ ")"

  let create () =
    let tail =
      {
        key = max_int;
        bottom = [||];
        upper = [||];
        top_level = max_level;
        linked_at = Atomic.make 1;
      }
    in
    let head =
      {
        key = Dstruct.Ordered_set.min_key;
        bottom = [| V.make { target = tail; marked = false } |];
        upper =
          Array.init max_level (fun _ ->
              Atomic.make { target = tail; marked = false });
        top_level = max_level;
        linked_at = Atomic.make 1;
      }
    in
    { head; tail; registry = Rq_registry.create () }

  let next0 n = n.bottom.(0)
  let upper_cell n level = n.upper.(level - 1)

  exception Retry

  type scratch = {
    preds : node array;
    succs : node array;
    wit0 : succ V.version ref; (* level-0 CAS witness: a version *)
    wup : succ array; (* per-level CAS witness above: a raw block *)
    buf : Sync.Scratch.Int_buffer.t;
  }
  (* Per-domain traversal workspace: [find] overwrites every entry it
     publishes before callers read it, so reuse across operations (and
     across instances of this module) is safe. *)

  let scratch_cell : scratch option ref Sync.Scratch.t =
    Sync.Scratch.make (fun () -> ref None)

  let make_scratch t =
    {
      preds = Array.make (max_level + 1) t.head;
      succs = Array.make (max_level + 1) t.tail;
      wit0 = ref (V.head (next0 t.head));
      wup = Array.make (max_level + 1) { target = t.tail; marked = false };
      buf = Sync.Scratch.Int_buffer.create ();
    }

  let get_scratch t =
    let cell = Sync.Scratch.get scratch_cell in
    match !cell with
    | Some s -> s
    | None ->
      let s = make_scratch t in
      cell := Some s;
      s

  (* As in the lock-free skip list, but level 0 goes through the versioned
     cells.  The per-level steps are module-level recursions with explicit
     arguments: nesting them inside [find] would allocate one closure per
     index level on every traversal. *)
  let rec find_upper t key preds succs wup pred level =
    let pblock = Atomic.get (upper_cell !pred level) in
    if pblock.marked then raise_notrace Retry;
    let curr = pblock.target in
    if curr == t.tail then begin
      preds.(level) <- !pred;
      succs.(level) <- curr;
      wup.(level) <- pblock
    end
    else begin
      let cblock = Atomic.get (upper_cell curr level) in
      if cblock.marked then begin
        if
          Atomic.compare_and_set (upper_cell !pred level) pblock
            { target = cblock.target; marked = false }
        then find_upper t key preds succs wup pred level
        else raise_notrace Retry
      end
      else if curr.key < key then begin
        pred := curr;
        find_upper t key preds succs wup pred level
      end
      else begin
        preds.(level) <- !pred;
        succs.(level) <- curr;
        wup.(level) <- pblock
      end
    end

  let rec find_bottom t key preds succs wit0 pred =
    let pver = V.head (next0 !pred) in
    let pblock = V.value pver in
    if pblock.marked then raise_notrace Retry;
    let curr = pblock.target in
    if curr == t.tail then begin
      preds.(0) <- !pred;
      succs.(0) <- curr;
      wit0 := pver
    end
    else begin
      let cblock = V.read (next0 curr) in
      if cblock.marked then begin
        if V.cas (next0 !pred) pver { target = cblock.target; marked = false }
        then find_bottom t key preds succs wit0 pred
        else raise_notrace Retry
      end
      else if curr.key < key then begin
        pred := curr;
        find_bottom t key preds succs wit0 pred
      end
      else begin
        preds.(0) <- !pred;
        succs.(0) <- curr;
        wit0 := pver
      end
    end

  (* Returns whether succs.(0) holds [key]. *)
  let rec find_loop t key ({ preds; succs; wit0; wup; _ } as sc) =
    match
      let pred = ref t.head in
      for level = max_level downto 1 do
        find_upper t key preds succs wup pred level
      done;
      find_bottom t key preds succs wit0 pred;
      succs.(0).key = key
    with
    | result -> result
    | exception Retry -> find_loop t key sc

  (* Span at the non-recursive wrapper so a [Retry] restart extends the
     one traversal span instead of leaking nested ones. *)
  let find t key sc =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = find_loop t key sc in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let prune_with t cell label =
    V.prune cell (Rq_registry.min_active_cached t.registry ~default:label)

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let sc = get_scratch t in
    if find t key sc then false
    else begin
      let succs = sc.succs in
      let top = Dstruct.Skip_level.random () in
      let node =
        {
          key;
          top_level = top;
          bottom = [| V.make { target = succs.(0); marked = false } |];
          upper =
            Array.init top (fun i ->
                Atomic.make { target = succs.(i + 1); marked = false });
          linked_at = Atomic.make 0;
        }
      in
      match
        V.cas_with (next0 sc.preds.(0)) !(sc.wit0) { target = node; marked = false }
      with
      | None -> insert t key
      | Some installed ->
        Atomic.set node.linked_at (V.timestamp installed);
        prune_with t (next0 sc.preds.(0)) (V.timestamp installed);
        link_upper t key node sc 1;
        true
    end

  and link_upper t key node sc level =
    if level <= node.top_level then begin
      let rec link () =
        let cur = Atomic.get (upper_cell node level) in
        if cur.marked then ()
        else if
          cur.target != sc.succs.(level)
          && not
               (Atomic.compare_and_set (upper_cell node level) cur
                  { target = sc.succs.(level); marked = false })
        then link ()
        else if
          Atomic.compare_and_set
            (upper_cell sc.preds.(level) level)
            sc.wup.(level)
            { target = node; marked = false }
        then link_upper t key node sc (level + 1)
        else begin
          ignore (find t key sc);
          if sc.succs.(0) == node then link ()
        end
      in
      link ()
    end

  let delete t key =
    let sc = get_scratch t in
    if not (find t key sc) then false
    else begin
      let victim = sc.succs.(0) in
      for level = victim.top_level downto 1 do
        let rec mark () =
          let s = Atomic.get (upper_cell victim level) in
          if not s.marked then
            if
              not
                (Atomic.compare_and_set (upper_cell victim level) s
                   { s with marked = true })
            then mark ()
        in
        mark ()
      done;
      let rec mark0 () =
        let ver = V.head (next0 victim) in
        let s = V.value ver in
        if s.marked then false
        else
          match V.cas_with (next0 victim) ver { s with marked = true } with
          | Some installed ->
            prune_with t (next0 victim) (V.timestamp installed);
            ignore (find t key sc);
            true
          | None -> mark0 ()
      in
      mark0 ()
    end

  let contains t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let pred = ref t.head in
    (* descend the raw index levels *)
    for level = max_level downto 1 do
      let curr = ref (Atomic.get (upper_cell !pred level)).target in
      let continue_ = ref true in
      while !continue_ do
        let c = !curr in
        if c == t.tail then continue_ := false
        else
          let cblock = Atomic.get (upper_cell c level) in
          if cblock.marked then curr := cblock.target
          else if c.key < key then begin
            pred := c;
            curr := cblock.target
          end
          else continue_ := false
      done
    done;
    (* finish at level 0 through the versioned cells *)
    let found = ref false in
    let curr = ref (V.read (next0 !pred)).target in
    let continue_ = ref true in
    while !continue_ do
      let c = !curr in
      if c == t.tail then continue_ := false
      else
        let cblock = V.read (next0 c) in
        if cblock.marked then curr := cblock.target
        else if c.key < key then curr := cblock.target
        else begin
          found := c.key = key;
          continue_ := false
        end
    done;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    !found

  (* vCAS range read: walk level 0 at the snapshot label.  The start node
     must have been *linked* at that time. *)
  let collect_ts t ts ~lo ~hi =
    let sc = get_scratch t in
    ignore (find t lo sc);
    let pred = sc.preds.(0) in
    let linked = Atomic.get pred.linked_at in
    let start = if linked > 0 && linked <= ts then pred else t.head in
    let buf = sc.buf in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk node =
      if node == t.tail || node.key > hi then ()
      else begin
        let s = V.read_at (next0 node) ts in
        if
          node.key >= lo && (not s.marked)
          && node.key > Dstruct.Ordered_set.min_key
        then Sync.Scratch.Int_buffer.push buf node.key;
        walk s.target
      end
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    walk start;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    Sync.Scratch.Int_buffer.to_array buf

  (* Snapshot handle: the announce-slot guard pins version chains for the
     handle's lifetime; the RQ is the advancing operation (vCAS), and
     every read resolves against the captured label with no further
     acquisition. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s
  let collect_at t s ~lo ~hi = collect_ts t (snap_label s) ~lo ~hi

  (* Point read at the held label: raw-find a candidate predecessor
     (validated by its link label, else fall back to the head) and walk
     level 0 through the version chains, like [collect_ts] but without
     touching the collection buffer. *)
  let lookup_at t s key =
    let ts = snap_label s in
    let sc = get_scratch t in
    ignore (find t key sc);
    let pred = sc.preds.(0) in
    let linked = Atomic.get pred.linked_at in
    let start = if linked > 0 && linked <= ts then pred else t.head in
    let rec walk node =
      if node == t.tail || node.key > key then false
      else
        let s = V.read_at (next0 node) ts in
        if node.key = key then not s.marked else walk s.target
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc n =
      if n == t.tail then List.rev acc
      else
        let s = V.read (next0 n) in
        let acc =
          if (not s.marked) && n.key > Dstruct.Ordered_set.min_key then
            n.key :: acc
          else acc
        in
        walk acc s.target
    in
    walk [] t.head

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
