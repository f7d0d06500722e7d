let max_level = Dstruct.Skip_level.max_level

module Core (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  (* Fraser's lock-free skip list with a vCAS level 0.  A [Node] is one
     block: its level-0 link is the head version of a vCAS chain, kept in
     the mutable field [next]; [tower] holds its raw links at levels
     1..top (index l-1), [[||]] for a node of level 0; [linked_at] is the
     label of the level-0 write that linked it (0 until the inserter
     records it).  A clean link is the successor node itself.  A marked
     link (its owner is being deleted) is a [Mark] around the successor,
     allocated only by a delete, and a [Mark]'s successor is never itself
     a [Mark].  Level-0 CASes compare versions, which are fresh per write;
     tower CASes compare links, and a clean link equal to the one a
     thread read is the same state, so a reappearing successor is
     harmless, as with Harris-style marked pointers. *)
  type node =
    | Node of {
        key : int;
        mutable next : node V.version;
        tower : node array;
        mutable linked_at : int;
      }
    | Mark of node

  (* [next] is field 1 of [Node]'s block; a tower is a block too.  Only
     [install] and [cas_slot]'s callers use these, and only on a [Node]. *)
  external cas_field : node -> int -> node V.version -> node V.version -> bool
    = "hwts_cas_field"
  [@@noalloc]

  external cas_slot : node array -> int -> node -> node -> bool
    = "hwts_cas_field"
  [@@noalloc]

  type t = { head : node; tail : node; registry : Rq_registry.t }

  let name = "vcas-skiplist(" ^ T.name ^ ")"

  let key = function
    | Node n -> n.key
    | Mark _ -> invalid_arg "Skiplist_vcas.key: a link"

  let next0 = function
    | Node n -> n.next
    | Mark _ -> invalid_arg "Skiplist_vcas.next0: a link"

  let tower = function
    | Node n -> n.tower
    | Mark _ -> invalid_arg "Skiplist_vcas.tower: a link"

  let linked_at = function Node n -> n.linked_at | Mark _ -> 0

  let set_linked_at n ts =
    match n with Node n -> n.linked_at <- ts | Mark _ -> ()

  let target = function Mark succ -> succ | link -> link
  let marked = function Mark _ -> true | Node _ -> false

  (* The current level-0 link of [n] and the link at tower level [level]. *)
  let link0 n = V.value (V.labeled (next0 n))
  let slot n level = (tower n).(level - 1)

  (* The tail ends every level.  Its level-0 chain is never read (every
     walk stops at the tail), so it is one self-loop version pointing
     back at the tail, tied to it with [let rec]. *)
  let create () =
    let rec tail =
      Node { key = max_int; next = end_; tower = [||]; linked_at = 1 }
    and end_ = { Chain.ts = 1; v = tail; older = end_ } in
    let head =
      Node
        {
          key = Dstruct.Ordered_set.min_key;
          next = V.first tail;
          tower = Array.make max_level tail;
          linked_at = 1;
        }
    in
    { head; tail; registry = Rq_registry.create () }

  exception Retry

  type scratch = {
    preds : node array;
    succs : node array;
    mutable wit0 : node V.version; (* level-0 CAS witness: preds.(0)'s head *)
    buf : Sync.Scratch.Int_buffer.t;
  }
  (* Per-domain traversal workspace: [find] overwrites every entry it
     publishes before callers read it, so reuse across operations (and
     across instances of this module) is safe.  Above level 0 the CAS
     witness is the clean link succs.(level) itself. *)

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
          succs = Array.make (max_level + 1) t.tail;
          wit0 = next0 t.head;
          buf = Sync.Scratch.Int_buffer.create ();
        }
      in
      cell := Some s;
      s

  (* Make [candidate], a successor of [expected], [pred]'s level-0 head,
     and label it. *)
  let install pred expected candidate =
    cas_field pred 1 expected candidate
    && begin
         V.publish candidate;
         true
       end

  (* The per-level steps are module-level recursions with explicit
     arguments: nesting them inside [find] would allocate one closure per
     index level on every traversal.  Each returns the level's
     predecessor, where the next level down starts. *)
  let record preds succs level pred curr =
    preds.(level) <- pred;
    succs.(level) <- curr

  let rec find_upper t k preds succs pred level =
    let curr = slot pred level in
    if marked curr then raise_notrace Retry;
    if curr == t.tail then begin
      record preds succs level pred curr;
      pred
    end
    else
      match slot curr level with
      | Mark succ ->
        if cas_slot (tower pred) (level - 1) curr succ then
          find_upper t k preds succs pred level
        else raise_notrace Retry
      | Node _ ->
        if key curr < k then find_upper t k preds succs curr level
        else begin
          record preds succs level pred curr;
          pred
        end

  let rec find_bottom t k sc pred =
    let pver = V.labeled (next0 pred) in
    let curr = V.value pver in
    if marked curr then raise_notrace Retry;
    if curr == t.tail then begin
      record sc.preds sc.succs 0 pred curr;
      sc.wit0 <- pver
    end
    else
      match link0 curr with
      | Mark succ ->
        if next0 pred == pver && install pred pver (V.successor pver succ) then
          find_bottom t k sc pred
        else raise_notrace Retry
      | Node _ ->
        if key curr < k then find_bottom t k sc curr
        else begin
          record sc.preds sc.succs 0 pred curr;
          sc.wit0 <- pver
        end

  let rec descend t k sc pred level =
    if level = 0 then find_bottom t k sc pred
    else descend t k sc (find_upper t k sc.preds sc.succs pred level) (level - 1)

  (* Returns whether succs.(0) holds [k]. *)
  let rec find_loop t k sc =
    match
      descend t k sc t.head max_level;
      key sc.succs.(0) = k
    with
    | result -> result
    | exception Retry -> find_loop t k sc

  (* Span at the non-recursive wrapper so a [Retry] restart extends the
     one traversal span instead of leaking nested ones. *)
  let find t k sc =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = find_loop t k sc in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  (* An update's linearizing write cuts history that no open snapshot can
     need (announce-then-read makes this safe); the registry floor is the
     cached one, which never leads the true minimum. *)
  let prune_with t version =
    V.prune_from version
      (Rq_registry.min_active_cached t.registry ~default:(V.timestamp version))

  let rec insert t k =
    assert (k > Dstruct.Ordered_set.min_key && k <= Dstruct.Ordered_set.max_key);
    let sc = get_scratch t in
    if find t k sc then false
    else begin
      let succs = sc.succs in
      let top = Dstruct.Skip_level.random () in
      let node =
        Node
          {
            key = k;
            next = V.first succs.(0);
            tower = Array.sub succs 1 top;
            linked_at = 0;
          }
      in
      let link = V.successor sc.wit0 node in
      if not (install sc.preds.(0) sc.wit0 link) then insert t k
      else begin
        set_linked_at node (V.timestamp link);
        prune_with t link;
        link_upper t k node sc 1;
        true
      end
    end

  and link_upper t k node sc level =
    if level <= Array.length (tower node) then begin
      let rec link () =
        let cur = slot node level in
        if marked cur then ()
        else if
          cur != sc.succs.(level)
          && not (cas_slot (tower node) (level - 1) cur sc.succs.(level))
        then link ()
        else if
          cas_slot (tower sc.preds.(level)) (level - 1) sc.succs.(level) node
        then link_upper t k node sc (level + 1)
        else begin
          ignore (find t k sc);
          if sc.succs.(0) == node then link ()
        end
      in
      link ()
    end

  (* A delete marks its victim's tower top down, then level 0: the
     versioned mark is the delete's linearizing write. *)
  let rec mark_slot tw i =
    let s = tw.(i) in
    if (not (marked s)) && not (cas_slot tw i s (Mark s)) then mark_slot tw i

  let rec mark0 t k sc victim =
    let ver = V.labeled (next0 victim) in
    match V.value ver with
    | Mark _ -> false
    | succ ->
      let m = V.successor ver (Mark succ) in
      if install victim ver m then begin
        prune_with t m;
        ignore (find t k sc);
        true
      end
      else mark0 t k sc victim

  let delete t k =
    let sc = get_scratch t in
    find t k sc
    &&
    let victim = sc.succs.(0) in
    let tw = tower victim in
    for i = Array.length tw - 1 downto 0 do
      mark_slot tw i
    done;
    mark0 t k sc victim

  let contains t k =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let pred = ref t.head in
    (* descend the raw index levels *)
    for level = max_level downto 1 do
      let curr = ref (target (slot !pred level)) in
      let continue_ = ref true in
      while !continue_ do
        let c = !curr in
        if c == t.tail then continue_ := false
        else
          match slot c level with
          | Mark succ -> curr := succ
          | succ ->
            if key c < k then begin
              pred := c;
              curr := succ
            end
            else continue_ := false
      done
    done;
    (* finish at level 0 through the versioned links *)
    let found = ref false in
    let curr = ref (target (link0 !pred)) in
    let continue_ = ref true in
    while !continue_ do
      let c = !curr in
      if c == t.tail then continue_ := false
      else
        match link0 c with
        | Mark succ -> curr := succ
        | succ ->
          if key c < k then curr := succ
          else begin
            found := key c = k;
            continue_ := false
          end
    done;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    !found

  (* A snapshot read walks level 0 at its label [ts] from a raw-found
     predecessor of [k], which must have been linked by [ts]; otherwise
     from the head. *)
  let start_at t sc k ts =
    ignore (find t k sc);
    let pred = sc.preds.(0) in
    let linked = linked_at pred in
    if linked > 0 && linked <= ts then pred else t.head

  let collect_ts t ts ~lo ~hi =
    let sc = get_scratch t in
    let start = start_at t sc lo ts in
    let buf = sc.buf in
    Sync.Scratch.Int_buffer.clear buf;
    let rec walk node =
      if node == t.tail || key node > hi then ()
      else
        match V.value_at (next0 node) ts with
        | Mark succ -> walk succ
        | succ ->
          if key node >= lo && key node > Dstruct.Ordered_set.min_key then
            Sync.Scratch.Int_buffer.push buf (key node);
          walk succ
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

  (* Point read at the held label: walk level 0 through the version
     chains, like [collect_ts] but without touching the collection
     buffer. *)
  let lookup_at t s k =
    let ts = snap_label s in
    let start = start_at t (get_scratch t) k ts in
    let rec walk node =
      if node == t.tail || key node > k then false
      else
        let link = V.value_at (next0 node) ts in
        if key node = k then not (marked link) else walk (target link)
    in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc n =
      if n == t.tail then List.rev acc
      else
        let link = link0 n in
        let acc =
          if (not (marked link)) && key n > Dstruct.Ordered_set.min_key then
            key n :: acc
          else acc
        in
        walk acc (target link)
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
