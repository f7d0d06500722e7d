let max_level = Dstruct.Skip_level.max_level

module Core (T : Hwts.Timestamp.S) = struct
  (* Fraser's lock-free skip list with a vCAS level 0.  A [Node] is one
     block: [key] (field 0), its level-0 link [next] (1), a {!Link}
     labeled by helping, then its raw links at levels 1..top, the
     level-l one at field [1 + l]; a node of level 0 is the record
     alone.  A clean link is the successor node itself.  A marked link
     (its owner is being deleted) is a [Mark] around the successor,
     allocated only by a delete, and a [Mark]'s successor is never
     itself a [Mark].  [next] holds that link bare once no snapshot can
     need its history, else a [Version] whose value is a node or a
     [Mark]; no slot and no version's value is a [Version].  CASes on
     either compare what the field holds, so a link can come back to the
     node it held, and the CAS then succeeds: a clean link equal to the
     one a thread read is the same state, as with Harris-style marked
     pointers.

     The record type names fields 0-1 only.  [Obj] appears in [alloc],
     which builds a taller block, and in the externals below, which read
     its size and its slots and CAS a slot; every slot holds a node from
     allocation on (DESIGN.md, "vCAS skip list"). *)
  type node =
    | Node of { key : int; mutable next : node }
    | Mark of node
    | Version of { mutable ts : int; v : node; mutable older : node }

  external words : node -> int = "%obj_size"
  external field : node -> int -> node = "%obj_field"

  (* [L.cas]'s stub, for a slot. *)
  external cas_field : node -> int -> node -> node -> bool = "hwts_cas_field"
  [@@noalloc]

  (* Fields before the first slot. *)
  let prefix = 2

  let node_tag =
    let rec n = Node { key = 0; next = n } in
    Obj.tag (Obj.repr n)

  (* A node of [top] levels whose slots hold [succs.(1..top)]. *)
  let alloc key next succs top =
    if top = 0 then Node { key; next }
    else begin
      let n = Obj.new_block node_tag (prefix + top) in
      Obj.set_field n 0 (Obj.repr key);
      Obj.set_field n 1 (Obj.repr next);
      for level = 1 to top do
        Obj.set_field n (prefix - 1 + level) (Obj.repr succs.(level))
      done;
      (Obj.obj n : node)
    end

  module Versions = struct
    type _ t = node

    let version ts v older = Version { ts; v; older }
    let is_version = function Version _ -> true | Node _ | Mark _ -> false

    let value = function
      | Version x -> x.v
      | Node _ | Mark _ -> invalid_arg "Skiplist_vcas.value: not a version"

    let older = function
      | Version x -> x.older
      | Node _ | Mark _ -> invalid_arg "Skiplist_vcas.older: not a version"

    let set_older n older =
      match n with
      | Version x -> x.older <- older
      | Node _ | Mark _ -> invalid_arg "Skiplist_vcas.set_older: not a version"
  end

  (* Labeling by helping, on the level-0 link. *)
  module H = Vcas_obj.Helping (T) (Link.Cell (Versions))
  module L = Link.Make (Versions) (H)

  type t = { head : node; tail : node; registry : Rq_registry.t }

  let name = "vcas-skiplist(" ^ T.name ^ ")"
  let not_a_node what = invalid_arg ("Skiplist_vcas." ^ what ^ ": not a node")

  let key = function
    | Node n -> n.key
    | Mark _ | Version _ -> not_a_node "key"

  let next0 = function
    | Node n -> n.next
    | Mark _ | Version _ -> not_a_node "next0"

  let top_level = function
    | Node _ as n -> words n - prefix
    | Mark _ | Version _ -> not_a_node "top_level"

  let target = function Mark succ -> succ | link -> link
  let marked = function Mark _ -> true | Node _ | Version _ -> false

  (* The current level-0 link of [n]. *)
  let link0 n = L.current (next0 n)

  (* The raw link of [n] at [level] >= 1, read and CASed: [n] is linked
     at [level], so its block has the slot. *)
  let[@inline] slot n level = field n (prefix - 1 + level)

  let[@inline] cas_slot n level expected v =
    cas_field n (prefix - 1 + level) expected v

  (* The tail ends every level; its link is never read (every walk stops
     at the tail), so it holds the tail itself.  The head's link is bare
     from the start: the head holds at every label. *)
  let create () =
    let rec tail = Node { key = max_int; next = tail } in
    let head =
      alloc Dstruct.Ordered_set.min_key tail
        (Array.make (max_level + 1) tail)
        max_level
    in
    { head; tail; registry = Rq_registry.create () }

  exception Retry

  type scratch = {
    preds : node array;
    succs : node array;
    mutable wit0 : node; (* level-0 CAS witness: preds.(0)'s [next] *)
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
        }
      in
      cell := Some s;
      s

  (* Make [v] [pred]'s level-0 link iff its [next] still holds
     [expected] (as read), as {!Link}'s write: a fresh version whose
     older link is [expected], published (labeled by helping), then
     settled: put back bare at or below the floor, pruned otherwise. *)
  let write t pred expected v =
    let version = L.successor expected v in
    (* fault injection: the link may move on between the read of
       [expected] and the CAS, and a bare link may come back to the very
       node it held *)
    Sync.Pause.point ();
    L.cas pred 1 expected version
    && begin
         H.publish version;
         L.settle t.registry pred 1 version;
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
        if cas_slot pred level curr succ then
          find_upper t k preds succs pred level
        else raise_notrace Retry
      | Node _ | Version _ ->
        if key curr < k then find_upper t k preds succs curr level
        else begin
          record preds succs level pred curr;
          pred
        end

  let rec find_bottom t k sc pred =
    let plink = next0 pred in
    let curr = L.current plink in
    if marked curr then raise_notrace Retry;
    if curr == t.tail then begin
      record sc.preds sc.succs 0 pred curr;
      sc.wit0 <- plink
    end
    else
      match link0 curr with
      | Mark succ ->
        if next0 pred == plink && write t pred plink succ then
          find_bottom t k sc pred
        else raise_notrace Retry
      | Node _ | Version _ ->
        if key curr < k then find_bottom t k sc curr
        else begin
          record sc.preds sc.succs 0 pred curr;
          sc.wit0 <- plink
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

  (* A new node's own link starts pending ({!Link.pending}): a snapshot
     labeled before the write that links the node finds no value in it,
     so [start_at] never starts there.  Once that write is published,
     the inserter labels the own link by helping, which can only give it
     a label at or above the write's, and settles it; whoever reaches the
     node first may have helped label it already. *)
  let rec insert t k =
    assert (k > Dstruct.Ordered_set.min_key && k <= Dstruct.Ordered_set.max_key);
    let sc = get_scratch t in
    if find t k sc then false
    else begin
      let succs = sc.succs in
      let top = Dstruct.Skip_level.random () in
      let own = L.pending succs.(0) in
      let node = alloc k own succs top in
      if not (write t sc.preds.(0) sc.wit0 node) then insert t k
      else begin
        H.publish own;
        L.settle t.registry node 1 own;
        link_upper t k node sc 1;
        true
      end
    end

  and link_upper t k node sc level =
    if level <= top_level node then link_level t k node sc level

  (* A module-level recursion, not a closure per level. *)
  and link_level t k node sc level =
    let cur = slot node level in
    if marked cur then ()
    else if
      cur != sc.succs.(level)
      && not (cas_slot node level cur sc.succs.(level))
    then link_level t k node sc level
    else if cas_slot sc.preds.(level) level sc.succs.(level) node
    then link_upper t k node sc (level + 1)
    else begin
      ignore (find t k sc);
      if sc.succs.(0) == node then link_level t k node sc level
    end

  (* A delete marks its victim's slots top down, then level 0: the
     versioned mark is the delete's linearizing write. *)
  let rec mark_slot victim level =
    let s = slot victim level in
    if (not (marked s)) && not (cas_slot victim level s (Mark s)) then
      mark_slot victim level

  let rec mark0 t k sc victim =
    let link = next0 victim in
    match L.current link with
    | Mark _ -> false
    | succ ->
      if write t victim link (Mark succ) then begin
        ignore (find t k sc);
        true
      end
      else mark0 t k sc victim

  let delete t k =
    let sc = get_scratch t in
    find t k sc
    &&
    let victim = sc.succs.(0) in
    for level = top_level victim downto 1 do
      mark_slot victim level
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
     predecessor of [k], which must have been linked by [ts]: its own link
     holds a value at [ts] only then.  Otherwise from the head. *)
  let start_at t sc k ts =
    ignore (find t k sc);
    let pred = sc.preds.(0) in
    if L.exists_at (next0 pred) ts then pred else t.head

  (* a module-level recursion: a nested [let rec] would allocate a
     closure per read *)
  let rec collect_from run tail ts lo hi node =
    if node != tail && key node <= hi then
      match L.value_at (next0 node) ts with
      | Mark succ -> collect_from run tail ts lo hi succ
      | succ ->
        if key node >= lo && key node > Dstruct.Ordered_set.min_key then
          Sync.Key_run.push run (key node);
        collect_from run tail ts lo hi succ

  (* Snapshot handle: the announce-slot guard pins version chains for the
     handle's lifetime; the RQ is the advancing operation (vCAS), and
     every read resolves against the captured label with no further
     acquisition. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s
  let collect_into t s ~lo ~hi run =
    let ts = snap_label s in
    let start = start_at t (get_scratch t) lo ts in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    collect_from run t.tail ts lo hi start;
    Hwts_trace.Span.exit Hwts_trace.Traverse

  (* Point read at the held label: walk level 0 through the version
     chains, like [collect_into] but without a run. *)
  let lookup_at t s k =
    let ts = snap_label s in
    let start = start_at t (get_scratch t) k ts in
    let rec walk node =
      if node == t.tail || key node > k then false
      else
        let link = L.value_at (next0 node) ts in
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

  (* Each level's raw walk from the head, for tests at quiescence: a
     node is live when none of its links is marked. *)
  let towers t =
    let link n level = if level = 0 then link0 n else slot n level in
    let rec unmarked n level =
      level < 0 || ((not (marked (link n level))) && unmarked n (level - 1))
    in
    let rec walk level acc n =
      let m = target (link n level) in
      if m == t.tail then List.rev acc
      else
        let seen =
          {
            Dstruct.Skip_level.key = key m;
            words = words m;
            live = unmarked m (top_level m);
          }
        in
        walk level (seen :: acc) m
    in
    Array.init (max_level + 1) (fun level -> walk level [] t.head)

  (* Level-0 links and the values they retain, over the head and every
     node linked at level 0.  A version is read without labeling it. *)
  let version_chain_stats t =
    let rec walk links values n =
      if n == t.tail then (links, values)
      else
        let link = next0 n in
        let succ = if Versions.is_version link then Versions.value link else link in
        walk (links + 1) (values + L.chain_of link) (target succ)
    in
    walk 0 0 t.head

  (* Versioned links retain old values under GC; there is no reclamation
     grace protocol to participate in. *)
  let quiesce _ = ()
  let offline _ = ()
end

module Make (T : Hwts.Timestamp.S) = struct
  module C = Core (T)
  include C
  include Dstruct.Ordered_set.Ranges (C)
end
