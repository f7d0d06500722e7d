(* The lazy skip list of Herlihy et al. with Bundling on level 0, shared
   by skiplist-bundle (the Figure-5 system) and lazylist-bundle: a lazy
   skip list whose every node has level 0 is the lazy list.  An instance
   fixes only [max_level], the highest level a node may draw. *)

module type SHAPE = sig
  val name : string
  (** The structure's name, before its provider's. *)

  val max_level : int
  (** 0 for the list, {!Dstruct.Skip_level.max_level} for the skip list. *)
end

module Make (S : SHAPE) (T : Hwts.Timestamp.S) = struct
  let max_level = S.max_level

  (* A node is one block: [key] (field 0), [next] (1), [state] (2) and
     [b] (3), then its raw links at levels 1..top, the level-l one at
     field [3 + l].  A node of level 0 is the record alone; its only raw
     link is [next], so a raw step is one load of it.  [state] holds the
     lock bit, [marked] and [fully_linked]: a level-0 node is created
     fully linked, a taller one is fully linked once its inserter sets
     the bit.  [next], [state] and the slots are written only through
     {!Field_lock}, [b] only through {!Link}, so the field order matters.
     [b] is the bundled level-0 link: the successor itself once no
     snapshot can need its history, else a [Version], the head of its
     bundle ({!Link}).  The list ends in the immediate [Nil] at every
     level.  No raw link and no version's value is a [Version].

     The record type names fields 0-3 only.  [Obj] appears in [alloc],
     which builds a taller block, and in the two externals below, which
     read its size and its slots ({!Field_lock}'s CAS, typed at [node],
     writes them); every slot holds a node or [Nil] from allocation on
     (DESIGN.md, "One lazy skip list"). *)
  type node =
    | Nil
    | Node of {
        key : int;
        mutable next : node;
        mutable state : int;
        mutable b : node;
      }
    | Version of { mutable ts : int; v : node; mutable older : node }

  external words : node -> int = "%obj_size"
  external field : node -> int -> node = "%obj_field"

  (* Fields before the first slot. *)
  let prefix = 4

  let node_tag =
    Obj.tag (Obj.repr (Node { key = 0; next = Nil; state = 0; b = Nil }))

  (* A node of [top] levels whose slots hold [succs.(1..top)]. *)
  let alloc key next state b succs top =
    if top = 0 then Node { key; next; state; b }
    else begin
      let n = Obj.new_block node_tag (prefix + top) in
      Obj.set_field n 0 (Obj.repr key);
      Obj.set_field n 1 (Obj.repr next);
      Obj.set_field n 2 (Obj.repr state);
      Obj.set_field n 3 (Obj.repr b);
      for level = 1 to top do
        Obj.set_field n (prefix - 1 + level) (Obj.repr succs.(level))
      done;
      (Obj.obj n : node)
    end

  let not_a_node what = invalid_arg ("Lazy_core." ^ what ^ ": not a node")

  let[@inline] key_of = function
    | Node { key; _ } -> key
    | Nil -> max_int
    | Version _ -> not_a_node "key_of"

  let[@inline] next_of = function
    | Node { next; _ } -> next
    | Nil | Version _ -> not_a_node "next_of"

  let[@inline] b_of = function
    | Node { b; _ } -> b
    | Nil | Version _ -> not_a_node "b_of"

  let[@inline] state = function
    | Node { state; _ } -> state
    | Nil | Version _ -> 0

  let[@inline] marked n = Field_lock.has Field_lock.marked (state n)

  let[@inline] fully_linked = function
    | Node { state; _ } -> Field_lock.has Field_lock.fully_linked state
    | Nil | Version _ -> true

  let top_level = function
    | Node _ as n -> words n - prefix
    | Nil | Version _ -> 0

  (* The field of the raw link at [level] >= 1, and that link: [n] is a
     node linked at [level], so its block has the slot. *)
  let[@inline] slot_field level = prefix - 1 + level
  let[@inline] slot n level = field n (slot_field level)
  let link_at n level = if level = 0 then next_of n else slot n level

  module Versions = struct
    type _ t = node

    let version ts v older = Version { ts; v; older }
    let is_version = function Version _ -> true | Nil | Node _ -> false

    let value = function
      | Version x -> x.v
      | Nil | Node _ -> invalid_arg "Lazy_core.value: not a version"

    let older = function
      | Version x -> x.older
      | Nil | Node _ -> invalid_arg "Lazy_core.older: not a version"

    let set_older n older =
      match n with
      | Version x -> x.older <- older
      | Nil | Node _ ->
        invalid_arg "Lazy_core.set_older: not a version"
  end

  (* Bundling's labeling (the update labels, readers wait) on the link. *)
  module W = Bundle.Waiting (Link.Cell (Versions))
  module L = Link.Make (Versions) (W)

  module F = Field_lock.Make (struct
    type t = node

    let state_field = 2
    let state = state
  end)

  type t = { head : node; registry : Rq_registry.t }

  let name = S.name ^ "(" ^ T.name ^ ")"

  (* The head holds at every label, so its link is bare from the start. *)
  let create () =
    let key = Dstruct.Ordered_set.min_key in
    let head =
      alloc key Nil Field_lock.fully_linked Nil
        (Array.make (max_level + 1) Nil)
        max_level
    in
    { head; registry = Rq_registry.create () }

  let random_level () =
    if max_level = 0 then 0 else Dstruct.Skip_level.random ()

  type scratch = { preds : node array; succs : node array }
  (* Per-domain traversal workspace: [find] overwrites every level before
     callers read it, so reuse across operations (and instances) is safe. *)

  let scratch : scratch Sync.Scratch.t =
    Sync.Scratch.make (fun () ->
        {
          preds = Array.make (max_level + 1) Nil;
          succs = Array.make (max_level + 1) Nil;
        })

  (* The walks are module-level recursions with explicit arguments: a
     nested [let rec] would allocate a closure on every call.  Level 0
     is walked through [next], the levels above through the slots. *)

  (* The last level-0 node from [pred] whose key is below [key], and its
     successor [curr], stored at level 0.  A step loads [curr]'s key and
     [next] once: reading a link twice could pair a predecessor with a
     successor it no longer links to. *)
  let rec find0 key preds succs pred curr =
    match curr with
    | Node { key = k; next; _ } when k < key ->
      find0 key preds succs curr next
    | _ ->
      preds.(0) <- pred;
      succs.(0) <- curr

  (* The first level-0 node from [n] whose key is at least [key]. *)
  let rec first0 key n =
    match n with
    | Node { key = k; next; _ } when k < key ->
      first0 key next
    | _ -> n

  (* The node of [key] at the highest level it is linked at, down from
     [pred] at [level], or the first node above [key] at level 0. *)
  let rec seek key pred level =
    if level = 0 then first0 key (next_of pred)
    else
      let curr = slot pred level in
      let k = key_of curr in
      if k < key then seek key curr level
      else if k = key then curr
      else seek key pred (level - 1)

  (* Fill [preds] and [succs] at every level; the highest level [key] is
     linked at, or -1. *)
  let find t key preds succs =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let lfound = ref (-1) in
    let pred = ref t.head in
    for level = max_level downto 1 do
      let curr = ref (slot !pred level) in
      while key_of !curr < key do
        pred := !curr;
        curr := slot !curr level
      done;
      if !lfound = -1 && key_of !curr = key then lfound := level;
      preds.(level) <- !pred;
      succs.(level) <- !curr
    done;
    find0 key preds succs !pred (next_of !pred);
    if !lfound = -1 && key_of succs.(0) = key then lfound := 0;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    !lfound

  (* An insert labels its bundles before it sets [fully_linked], so a
     snapshot may already hold a linked node above level 0 that is not
     yet fully linked.  Point ops wait for such a node instead of calling
     it absent, as [insert] does (and as the lazy skip list does). *)
  let await_linked n =
    while not (fully_linked n) do
      Tsc.cpu_relax ()
    done

  let contains t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let n = seek key t.head max_level in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    key_of n = key
    && (not (marked n))
    && (fully_linked n
       || begin
            await_linked n;
            not (marked n)
          end)

  (* Lock (unlock) each distinct predecessor of levels 0..[top] once:
     equal predecessors are adjacent.  These and the update paths below
     are module-level functions with explicit arguments, so an update
     allocates no closure. *)
  let rec lock_from preds top level last =
    if level <= top then begin
      let pred = preds.(level) in
      if pred != last then F.lock pred;
      lock_from preds top (level + 1) pred
    end

  let rec unlock_from preds top level last =
    if level <= top then begin
      let pred = preds.(level) in
      if pred != last then F.unlock pred;
      unlock_from preds top (level + 1) pred
    end

  let lock_preds preds top =
    F.lock preds.(0);
    lock_from preds top 1 preds.(0)

  let unlock_preds preds top =
    F.unlock preds.(0);
    unlock_from preds top 1 preds.(0)

  (* Under the locks: every level's predecessor is unmarked and still
     links to its successor. *)
  let rec valid_from preds succs top ~validate_succ level =
    level > top
    ||
    let pred = preds.(level) and succ = succs.(level) in
    (not (marked pred))
    && ((not validate_succ) || not (marked succ))
    && link_at pred level == succ
    && valid_from preds succs top ~validate_succ (level + 1)

  (* Push a pending version for [target] onto [n]'s bundled link; the
     caller holds [n]'s lock, labels the version and settles it. *)
  let prepare n target =
    let was = b_of n in
    let version = L.successor was target in
    L.install n 3 ~was version;
    version

  (* Link a fresh node of [key] over levels 0..[top]; the caller holds
     the validated predecessors' locks. *)
  let link_new t key preds succs top =
    let pred = preds.(0) and succ = succs.(0) in
    let own = L.pending succ in
    let state = if top = 0 then Field_lock.fully_linked else 0 in
    let node = alloc key succ state own succs top in
    let link = prepare pred node in
    (* the timestamp must exist before the node becomes raw-visible: a
       clock read that happens after any traversal can observe the insert
       then yields ts >= this label, so point ops and snapshots agree on
       the order.  The node's own link is labeled and settled before the
       linking write, so a linked node holds no pending version: a
       neighbour may lock it and prepare on it, and a snapshot may start
       its walk at it, as soon as it is reachable *)
    let ts = T.advance () in
    W.label own ts;
    L.settle t.registry node 3 own;
    F.link pred 1 ~was:succ node;
    for level = 1 to top do
      F.link preds.(level) (slot_field level) ~was:succs.(level) node
    done;
    W.label link ts;
    L.settle t.registry pred 3 link;
    (* fault injection: labeled and linked; a node above level 0 is not
       yet fully linked, so point ops must wait, not answer "absent" *)
    Sync.Pause.point ();
    if top > 0 then F.set node Field_lock.fully_linked

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let top = random_level () in
    let { preds; succs } = Sync.Scratch.get scratch in
    let lfound = find t key preds succs in
    if lfound <> -1 then begin
      let found = succs.(lfound) in
      if not (marked found) then begin
        await_linked found;
        false
      end
      else insert t key
    end
    else begin
      lock_preds preds top;
      let valid = valid_from preds succs top ~validate_succ:true 0 in
      if valid then link_new t key preds succs top;
      unlock_preds preds top;
      valid || insert t key
    end

  let ok_to_delete node lfound =
    fully_linked node && top_level node = lfound && not (marked node)

  let rec still_linked preds v top level =
    level > top
    || (link_at preds.(level) level == v && still_linked preds v top (level + 1))

  (* Unlink [v], which this delete has locked and found unmarked; the
     caller holds the validated predecessors' locks. *)
  let unlink t preds v top =
    let pred = preds.(0) and after = next_of v in
    let link = prepare pred after in
    (* timestamp first, then mark: a contains that observes the deletion
       can only do so after the label exists, so no snapshot taken later
       can predate the delete *)
    let ts = T.advance () in
    F.set v Field_lock.marked;
    for level = top downto 1 do
      F.link preds.(level) (slot_field level) ~was:v (slot v level)
    done;
    F.link pred 1 ~was:v after;
    W.label link ts;
    L.settle t.registry pred 3 link

  (* Retry until [v]'s predecessors validate.  The mark, the point-op
     commit, waits for the unlink step, after the timestamp exists;
     holding [v]'s lock keeps competing deleters out meanwhile. *)
  let rec delete_locked t key preds succs v =
    let top = top_level v in
    lock_preds preds top;
    let valid =
      valid_from preds succs top ~validate_succ:false 0
      && still_linked preds v top 0
    in
    if valid then unlink t preds v top;
    unlock_preds preds top;
    if valid then begin
      F.unlock v;
      true
    end
    else begin
      ignore (find t key preds succs);
      delete_locked t key preds succs v
    end

  let delete t key =
    let { preds; succs } = Sync.Scratch.get scratch in
    let lfound = find t key preds succs in
    let lfound =
      if lfound <> -1 && not (fully_linked succs.(lfound)) then begin
        await_linked succs.(lfound);
        find t key preds succs
      end
      else lfound
    in
    lfound <> -1
    && ok_to_delete succs.(lfound) lfound
    &&
    let v = succs.(lfound) in
    F.lock v;
    if marked v then begin
      F.unlock v;
      false
    end
    else delete_locked t key preds succs v

  (* A snapshot read raw-walks to a predecessor of its first key, then
     switches to bundle reads at [ts]: a walk of the whole level 0
     through bundle dereferences costs roughly 3x per node and O(n) of
     them per query.

     Soundness of the entry point: an unmarked [pred] whose link holds a
     value at [ts] (bare, or a version labeled <= [ts]) was in the set at
     the snapshot time; since its key is below [key], every snapshot
     member from [key] on lies on its bundled successor chain.  A marked
     predecessor, or one whose link holds no value at [ts] (its insert is
     labeled after the snapshot), falls back to the head, whose link
     covers all history.  This also makes the seek safe to run any time
     after the clock read, which a long-held snapshot handle relies on. *)
  let start_at t key ts =
    let { preds; succs } = Sync.Scratch.get scratch in
    ignore (find t key preds succs);
    let pred = preds.(0) in
    if (not (marked pred)) && L.exists_at (b_of pred) ts then pred else t.head

  (* The successor a bundled link holds at [ts]: a bare link is its value
     at every label. *)
  let next_at n ts =
    match b_of n with Version _ as v -> L.value_at v ts | bare -> bare

  let rec collect_from run ts lo hi n =
    match next_at n ts with
    | Node { key = k; _ } as m when k <= hi ->
      if k >= lo then Sync.Key_run.push run k;
      collect_from run ts lo hi m
    | _ -> ()

  (* Snapshot handle: the announce-slot guard keeps bundle pruning below
     the captured label for the handle's lifetime.  Bundles never advance
     the clock for reads, so the label is a plain [T.read]. *)
  type snap = Rq_registry.snap

  let snapshot t =
    Rq_registry.snapshot t.registry ~floor:T.read_floor ~label:T.read

  let snap_label = Rq_registry.snap_label
  let snap_release t s = Rq_registry.snap_release t.registry s

  let collect_into t s ~lo ~hi run =
    let ts = snap_label s in
    let start = start_at t lo ts in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    collect_from run ts lo hi start;
    Hwts_trace.Span.exit Hwts_trace.Traverse

  (* Point read at the held label: membership at [ts] is appearing on the
     bundled successor chain at [ts]. *)
  let rec member_from ts key n =
    match next_at n ts with
    | Node { key = k; _ } as m when k <= key ->
      k = key || member_from ts key m
    | _ -> false

  let lookup_at t sn key =
    let ts = snap_label sn in
    let start = start_at t key ts in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = member_from ts key start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc = function
      | Node { key; next; _ } as n ->
        walk (if marked n || not (fully_linked n) then acc else key :: acc) next
      | Nil | Version _ -> List.rev acc
    in
    walk [] (next_of t.head)

  let size t = List.length (to_list t)

  (* Each level's raw walk from the head, for tests at quiescence. *)
  let towers t =
    let live n =
      fully_linked n
      && state n land (Field_lock.marked lor Field_lock.locked) = 0
    in
    let rec walk level acc n =
      match link_at n level with
      | Node { key; _ } as m ->
        let seen = { Dstruct.Skip_level.key; words = words m; live = live m } in
        walk level (seen :: acc) m
      | Nil -> List.rev acc
      | Version _ -> not_a_node "towers"
    in
    Array.init (max_level + 1) (fun level -> walk level [] t.head)

  (* Bundled links and the values they retain, over the head and every
     linked node. *)
  let version_chain_stats t =
    let rec walk links values = function
      | Node { b; next; _ } ->
        walk (links + 1) (values + L.chain_of b) next
      | Nil | Version _ -> (links, values)
    in
    walk 0 0 t.head

  let active_rqs t = Rq_registry.active_count t.registry

  (* Bundles retain old values under GC; there is no reclamation grace
     protocol to participate in. *)
  let quiesce _ = ()
  let offline _ = ()
end
