let max_level = Dstruct.Skip_level.max_level

module Core (T : Hwts.Timestamp.S) = struct
  (* One block per node plus its tower.  [b0] (field 2), [lock] (3),
     [marked] (4) and [fully_linked] (5) are written only through
     {!Field_lock} and {!Link}, so the field order matters; so are the
     tower's slots, once the node is linked.  [b0] is the bundled level-0
     link: the successor itself once no snapshot can need its history,
     else a [Version], the head of its bundle ({!Link}).  No tower slot
     and no version's value is a [Version]. *)
  type node =
    | Node of {
        key : int;
        next : node array; (* raw links, all levels; [||] for tail *)
        mutable b0 : node; (* bundled level-0 link *)
        mutable lock : bool;
        mutable marked : bool;
        mutable fully_linked : bool;
      }
    | Version of { mutable ts : int; v : node; mutable older : node }

  let not_a_node what = invalid_arg ("Skiplist_bundle." ^ what ^ ": a version")

  let[@inline] key_of = function
    | Node n -> n.key
    | Version _ -> not_a_node "key_of"

  let[@inline] next = function
    | Node n -> n.next
    | Version _ -> not_a_node "next"

  let[@inline] b0 = function Node n -> n.b0 | Version _ -> not_a_node "b0"

  let[@inline] marked = function
    | Node n -> n.marked
    | Version _ -> not_a_node "marked"

  let[@inline] fully_linked = function
    | Node n -> n.fully_linked
    | Version _ -> not_a_node "fully_linked"

  let top_level n = Array.length (next n) - 1

  module Versions = struct
    type _ t = node

    let version ts v older = Version { ts; v; older }
    let is_version = function Version _ -> true | Node _ -> false

    let value = function
      | Version x -> x.v
      | Node _ -> invalid_arg "Skiplist_bundle.value: not a version"

    let older = function
      | Version x -> x.older
      | Node _ -> invalid_arg "Skiplist_bundle.older: not a version"

    let set_older n older =
      match n with
      | Version x -> x.older <- older
      | Node _ -> invalid_arg "Skiplist_bundle.set_older: not a version"
  end

  (* Bundling's labeling (the update labels, readers wait) on the link. *)
  module W = Bundle.Waiting (Link.Cell (Versions))
  module L = Link.Make (Versions) (W)

  module F = Field_lock.Make (struct
    type t = node

    let lock_field = 3
    let locked = function Node n -> n.lock | Version _ -> false
  end)

  type t = { head : node; registry : Rq_registry.t }

  let name = "bundle-skiplist(" ^ T.name ^ ")"

  (* The tail ends every level; its link is never read (every walk stops
     at its key, [max_int]), so it holds the tail itself.  The head's
     link is bare from the start: the head holds at every label. *)
  let create () =
    let rec tail =
      Node
        {
          key = max_int;
          next = [||];
          b0 = tail;
          lock = false;
          marked = false;
          fully_linked = true;
        }
    in
    let head =
      Node
        {
          key = Dstruct.Ordered_set.min_key;
          next = Array.make (max_level + 1) tail;
          b0 = tail;
          lock = false;
          marked = false;
          fully_linked = true;
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
      let curr = ref (next !pred).(level) in
      while key_of !curr < key do
        pred := !curr;
        curr := (next !curr).(level)
      done;
      if !lfound = -1 && key_of !curr = key then lfound := level;
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
    while not (fully_linked n) do
      Tsc.cpu_relax ()
    done

  let contains t key =
    let { preds; succs; _ } = get_scratch t in
    let lfound = find t key preds succs in
    lfound <> -1
    &&
    let n = succs.(lfound) in
    (not (marked n))
    && begin
         await_linked n;
         not (marked n)
       end

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

  (* Under the locks: every level's predecessor still links to its
     successor. *)
  let rec valid_from preds succs top ~validate_succ level =
    level > top
    ||
    let pred = preds.(level) and succ = succs.(level) in
    (* a pred that is not fully linked yet has a pending level-0 link:
       preparing on it would collide with its inserter's in-flight
       label, so treat it like a marked node and retry *)
    (not (marked pred))
    && fully_linked pred
    && ((not validate_succ) || not (marked succ))
    && (next pred).(level) == succ
    && valid_from preds succs top ~validate_succ (level + 1)

  (* Push a pending version for [target] onto [n]'s level-0 link; the
     caller holds [n]'s lock, labels the version and settles it. *)
  let prepare n target =
    let was = b0 n in
    let version = L.successor was target in
    L.install n 2 ~was version;
    version

  (* Link a fresh node of [key] over levels 0..[top]; the caller holds
     the validated predecessors' locks. *)
  let link_new t key preds succs top =
    let own = L.pending succs.(0) in
    let node =
      Node
        {
          key;
          next = Array.sub succs 0 (top + 1);
          b0 = own;
          lock = false;
          marked = false;
          fully_linked = false;
        }
    in
    let link = prepare preds.(0) node in
    (* the timestamp must exist before the node becomes raw-visible: a
       clock read that happens after any traversal can observe the insert
       then yields ts >= this label, so point ops and snapshots agree on
       the order *)
    let ts = T.advance () in
    for level = 0 to top do
      F.link_slot (next preds.(level)) level ~was:succs.(level) node
    done;
    W.label link ts;
    W.label own ts;
    L.settle t.registry preds.(0) 2 link;
    (* no update prepares on the node until it is fully linked, so its
       own link settles without its lock *)
    L.settle t.registry node 2 own;
    (* fault injection: labeled and linked, not yet fully linked — point
       ops must wait, not answer "absent" *)
    Sync.Pause.point ();
    F.set node 5

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let top = random_level () in
    let { preds; succs; _ } = get_scratch t in
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
    || ((next preds.(level)).(level) == v && still_linked preds v top (level + 1))

  (* Unlink [v], which this delete has locked and found unmarked; the
     caller holds the validated predecessors' locks. *)
  let unlink t preds v top =
    let link = prepare preds.(0) (next v).(0) in
    (* timestamp first, then mark: a contains that observes the deletion
       can only do so after the label exists, so no snapshot taken later
       can predate the delete *)
    let ts = T.advance () in
    F.set v 4;
    for level = top downto 0 do
      F.link_slot (next preds.(level)) level ~was:v (next v).(level)
    done;
    W.label link ts;
    L.settle t.registry preds.(0) 2 link

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
    let { preds; succs; _ } = get_scratch t in
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

  (* A raw-found predecessor of [key], or the head if that node postdates
     the snapshot at [ts]. *)
  let start_at t sc key ts =
    ignore (find t key sc.preds sc.succs);
    let pred = sc.preds.(0) in
    if L.exists_at (b0 pred) ts then pred else t.head

  (* The successor a level-0 link holds at [ts]: a bare link is its
     value at every label. *)
  let next_at n ts =
    match b0 n with Version _ as v -> L.value_at v ts | bare -> bare

  (* Range query: locate a predecessor of [lo] through the raw levels,
     then walk the level-0 bundles at the snapshot time.  The walk stops
     at the tail, whose key is above every [hi] it compares with. *)
  let rec collect_from buf ts lo hi n =
    let m = next_at n ts in
    let k = key_of m in
    if k <= hi then begin
      if k >= lo then Sync.Scratch.Int_buffer.push buf k;
      collect_from buf ts lo hi m
    end

  let collect_ts t ts ~lo ~hi =
    let sc = get_scratch t in
    let start = start_at t sc lo ts in
    let hi = Int.min hi Dstruct.Ordered_set.max_key in
    let buf = sc.buf in
    Sync.Scratch.Int_buffer.clear buf;
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    collect_from buf ts lo hi start;
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
  let rec member_from ts key n =
    let m = next_at n ts in
    let k = key_of m in
    if k > key then false else k = key || member_from ts key m

  let lookup_at t sn key =
    let ts = snap_label sn in
    let start = start_at t (get_scratch t) key ts in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = member_from ts key start in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let to_list t =
    let rec walk acc n =
      if key_of n = max_int then List.rev acc
      else
        let acc =
          if
            key_of n > Dstruct.Ordered_set.min_key
            && (not (marked n))
            && fully_linked n
          then key_of n :: acc
          else acc
        in
        walk acc (next n).(0)
    in
    walk [] t.head

  let size t = List.length (to_list t)

  (* Bundled links and the values they retain, over the head and every
     linked node. *)
  let version_chain_stats t =
    let rec walk links values n =
      if key_of n = max_int then (links, values)
      else walk (links + 1) (values + L.chain_of (b0 n)) (next n).(0)
    in
    walk 0 0 t.head
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
