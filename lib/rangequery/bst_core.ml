(* The Natarajan–Mittal external BST, shared by the two labelings Section
   IV compares on it.  vCAS labels every child edge: an edge is a
   versioned link whose pending versions readers help label ({!Edges}).
   Lock-free EBR-RQ labels every leaf with its insertion and deletion
   times, also labeled by helping, and recovers leaves that have left the
   tree from its deleters' announcements and the reclaimer's limbo
   (Bst_ebrrq_lockfree).  The tree, its flags and tags, its seek, its
   updates and its walks are the same for both; a {!LABELING} module
   supplies what differs. *)

(* A set's leaf is its key: the edge that leads to it holds the key as an
   immediate int, so a set leaf is no heap block ({!leaf}).  A map keeps
   each binding in an [Entry], EBR-RQ keeps each key in a [Timed] leaf
   with its two times, and both trees' sentinels are immediates too.  An
   [Internal] holds each child edge in a mutable field, so an edge is one
   word: a tree level is one heap block.  Only a flagged (leaf being
   deleted) or tagged (parent being spliced out) edge allocates a [Mark]
   around its target, and a [Mark]'s target is never itself a [Mark].
   Under vCAS, an edge written while a snapshot may still read its older
   values holds a [Version], the head of a {!Link} chain that keeps that
   history; no version's value is a [Version].  A [Timed] leaf's [itime]
   is its field 0 and [dtime] its field 1, so they are read and CASed
   like a version's label.

   The type has no constant constructor, so a [match] on a node reads
   its block's tag without first testing for an immediate: every read of
   an edge value tests {!is_leaf} before it matches.  A set leaf has no
   identity, only its key; where the tree compares leaves with [==], two
   leaves of one key are one leaf, which [finish] alone must tell apart
   (see there). *)
type 'v node =
  | Entry of { key : int; value : 'v }
  | Internal of { ikey : int; mutable left : 'v node; mutable right : 'v node }
  | Mark of { target : 'v node; flagged : bool; tagged : bool }
  | Version of { mutable ts : int; v : 'v node; mutable older : 'v node }
  | Timed of { mutable itime : int; mutable dtime : int; key : int }

(* The one encoding of a set leaf: the key itself, an immediate where a
   node is a pointer.  The GC skips immediates, the field CAS compares
   words, and no [match] ever sees one ({!is_leaf} first). *)
let leaf (key : int) : 'v node = Obj.magic key
let is_leaf (n : 'v node) = Obj.is_int (Obj.repr n)
let leaf_key (n : 'v node) : int = Obj.magic n

module Node = struct
  type 'v t = 'v node

  let version ts v older = Version { ts; v; older }

  let is_version n =
    (not (is_leaf n)) && match n with Version _ -> true | _ -> false

  let value = function
    | Version x -> x.v
    | _ -> invalid_arg "Bst_core.value: not a version"

  let older = function
    | Version x -> x.older
    | _ -> invalid_arg "Bst_core.older: not a version"

  let set_older n older =
    match n with
    | Version x -> x.older <- older
    | _ -> invalid_arg "Bst_core.set_older: not a version"
end

(* The runtime's CAS on a named field of a node, with its write barrier
   (field_cas_stubs.c): how every edge is written. *)
external cas_field : 'v node -> int -> 'v node -> 'v node -> bool
  = "hwts_cas_field"
[@@noalloc]

let inf0 = max_int - 2
let inf1 = max_int - 1

(* The label a current read resolves at: every version and every time
   qualifies. *)
let now = max_int

let target n =
  if is_leaf n then n else match n with Mark m -> m.target | _ -> n

let flagged n =
  (not (is_leaf n)) && match n with Mark m -> m.flagged | _ -> false

let tagged n = (not (is_leaf n)) && match n with Mark m -> m.tagged | _ -> false
let marked n = (not (is_leaf n)) && match n with Mark _ -> true | _ -> false

let edge target ~flagged ~tagged =
  if flagged || tagged then Mark { target; flagged; tagged } else target

(* [Internal]'s inline record is its block: [ikey] is field 0, [left]
   field 1, [right] field 2.  [node] is always an [Internal]: the root,
   or a seek record's parent or ancestor. *)
let head node left =
  if is_leaf node then invalid_arg "Bst_core.head: not internal"
  else
    match node with
    | Internal n -> if left then n.left else n.right
    | Entry _ | Mark _ | Version _ | Timed _ ->
      invalid_arg "Bst_core.head: not internal"

let key_of n =
  if is_leaf n then leaf_key n
  else
    match n with
    | Entry e -> e.key
    | Timed l -> l.key
    | Internal _ | Mark _ | Version _ ->
      invalid_arg "Bst_core.key_of: not a leaf"

module type LABELING = sig
  type t (* per tree *)

  type snap

  val create : unit -> t

  (** {1 Edges} *)

  val cas : t -> 'v node -> int -> 'v node -> 'v node -> bool
  (** [cas t parent field expected node]: write [node] on [parent]'s edge
      at [field] iff the field still holds [expected], its value as
      read. *)

  val current : 'v node -> 'v node
  (** The current value of a [Version]. *)

  val value_at : 'v node -> int -> 'v node
  (** The value of a [Version] at a label. *)

  val chain_of : 'v node -> int
  (** Values an edge retains: 1 unless it holds a [Version]. *)

  (** {1 Leaves} *)

  val visible : int -> 'v node -> flagged:bool -> bool
  (** Whether a [Timed] leaf that a read reaches, through a flagged edge
      or not, holds its key at label [ts] ([now] for the current tree).
      It first labels what the answer depends on, so an update calls it
      at [now] on the leaf it links or flags before returning, and
      [cleanup] on the leaf a splice removes before the splice. *)

  val flagging : t -> 'v node -> unit
  (** A delete is about to flag this leaf. *)

  val unlinked : t -> 'v node -> unit
  (** The delete that flagged this leaf has seen it leave the tree. *)

  (** {1 Snapshots} *)

  val snapshot : t -> snap
  val snap_label : snap -> int
  val snap_release : t -> snap -> unit

  val recover : t -> int -> lo:int -> hi:int -> Sync.Key_run.t -> unit
  (** Push the keys in [lo..hi] of leaves outside the tree that hold
      them at the label. *)

  val recovered : t -> int -> int -> bool
  (** [recovered t key ts]: whether a leaf outside the tree holds [key]
      at [ts]. *)
end

module Make (L : LABELING) = struct
  (* [root] is the sentinel [r]; its left edge always holds the sentinel
     [s].  A real key's leaf hangs below an internal node under [s], so
     [s] is at most a seek's successor and no update writes [r]'s edges. *)
  type 'v t = { root : 'v node; labels : L.t }

  (* A set leaf or an [Entry] holds its key at every label a read
     reaches it at; a [Timed] leaf holds it as its labeling judges. *)
  let visible ts leaf ~flagged =
    is_leaf leaf
    || match leaf with Timed _ -> L.visible ts leaf ~flagged | _ -> true

  (* The current value of an edge as read from its field. *)
  let current n = if Node.is_version n then L.current n else n
  let edge_value node left = current (head node left)

  let cas_edge t parent left expected node =
    head parent left == expected
    &&
    let field = if left then 1 else 2 in
    (* fault injection: the edge may move on between the read of
       [expected] and the CAS, and a bare edge may come back to the very
       node it held *)
    Sync.Pause.point ();
    L.cas t.labels parent field expected node

  let create () =
    let s = Internal { ikey = inf1; left = leaf inf0; right = leaf inf1 } in
    let r = Internal { ikey = max_int; left = s; right = leaf max_int } in
    { root = r; labels = L.create () }

  (* The seek record names each edge by its node and side: [parent]'s
     [par_left] edge holds the leaf (its other edge the sibling), and
     [anc]'s [anc_left] edge holds [successor].  [par_edge] is that edge's
     field as the seek read it: what a CAS on it expects.  A seek writes
     its domain's one record instead of allocating one: only the update
     that called it reads the record, and only until its next seek. *)
  type 'v seek_record = {
    mutable anc : 'v node;
    mutable anc_left : bool;
    mutable successor : 'v node;
    mutable parent : 'v node;
    mutable par_left : bool;
    mutable par_edge : 'v node;
    mutable leaf_key : int;
    mutable leaf : 'v node;
  }

  (* One record per domain, shared by every tree of this module whatever
     its value type: ['v] types only an [Entry]'s value, which no seek
     reads, and every ['v node] has the same representation, so the
     record is stored at [unit] and read back at the caller's ['v].  A
     node it still holds after an update stays reachable until the
     domain's next seek. *)
  let seek_scratch : unit seek_record Sync.Scratch.t =
    Sync.Scratch.make (fun () ->
        let n = leaf 0 in
        {
          anc = n;
          anc_left = true;
          successor = n;
          parent = n;
          par_left = true;
          par_edge = n;
          leaf_key = 0;
          leaf = n;
        })

  let seek_record () : 'v seek_record =
    Obj.magic (Sync.Scratch.get seek_scratch)

  let found r anc anc_left successor parent par_left par_edge leaf =
    r.anc <- anc;
    r.anc_left <- anc_left;
    r.successor <- successor;
    r.parent <- parent;
    r.par_left <- par_left;
    r.par_edge <- par_edge;
    r.leaf_key <- key_of leaf;
    r.leaf <- leaf;
    r

  (* [value] is the current value of [par_edge] (a bare edge is itself,
     a [Version] is read through to its value, never a version): a leaf,
     an internal, or a [Mark] around either. *)
  let rec descend r key anc anc_left successor parent par_left par_edge value =
    let t = target value in
    if is_leaf t then found r anc anc_left successor parent par_left par_edge t
    else
      match t with
      | Internal n ->
        let left = key < n.ikey in
        let edge = if left then n.left else n.right in
        if t != value && tagged value then
          descend r key anc anc_left successor t left edge edge
        else descend r key parent par_left t t left edge edge
      | Version _ ->
        descend r key anc anc_left successor parent par_left par_edge
          (L.current t)
      | Entry _ | Timed _ ->
        found r anc anc_left successor parent par_left par_edge t
      | Mark _ -> invalid_arg "Bst_core.descend: not a target"

  (* Entering [s] through [r]'s clean left edge makes [r] the ancestor
     and [s] the successor, the seek's usual start. *)
  let seek t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let edge = head t.root true in
    let r = descend (seek_record ()) key t.root true edge t.root true edge edge in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  let rec tag t parent left =
    let edge = head parent left in
    let e = current edge in
    if tagged e then e
    else
      let tagged_e =
        Mark { target = target e; flagged = flagged e; tagged = true }
      in
      if cas_edge t parent left edge tagged_e then tagged_e
      else tag t parent left

  (* The splice removes the flagged leaf on the side not promoted.  Its
     labels land before its parent's other edge is tagged, so every leaf
     a splice removes (this one, and those of the tagged parents above
     it) is labeled before it leaves the tree. *)
  let cleanup t r =
    let promote_left =
      if flagged (edge_value r.parent r.par_left) then not r.par_left
      else r.par_left
    in
    ignore
      (visible now
         (target (edge_value r.parent (not promote_left)))
         ~flagged:true);
    let promoted = tag t r.parent promote_left in
    let anc_edge = head r.anc r.anc_left in
    let anc_value = current anc_edge in
    target anc_value == r.successor
    && (not (tagged anc_value))
    && cas_edge t r.anc r.anc_left anc_edge
         (edge (target promoted) ~flagged:(flagged promoted) ~tagged:false)

  (* After a lost CAS on the leaf's edge: help a delete that marked it. *)
  let help_lost t r =
    let e = edge_value r.parent r.par_left in
    if target e == r.leaf && marked e then ignore (cleanup t r)

  (* One update path: on a key hit replace the leaf (when [overwrite]),
     on a miss link a fresh internal over the old leaf and [leaf key
     value].  Both are one CAS.  A hit on a leaf that no longer holds its
     key (EBR-RQ: flagged, or deleted since the seek) is no hit: help the
     delete along and seek again. *)
  let rec add t key value ~leaf ~overwrite =
    assert (key < inf0);
    let r = seek t key in
    let par = current r.par_edge in
    if
      r.leaf_key = key && (not overwrite)
      && visible now r.leaf ~flagged:(flagged par)
    then false
    else if marked par then begin
      ignore (cleanup t r);
      add t key value ~leaf ~overwrite
    end
    else if r.leaf_key = key then
      (overwrite && cas_edge t r.parent r.par_left r.par_edge (leaf key value))
      || add t key value ~leaf ~overwrite
    else begin
      let fresh = leaf key value and ikey = max key r.leaf_key in
      let internal =
        if key < r.leaf_key then Internal { ikey; left = fresh; right = r.leaf }
        else Internal { ikey; left = r.leaf; right = fresh }
      in
      if cas_edge t r.parent r.par_left r.par_edge internal then begin
        ignore (visible now fresh ~flagged:false);
        true
      end
      else begin
        help_lost t r;
        add t key value ~leaf ~overwrite
      end
    end

  let rec remove t key =
    let r = seek t key in
    if r.leaf_key <> key then false
    else if marked (current r.par_edge) then begin
      ignore (cleanup t r);
      remove t key
    end
    else begin
      let flag = Mark { target = r.leaf; flagged = true; tagged = false } in
      L.flagging t.labels r.leaf;
      if cas_edge t r.parent r.par_left r.par_edge flag then begin
        (* [finish] seeks again, which rewrites [r] *)
        let leaf = r.leaf in
        ignore (visible now leaf ~flagged:true);
        (* fault injection: flagged and labeled, not yet spliced out: any
           update that meets the leaf may splice it *)
        Sync.Pause.point ();
        let removed = cleanup t r || finish t key leaf in
        L.unlinked t.labels leaf;
        removed
      end
      else begin
        help_lost t r;
        remove t key
      end
    end

  (* The delete's own splice failed: seek again and splice its leaf out
     if it is still there.  Two set leaves of one key are one word, so
     [r.leaf == leaf] alone would also name a leaf of the key inserted
     after this one left the tree, and [cleanup] would promote it and
     splice out its unflagged sibling.  A leaf's flag travels with it
     when a splice promotes its edge, so a flagged edge on the key names
     this delete's leaf or a concurrent delete's, which is harmless to
     help; an unflagged one means this delete's leaf is gone. *)
  and finish t key leaf =
    let r = seek t key in
    r.leaf != leaf
    || (not (flagged (current r.par_edge)))
    || cleanup t r || finish t key leaf

  (* Point reads descend to the edge value that leads to the leaf [key]
     routes to at label [ts] ([now] for the current tree): the leaf, or
     the [Mark] around it.  A bare edge is its value at every label; only
     a versioned one costs a chain walk. *)
  let rec leaf_at key ts node =
    if is_leaf node then node
    else
      match node with
      | Internal n -> leaf_at key ts (if key < n.ikey then n.left else n.right)
      | Version _ -> leaf_at key ts (L.value_at node ts)
      | Mark m ->
        let t = m.target in
        if (not (is_leaf t)) && match t with Internal _ -> true | _ -> false
        then leaf_at key ts t
        else node
      | Entry _ | Timed _ -> node

  let leaf_now t key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let e = leaf_at key now t.root in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    e

  (* Whether the leaf edge value [e] leads to holds [key] at [ts]; the
     sentinels' keys are reserved, so no reader reports them present. *)
  let holds ts key e =
    key < inf0
    &&
    if is_leaf e then leaf_key e = key
    else
      let leaf = target e in
      key_of leaf = key && visible ts leaf ~flagged:(flagged e)

  let binding ts key e =
    let leaf = target e in
    if is_leaf leaf then None
    else
      match leaf with
      | Entry x when x.key = key && visible ts leaf ~flagged:(flagged e) ->
        Some x.value
      | Entry _ | Timed _ | Internal _ | Mark _ | Version _ -> None

  let mem t key = holds now key (leaf_now t key)
  let find t key = binding now key (leaf_now t key)

  (* Range reads walk [lo, hi] in order at label [ts]: keys go into the
     run (left subtree first, so the tree's keys arrive ascending), then
     the labeling's recovered keys.  Bindings are consed right subtree
     first, for the same order. *)
  let timed_into run ts lo hi leaf key ~flagged =
    if key >= lo && key <= hi && L.visible ts leaf ~flagged then
      Sync.Key_run.push run key

  let rec keys_into run ts lo hi node =
    if is_leaf node then begin
      let k = leaf_key node in
      if k >= lo && k <= hi && k < inf0 then Sync.Key_run.push run k
    end
    else
      match node with
      | Entry e ->
        if e.key >= lo && e.key <= hi then Sync.Key_run.push run e.key
      | Timed l -> timed_into run ts lo hi node l.key ~flagged:false
      | Internal n ->
        if lo < n.ikey then keys_into run ts lo hi n.left;
        if hi >= n.ikey then keys_into run ts lo hi n.right
      | Version _ -> keys_into run ts lo hi (L.value_at node ts)
      | Mark m -> (
        let t = m.target in
        if is_leaf t then keys_into run ts lo hi t
        else
          match t with
          | Timed l -> timed_into run ts lo hi t l.key ~flagged:m.flagged
          | Entry _ | Internal _ | Mark _ | Version _ ->
            keys_into run ts lo hi t)

  let keys t ts ~lo ~hi run =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    keys_into run ts lo hi t.root;
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    L.recover t.labels ts ~lo ~hi run

  (* every key of the current tree, ascending *)
  let all_keys t =
    let run = Dstruct.Ordered_set.scratch_run ~lo:min_int ~hi:max_int in
    keys t now ~lo:min_int ~hi:max_int run;
    Sync.Key_run.sort_unique run;
    Sync.Key_run.to_array run

  let rec bindings_onto acc ts lo hi node =
    if is_leaf node then acc
    else
      match node with
      | Entry e ->
        if e.key >= lo && e.key <= hi then (e.key, e.value) :: acc else acc
      | Timed _ -> acc
      | Internal n ->
        let acc =
          if hi >= n.ikey then bindings_onto acc ts lo hi n.right else acc
        in
        if lo < n.ikey then bindings_onto acc ts lo hi n.left else acc
      | Version _ -> bindings_onto acc ts lo hi (L.value_at node ts)
      | Mark m -> bindings_onto acc ts lo hi m.target

  let bindings t ts ~lo ~hi =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = bindings_onto [] ts lo hi t.root in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  (* Snapshot: the labeling fixes the cut by advancing the timestamp
     (the reader is the advancing operation); reads then walk the tree at
     that label, and a labeling that unlinks leaves for good recovers
     them. *)
  type snap = L.snap

  let snapshot t = L.snapshot t.labels
  let snap_label = L.snap_label
  let snap_release t s = L.snap_release t.labels s

  let mem_at t s key =
    let ts = snap_label s in
    holds ts key (leaf_at key ts t.root) || L.recovered t.labels key ts

  let find_at t s key =
    let ts = snap_label s in
    binding ts key (leaf_at key ts t.root)

  let keys_at t s ~lo ~hi run = keys t (snap_label s) ~lo ~hi run
  let bindings_at t s ~lo ~hi = bindings t (snap_label s) ~lo ~hi
  let to_list t = Array.to_list (all_keys t)
  let to_alist t = bindings t now ~lo:min_int ~hi:max_int
  let size t = Array.length (all_keys t)

  (* Edges and versions along the left spine; a bare edge is one
     version, the one a pruned chain would keep. *)
  let version_chain_stats t =
    let rec spine edges versions node =
      if is_leaf node then (edges, versions)
      else
        match node with
        | Internal n ->
          spine (edges + 1)
            (versions + L.chain_of n.left)
            (target (current n.left))
        | Entry _ | Timed _ | Mark _ | Version _ -> (edges, versions)
    in
    spine 0 0 t.root
end

(* vCAS: every edge is a {!Link}, labeled by helping.  A walk resolves
   each version at its label, so every leaf it reaches holds its key
   there, flagged or not: a flag or a tag changes nothing a reader sees,
   and an update linearizes at its one versioned write. *)
module Edges (T : Hwts.Timestamp.S) = struct
  module H = Vcas_obj.Helping (T) (Link.Cell (Node))
  module L = Link.Make (Node) (H)

  type t = Rq_registry.t
  type snap = Rq_registry.snap

  let create = Rq_registry.create

  (* A write that only flags or tags a bare edge changes nothing any
     reader sees, at any label: it goes in bare.  Any other write is
     {!Link}'s: a fresh version whose older link is [expected] (the
     edge's chain, or its bare value), so a snapshot labeled before the
     write still reads the old value; it is published (labeled by
     helping), then settled: put back bare at or below the floor, pruned
     otherwise. *)
  let versioned registry parent field expected node =
    let version = L.successor expected node in
    L.cas parent field expected version
    && begin
         H.publish version;
         L.settle registry parent field version;
         true
       end

  let cas registry parent field expected node =
    if Node.is_version expected then
      versioned registry parent field expected node
    else if target node == target expected then
      L.cas parent field expected node
    else versioned registry parent field expected node

  let current = L.current
  let value_at = L.value_at
  let chain_of = L.chain_of

  (* A vCAS tree links no [Timed] leaf. *)
  let visible _ _ ~flagged:_ = true
  let flagging _ _ = ()
  let unlinked _ _ = ()

  let snapshot registry =
    Rq_registry.snapshot registry ~floor:T.read_floor ~label:T.snapshot

  let snap_label = Rq_registry.snap_label
  let snap_release = Rq_registry.snap_release
  let recover _ _ ~lo:_ ~hi:_ _ = ()
  let recovered _ _ _ = false
end
