(* The Citrus tree, shared by the three labeling granularities Section IV
   compares.  vCAS (readers help label a pending version) and Bundling
   (the update labels, readers wait) label every edge through a
   versioned link (Fig. 3); EBR-RQ labels every node with its insertion
   time and the limbo entry that retires it with its deletion time,
   under one global readers-writer lock (Fig. 4).
   The tree, its locks, its relocation and its grace wait are the same
   for all three; a {!LABELING} module supplies what differs.
   Citrus_vcas and Citrus_bundle label through {!Heads}, Citrus_ebrrq
   brings its own labeling. *)

type dir = L | R

(* A tree node is a [Node] (vCAS, Bundling) or a [Timed] node (EBR-RQ),
   one block either way, and an absent child is [Nil], which is no
   block at all.  Both share their first fields: [key] (0), [left] (1),
   [right] (2) and [state] (3, the lock bit and [marked]), which are
   written only through {!Field_lock}, so the field order matters.
   A [Node]'s two label words [w0] (4) and [w1] (5) are its left and
   right labeled links, written through {!Link}.  A [Timed] node keeps
   only its insertion time [itime] (4): its deletion time is needed
   only once it is retired, and rides in its limbo entry.  A [Version]
   is a labeled link's version ({!Link}): it is only ever held by a
   label word, never by [left] or [right], and no version's value is a
   [Version]. *)
type 'w node =
  | Nil
  | Node of {
      key : int;
      mutable left : 'w node; (* raw links *)
      mutable right : 'w node;
      mutable state : int;
      mutable w0 : 'w;
      mutable w1 : 'w;
    }
  | Version of { mutable ts : int; v : 'w node; mutable older : 'w node }
  | Timed of {
      key : int;
      mutable left : 'w node;
      mutable right : 'w node;
      mutable state : int;
      mutable itime : int;
    }

let key_of = function
  | Node { key; _ } | Timed { key; _ } -> key
  | Nil | Version _ -> max_int

let state = function
  | Node { state; _ } | Timed { state; _ } -> state
  | Nil | Version _ -> 0

let marked n = Field_lock.has Field_lock.marked (state n)

let child n d =
  match (n, d) with
  | (Node { left; _ } | Timed { left; _ }), L -> left
  | (Node { right; _ } | Timed { right; _ }), R -> right
  | (Nil | Version _), _ -> Nil

module type LABELING = sig
  type w

  module Reclaim : Hwts_reclaim.Intf.S with type node = w node
  (** Read sections around unlocked traversals and the relocation's
      grace wait, for every labeling; EBR-RQ also retires into it. *)

  type t (* per tree *)

  type link (* a prepared link: its pending version (vCAS, Bundling) *)

  type snap

  val name : string

  val reads_heads : bool
  (** Whether an unlocked step of [find] follows the edge's labeled head
      (vCAS, helping) instead of its raw link (Bundling, EBR-RQ).  A vCAS
      find on raw links fails either way round: a snapshot can help label
      a pending head and finish before the raw link is written, so a later
      [contains] misses the key; with the raw link first, a helper labels
      after the snapshot's label, so the snapshot misses a key an earlier
      [contains] saw.  The flag also decides when the relocation's final
      unlink is labeled (see [delete_two_children]). *)

  val create : w node -> Reclaim.t -> t
  (** Labels the root's words before any snapshot reads them. *)

  val node : int -> w node -> w node -> w node
  (** A new node of the key, with the given left and right children. *)

  (** {1 One labeled write}

      [prepare n d target] every link from [n] toward [d] the write
      changes (holding [n]'s lock), [enter] the labeled section (which
      takes its stamp), label the node it links ([born]) and the nodes it
      unlinks ([dies], after which the core marks each), write the raw
      links, [label] each prepared link, [settle] all but one, and
      [leave] the section with that one. *)

  val prepare : w node -> dir -> w node -> link
  val enter : t -> int
  val born : w node -> int -> unit
  val dies : t -> w node -> int -> unit
  val label : link -> int -> unit

  val settle : t -> w node -> dir -> link -> unit
  (** Settle a labeled link ({!Link.settle}): bare again at or below the
      floor, else pruned. *)

  val leave : t -> w node -> dir -> link -> unit
  (** [settle] the link and leave the section. *)

  (** {1 Snapshot reads} *)

  val snapshot : t -> snap
  val snap_label : snap -> int
  val snap_release : t -> snap -> unit

  val snap_child : w node -> dir -> int -> w node
  (** The child toward [d] at a snapshot label; at [max_int], the newest. *)

  val visible : int -> w node -> bool
  (** Whether a node a snapshot walk reaches holds its key at the label
      (EBR-RQ: never a marked one). *)

  val read_enter : t -> unit
  val read_exit : t -> unit
  (** Bracket a snapshot's walk of the tree. *)

  val collect_limbo : t -> int -> lo:int -> hi:int -> Sync.Key_run.t -> unit
  (** Push the keys in [lo..hi] of unlinked nodes visible at the label. *)
end

module Make (L : LABELING) = struct
  type nonrec node = L.w node

  module F = Field_lock.Make (struct
    type t = node

    let state_field = 3
    let state = state
  end)

  (* The holder of [n]'s lock marks it. *)
  let mark n = F.set n Field_lock.marked

  module Reclaim = L.Reclaim

  type t = { root : node; grace : Reclaim.t; labels : L.t }

  let name = L.name

  let create () =
    let root = L.node Dstruct.Ordered_set.min_key Nil Nil in
    let grace = Reclaim.create () in
    { root; grace; labels = L.create root grace }

  let set_child n d ~was v = F.link n (match d with L -> 1 | R -> 2) ~was v

  (* One unlocked step of [find] from [n] toward [d]. *)
  let step n d = if L.reads_heads then L.snap_child n d max_int else child n d

  (* No walk below allocates but [delete]'s: each is a function of its
     own, not a closure over [key], and [traverse] opens its read section
     with bare [read_lock]/[read_unlock].

     [seek key n] from [n] (the root): the node that holds [key], or the
     node whose empty child toward [key] is where [key] would be
     attached.  The root is never compared against [key], so the two
     answers differ in their key (see [holds]), and the direction to the
     empty slot follows from it. *)
  let rec seek key n =
    match step n (if key < key_of n then L else R) with
    | (Node { key = k; _ } | Timed { key = k; _ }) as c ->
      if k <> key then seek key c else c
    | Nil | Version _ -> n

  let find root key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let n = seek key root in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    n

  (* [(prev, d, n)]: [n] is [prev]'s [d] child and holds [key], or is
     [Nil] where [key] would be attached.  Only [delete] needs [prev]. *)
  let rec walk key prev d n =
    match n with
    | (Node { key = k; _ } | Timed { key = k; _ }) when k <> key ->
      let d' = if key < k then L else R in
      walk key n d' (step n d')
    | Node _ | Timed _ | Nil | Version _ -> (prev, d, n)

  let find_edge root key =
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    let r = walk key root R (step root R) in
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    r

  (* [f t.root key] in a read section, closed on a raise too. *)
  let traverse t f key =
    Reclaim.read_lock t.grace;
    match f t.root key with
    | r ->
      Reclaim.read_unlock t.grace;
      r
    | exception e ->
      Reclaim.read_unlock t.grace;
      raise e

  (* Whether [find]'s answer [n] holds [key]; the root holds no key. *)
  let holds t n key = n != t.root && key_of n = key
  let contains t key = holds t (traverse t find key) key

  (* Label the death of [n] ([Nil] for none), held locked, and mark it,
     inside the labeled section that unlinks it.  The mark follows
     [L.dies]: under EBR-RQ a snapshot walk skips a marked node, and by
     then [L.dies] has retired it into limbo, where the snapshot finds
     it if it holds its key at the snapshot's label. *)
  let dies t n ts =
    if n != Nil then begin
      L.dies t.labels n ts;
      mark n
    end

  (* One labeled write by the holder of [n]'s lock of the link toward [d],
     which it read as [was], linking the fresh [born] or unlinking [dies]
     ([Nil] for none): the stamp is taken before the raw link (the commit
     point unlocked traversals observe), so once a traversal can see the
     change, every later snapshot label covers it.  [born] is labeled
     before it is reachable. *)
  let write t n d ~was v ~born ~dies:gone =
    let link = L.prepare n d v in
    let ts = L.enter t.labels in
    L.born born ts;
    dies t gone ts;
    set_child n d ~was v;
    L.label link ts;
    L.leave t.labels n d link

  (* Re-walk from the root under [prev.lock] and require the walk to end
     at the same empty slot.  "Unmarked and still Nil" is not enough for
     an insert: a successor relocation re-keys a position (the
     replacement carries [succ.key] where [curr.key] stood), so a slot
     chosen by an earlier unlocked traversal can be live and empty yet no
     longer on [key]'s search path — the relocation's final
     [succ_prev.left := succ_right] restores the very [Nil] the stale
     inserter validated, and the attached node would be shadowed
     (reachable by no search, so the key silently vanishes).  A fresh
     walk sees the current routing, and any re-keying that lands between
     this check and the raw link must lock one of the nodes the
     relocation already holds — which includes every attach point it
     moves.  [prev] holds another key, so a walk that ends at it ends at
     its empty slot toward [key]. *)
  let confirm t prev key = find t.root key == prev

  let rec insert t key =
    assert (key > Dstruct.Ordered_set.min_key && key <= Dstruct.Ordered_set.max_key);
    let prev = traverse t find key in
    if holds t prev key then false
    else begin
      let d = if key < key_of prev then L else R in
      F.lock prev;
      let valid =
        (not (marked prev)) && child prev d == Nil && confirm t prev key
      in
      if valid then begin
        let node = L.node key Nil Nil in
        write t prev d ~was:Nil node ~born:node ~dies:Nil;
        F.unlock prev;
        true
      end
      else begin
        F.unlock prev;
        insert t key
      end
    end

  let rec leftmost sprev s =
    match child s L with Nil -> (sprev, s) | nl -> leftmost s nl

  let rec delete t key =
    let prev, d, curr = traverse t find_edge key in
    if curr == Nil then false
    else begin
      F.lock prev;
      F.lock curr;
      let valid =
        (not (marked prev)) && (not (marked curr)) && child prev d == curr
      in
      if not valid then begin
        F.unlock curr;
        F.unlock prev;
        delete t key
      end
      else
        let l = child curr L and r = child curr R in
        if l == Nil then splice_out t prev d curr r
        else if r == Nil then splice_out t prev d curr l
        else delete_two_children t key prev d curr l r
    end

  and splice_out t prev d curr repl =
    write t prev d ~was:curr repl ~born:Nil ~dies:curr;
    F.unlock curr;
    F.unlock prev;
    true

  and delete_two_children t key prev d curr l r =
    let succ_prev, succ = leftmost curr r in
    if succ_prev != curr then F.lock succ_prev;
    F.lock succ;
    let valid =
      (not (marked succ))
      && (not (marked succ_prev))
      && child succ L == Nil
      && if succ_prev == curr then succ == r else child succ_prev L == succ
    in
    if not valid then begin
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      delete t key
    end
    else begin
      let succ_right = child succ R in
      let direct = succ_prev == curr in
      let replacement =
        L.node (key_of succ) l (if direct then succ_right else r)
      in
      (* One section labels the delete of [curr], the relocation of
         [succ] and the birth of its replacement with one stamp.  Where
         finds follow raw links, the final unlink's label joins that
         stamp too, so the whole relocation is a single atomic step for
         snapshots, and the unlink itself is a raw link only.  Where finds
         follow heads, the head is a find's path too, and moves after the
         grace wait below as a write of its own. *)
      let early = (not direct) && not L.reads_heads in
      let link = L.prepare prev d replacement in
      let cut = if early then L.prepare succ_prev L succ_right else link in
      let ts = L.enter t.labels in
      L.born replacement ts;
      dies t curr ts;
      dies t succ ts;
      set_child prev d ~was:curr replacement;
      L.label link ts;
      if early then begin
        L.label cut ts;
        (* the cut's link is final now, though its raw link moves only
           after the grace wait: settling it here keeps no version of
           [succ] once no snapshot needs it *)
        L.settle t.labels succ_prev L cut
      end;
      L.leave t.labels prev d link;
      if not direct then begin
        (* fault injection: labeled and marked, the successor still
           linked under [succ_prev], where walks meet it.  [prev] stays
           locked until it is unlinked: the replacement, and with it the
           successor's key, cannot be deleted while a find can still
           reach the successor. *)
        Sync.Pause.point ();
        (* Unlocked traversals may still be en route to the original
           successor through the old links: drain them before unlinking. *)
        Reclaim.wait_until_quiescent t.grace;
        if early then set_child succ_prev L ~was:succ succ_right
        else write t succ_prev L ~was:succ succ_right ~born:Nil ~dies:Nil
      end;
      F.unlock succ;
      if succ_prev != curr then F.unlock succ_prev;
      F.unlock curr;
      F.unlock prev;
      true
    end

  type snap = L.snap

  let snapshot t = L.snapshot t.labels
  let snap_label = L.snap_label
  let snap_release t s = L.snap_release t.labels s

  (* Range read at a snapshot label.  In-order traversal pushes keys
     ascending; limbo keys land after them, out of order.  Under vCAS
     the relocation is two versioned writes, so a snapshot between them
     meets the relocated key twice; the run's sort drops the duplicate. *)
  let rec walk run ts lo hi = function
    | Nil | Version _ -> ()
    | (Node { key; _ } | Timed { key; _ }) as n ->
      if lo < key then walk run ts lo hi (L.snap_child n L ts);
      if key >= lo && key <= hi && L.visible ts n then Sync.Key_run.push run key;
      if hi > key then walk run ts lo hi (L.snap_child n R ts)

  let collect_into t s ~lo ~hi run =
    let ts = snap_label s in
    Hwts_trace.Span.enter Hwts_trace.Traverse;
    L.read_enter t.labels;
    (match walk run ts lo hi (L.snap_child t.root R ts) with
     | () -> L.read_exit t.labels
     | exception e ->
       L.read_exit t.labels;
       raise e);
    Hwts_trace.Span.exit Hwts_trace.Traverse;
    L.collect_limbo t.labels ts ~lo ~hi run

  (* Point read at the held label: a range read of [key] alone, which
     descends toward it as a directed search would. *)
  let lookup_at t s key =
    let run = Dstruct.Ordered_set.scratch_run ~lo:key ~hi:key in
    collect_into t s ~lo:key ~hi:key run;
    Sync.Key_run.length run > 0

  let to_list t =
    let rec walk acc = function
      | Nil | Version _ -> acc
      | (Node { key; left; right; _ } | Timed { key; left; right; _ }) ->
        walk (key :: walk acc right) left
    in
    walk [] (child t.root R)

  let size t = List.length (to_list t)
  let quiesce t = Reclaim.quiesce t.grace
  let offline t = Reclaim.offline t.grace
end

(* Labels on the edges: each of a node's words is its link on that side
   ({!Link}), the child itself while no snapshot can need the link's
   history, else a [Version].  The constructor is unboxed: a word is the
   node or version itself, and [W] only ties the recursion. *)
type w = W of w node [@@unboxed]

module Versions = struct
  type _ t = w node

  let version ts v older = Version { ts; v; older }
  let is_version = function Version _ -> true | Nil | Node _ | Timed _ -> false

  let value = function
    | Version x -> x.v
    | Nil | Node _ | Timed _ -> invalid_arg "Citrus_core.value: not a version"

  let older = function
    | Version x -> x.older
    | Nil | Node _ | Timed _ -> invalid_arg "Citrus_core.older: not a version"

  let set_older n older =
    match n with
    | Version x -> x.older <- older
    | Nil | Node _ | Timed _ ->
      invalid_arg "Citrus_core.set_older: not a version"
end

module Cell = Link.Cell (Versions)

(* What vCAS and Bundling differ in; {!Heads} builds the rest of their
   labeling from it. *)
module type VERSIONS = sig
  module T : Hwts.Timestamp.S

  module D : Link.LABELING with type 'a t = 'a Versions.t
  (** Who labels a version: {!Vcas_obj.Helping} or {!Bundle.Waiting}
      over {!Cell}. *)

  val name : string

  val reads_heads : bool
  (** As {!LABELING.reads_heads}. *)

  val stamp : unit -> int
  (** Taken once per update before its raw links change.  Bundling
      advances the clock and labels every version the update installs
      with it; vCAS takes none (0) and labels each version by helping. *)

  val label : w node -> int -> unit
  (** Label a just-installed version of the update with its stamp (vCAS:
      publish it, helping if needed). *)

  val snap_label : unit -> int
  (** vCAS: the snapshot advances the clock.  Bundling: a plain read. *)
end

(* Under a node's lock a raw link and its labeled link's value agree;
   locked validation reads the raw links, snapshots the labeled ones.  A
   new node's labeled links start bare: a snapshot reaches the node only
   through the write that links it, at a label at or after it, and every
   snapshot walk starts at the root. *)
module Heads (R : Hwts_reclaim.Intf.BACKEND) (V : VERSIONS) = struct
  type nonrec w = w

  (* The backend is used purely as a grace mechanism here.  Nothing is
     retired: GC keeps a spliced subtree alive for the snapshots that can
     still reach it through older versions. *)
  module Reclaim = R.Make (struct
    type t = w node
  end)

  module Links = Link.Make (Versions) (V.D)

  type t = Rq_registry.t
  type link = w node
  type snap = Rq_registry.snap

  let name = V.name
  let reads_heads = V.reads_heads

  let node key l r =
    Node { key; left = l; right = r; state = 0; w0 = W l; w1 = W r }

  let field = function L -> 4 | R -> 5

  (* the labeled link from [n] toward [d]; [n] is a node *)
  let link n d =
    match (n, d) with
    | Node { w0 = W l; _ }, L | Node { w1 = W l; _ }, R -> l
    | (Nil | Version _ | Timed _), _ ->
      invalid_arg "Citrus_core.link: not a node"

  (* Install a pending version of [target] on the link; [label] labels
     it, [leave] settles it. *)
  let prepare n d target =
    let was = link n d in
    let version = Links.successor was target in
    Links.install n (field d) ~was version;
    version

  let enter _ = V.stamp ()
  let born _ _ = ()
  let create _ _ = Rq_registry.create ()
  let dies _ _ _ = ()
  let label = V.label
  let settle registry n d version = Links.settle registry n (field d) version
  let leave = settle

  (* The announce-slot guard keeps pruning below the captured label for
     the handle's lifetime.  Reads at the held label need no read section
     and no limbo: nothing is retired. *)
  let snapshot registry =
    Rq_registry.snapshot registry ~floor:V.T.read_floor ~label:V.snap_label

  let snap_label = Rq_registry.snap_label
  let snap_release = Rq_registry.snap_release
  let snap_child n d ts = Links.value_at (link n d) ts
  let visible _ _ = true
  let read_enter _ = ()
  let read_exit _ = ()
  let collect_limbo _ _ ~lo:_ ~hi:_ _ = ()

  (* Labeled links and the values they retain, over every node the raw
     links reach from [root]. *)
  let rec stats links values = function
    | Nil | Version _ | Timed _ -> (links, values)
    | Node n as node ->
      let values =
        values + Links.chain_of (link node L) + Links.chain_of (link node R)
      in
      let links, values = stats (links + 2) values n.left in
      stats links values n.right

  let version_chain_stats root = stats 0 0 root
end
