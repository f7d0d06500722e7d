type node = {
  key : int;
  left : node option Atomic.t;
  right : node option Atomic.t;
  lock : Sync.Spinlock.t;
  mutable marked : bool; (* accessed under [lock] only *)
}

(* Read sections and grace waits come from the EBR backend's RCU
   domain; nothing is retired, so no limbo is needed. *)
module Reads = Hwts_reclaim.Ebr_backend.Reads

type t = { root : node (* sentinel: key = min_key, tree in [right] *); rcu_dom : Reads.t }

let name = "citrus"

let make_node key left right =
  {
    key;
    left = Atomic.make left;
    right = Atomic.make right;
    lock = Sync.Spinlock.make ();
    marked = false;
  }

let create () =
  { root = make_node Ordered_set.min_key None None; rcu_dom = Reads.create () }

type dir = L | R

let child n = function L -> n.left | R -> n.right
let dir_of n key = if key < n.key then L else R

(* Returns (prev, dir, found): [found] is the node with [key] if present,
   [prev] the last node on the search path and [dir] the side taken. *)
let find root key =
  let rec walk prev d curr =
    match curr with
    | None -> (prev, d, None)
    | Some n ->
      if n.key = key then (prev, d, Some n)
      else
        let d' = dir_of n key in
        walk n d' (Atomic.get (child n d'))
  in
  walk root R (Atomic.get root.right)

let traverse t key = Reads.with_read t.rcu_dom (fun () -> find t.root key)

let contains t key =
  let _, _, found = traverse t key in
  found <> None

let child_is n d c =
  match Atomic.get (child n d) with Some x -> x == c | None -> false

let rec insert t key =
  assert (key > Ordered_set.min_key && key <= Ordered_set.max_key);
  let prev, d, found = traverse t key in
  match found with
  | Some _ -> false
  | None ->
    Sync.Spinlock.lock prev.lock;
    let valid = (not prev.marked) && Atomic.get (child prev d) = None in
    if valid then begin
      Atomic.set (child prev d) (Some (make_node key None None));
      Sync.Spinlock.unlock prev.lock;
      true
    end
    else begin
      Sync.Spinlock.unlock prev.lock;
      insert t key
    end

(* Leftmost node of the subtree rooted at [start], with its parent
   (initially [parent0]). *)
let leftmost parent0 start =
  let rec walk sprev s =
    match Atomic.get s.left with None -> (sprev, s) | Some nl -> walk s nl
  in
  walk parent0 start

let rec delete t key =
  let prev, d, found = traverse t key in
  match found with
  | None -> false
  | Some curr ->
    Sync.Spinlock.lock prev.lock;
    Sync.Spinlock.lock curr.lock;
    let valid = (not prev.marked) && (not curr.marked) && child_is prev d curr in
    if not valid then begin
      Sync.Spinlock.unlock curr.lock;
      Sync.Spinlock.unlock prev.lock;
      delete t key
    end
    else begin
      let l = Atomic.get curr.left and r = Atomic.get curr.right in
      match (l, r) with
      | None, None ->
        curr.marked <- true;
        Atomic.set (child prev d) None;
        Sync.Spinlock.unlock curr.lock;
        Sync.Spinlock.unlock prev.lock;
        true
      | (Some _ as only), None | None, (Some _ as only) ->
        curr.marked <- true;
        Atomic.set (child prev d) only;
        Sync.Spinlock.unlock curr.lock;
        Sync.Spinlock.unlock prev.lock;
        true
      | Some _, Some right_child ->
        delete_two_children t key prev d curr right_child l r
    end

(* [curr] has two children: replace it by a copy of its in-order successor,
   wait out an RCU grace period, then unlink the successor.  Locks held on
   entry: prev, curr. *)
and delete_two_children t key prev d curr right_child l r =
  let succ_prev, succ = leftmost curr right_child in
  if succ_prev != curr then Sync.Spinlock.lock succ_prev.lock;
  Sync.Spinlock.lock succ.lock;
  let valid =
    (not succ.marked)
    && (not succ_prev.marked)
    && Atomic.get succ.left = None
    &&
    if succ_prev == curr then succ == right_child
    else child_is succ_prev L succ
  in
  if not valid then begin
    Sync.Spinlock.unlock succ.lock;
    if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
    Sync.Spinlock.unlock curr.lock;
    Sync.Spinlock.unlock prev.lock;
    delete t key
  end
  else begin
    let succ_right = Atomic.get succ.right in
    let replacement =
      if succ_prev == curr then
        (* succ is curr's right child: absorb its right subtree directly *)
        make_node succ.key l succ_right
      else make_node succ.key l r
    in
    curr.marked <- true;
    succ.marked <- true;
    Atomic.set (child prev d) (Some replacement);
    if succ_prev != curr then begin
      (* Readers that entered before the replacement may still be heading
         for the original successor: let them drain before unlinking it. *)
      Reads.wait_until_quiescent t.rcu_dom;
      Atomic.set succ_prev.left succ_right
    end;
    Sync.Spinlock.unlock succ.lock;
    if succ_prev != curr then Sync.Spinlock.unlock succ_prev.lock;
    Sync.Spinlock.unlock curr.lock;
    Sync.Spinlock.unlock prev.lock;
    true
  end

let to_list t =
  let rec walk acc = function
    | None -> acc
    | Some n ->
      let acc = walk acc (Atomic.get n.right) in
      walk (n.key :: acc) (Atomic.get n.left)
  in
  walk [] (Atomic.get t.root.right)

let size t = List.length (to_list t)
