(* Per-domain scratch reuse.  A [Scratch.t] hands each domain one lazily
   created instance of some mutable workspace (traversal arrays, collection
   buffers) so hot paths stop allocating them per operation.  The global
   kill switch ([HWTS_SCRATCH=0] or [set_enabled false]) reverts to fresh
   allocation on every [get] — the pre-reuse behavior — which is what the
   hotpath microbench uses as its baseline. *)

let initial =
  match Sys.getenv_opt "HWTS_SCRATCH" with
  | Some ("0" | "false" | "off" | "no") -> false
  | _ -> true

let state = Padding.atomic initial
let enabled () = Atomic.get state
let set_enabled b = Atomic.set state b

type 'a t = { create : unit -> 'a; key : 'a Domain.DLS.key }

let make create = { create; key = Domain.DLS.new_key create }
let get t = if Atomic.get state then Domain.DLS.get t.key else t.create ()

module Int_buffer = struct
  (* Segment [i] holds [first lsl i] slots up to [cap], and [cap] from
     segment 7 on, so segment boundaries fall at 64, 192, 448, ...,
     16320, 24512, ...: growth allocates the next segment and copies
     nothing, and growing to [n] keys allocates fewer than [n + cap]
     slots.  A [clear] keeps every segment for the next fill.  [cur] is
     [segs.(seg)], the segment being filled; [last] the latest push;
     [ascending]: every push so far was above the one before it. *)
  let first = 64
  let cap = 8192
  let size i = if i < 7 then first lsl i else cap (* first lsl 7 = cap *)

  type t = {
    mutable segs : int array array;
    mutable seg : int;
    mutable cur : int array;
    mutable pos : int;
    mutable len : int;
    mutable last : int;
    mutable ascending : bool;
  }

  let create () =
    let s0 = Array.make first 0 in
    {
      segs = [| s0 |];
      seg = 0;
      cur = s0;
      pos = 0;
      len = 0;
      last = 0;
      ascending = true;
    }

  let clear b =
    b.seg <- 0;
    b.cur <- b.segs.(0);
    b.pos <- 0;
    b.len <- 0;
    b.ascending <- true

  let length b = b.len

  let next_segment b =
    let i = b.seg + 1 in
    if i = Array.length b.segs then
      b.segs <- Array.append b.segs [| Array.make (size i) 0 |];
    b.seg <- i;
    b.cur <- b.segs.(i);
    b.pos <- 0

  let push b x =
    if b.len > 0 && x <= b.last then b.ascending <- false;
    if b.pos = Array.length b.cur then next_segment b;
    b.cur.(b.pos) <- x;
    b.pos <- b.pos + 1;
    b.len <- b.len + 1;
    b.last <- x

  let to_array b =
    let r = Array.make b.len 0 in
    let off = ref 0 in
    for i = 0 to b.seg do
      let n = if i = b.seg then b.pos else size i in
      Array.blit b.segs.(i) 0 r !off n;
      off := !off + n
    done;
    r

  (* Sort in place, then squeeze out duplicates; only a buffer that
     held one needs a second, exact-size block. *)
  let to_sorted_array b =
    let r = to_array b in
    if b.ascending then r
    else begin
      Array.sort Int.compare r;
      let n = ref 0 in
      Array.iter
        (fun x ->
          if !n = 0 || x <> r.(!n - 1) then begin
            r.(!n) <- x;
            incr n
          end)
        r;
      if !n = Array.length r then r else Array.sub r 0 !n
    end
end
