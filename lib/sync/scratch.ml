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
  (* [ascending]: every push so far was above the one before it. *)
  type t = {
    mutable data : int array;
    mutable len : int;
    mutable ascending : bool;
  }

  let create ?(capacity = 64) () =
    { data = Array.make (max 1 capacity) 0; len = 0; ascending = true }

  let clear b =
    b.len <- 0;
    b.ascending <- true

  let length b = b.len

  let push b x =
    if b.len > 0 && x <= b.data.(b.len - 1) then b.ascending <- false;
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * Array.length b.data) 0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_list b =
    let rec take acc i = if i < 0 then acc else take (b.data.(i) :: acc) (i - 1) in
    take [] (b.len - 1)

  let to_sorted_list b =
    let l = to_list b in
    if b.ascending then l else List.sort_uniq Int.compare l
end
