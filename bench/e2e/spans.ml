(* Spans recorded from the benchmark's own files around the calls into
   each layer.  One buffer per writer (a rung, or a domain of the direct
   rung), preallocated, so recording allocates nothing; a full buffer
   drops further spans.  Spans of one request share its index as [req]. *)

let layers =
  [|
    "server.request";
    "shards.submit";
    "struct.op";
    "snapshot.acquire";
    "snapshot.read";
    "snapshot.close";
  |]

let server_request = 0
let shards_submit = 1
let struct_op = 2
let snapshot_acquire = 3
let snapshot_read = 4
let snapshot_close = 5

(* One request in [sample] gets spans. *)
let sample = 16
let sampled req = req mod sample = 0

type buf = {
  rung : string;
  tid : int;
  req : int array;
  parent : int array;  (** index of the parent span in this buffer, or -1 *)
  layer : int array;
  t0 : int array;
  t1 : int array;
  mutable n : int;
}

let create ~rung ~tid cap =
  let z () = Array.make cap 0 in
  { rung; tid; req = z (); parent = z (); layer = z (); t0 = z (); t1 = z (); n = 0 }

(* Returns the span's index, to pass as [parent] of its children; a
   parent is added before its children. *)
let add b ~req ~parent ~layer ~t0 ~t1 =
  let i = b.n in
  if i < Array.length b.req then begin
    b.req.(i) <- req;
    b.parent.(i) <- parent;
    b.layer.(i) <- layer;
    b.t0.(i) <- t0;
    b.t1.(i) <- t1;
    b.n <- i + 1
  end;
  i

(* Close a span opened with [~t1:0], after its children were added. *)
let finish b i t1 = if i >= 0 && i < b.n then b.t1.(i) <- t1

(* Mean self time per layer over [bufs], converted by [to_ns]. *)
let self_means ~to_ns bufs =
  let sum = Array.make (Array.length layers) 0. in
  let cnt = Array.make (Array.length layers) 0 in
  List.iter
    (fun b ->
      (* children follow their parent, so one backward pass sums them *)
      let kids = Array.make b.n 0 in
      for i = b.n - 1 downto 0 do
        let own = b.t1.(i) - b.t0.(i) in
        let p = b.parent.(i) in
        if p >= 0 then kids.(p) <- kids.(p) + own;
        sum.(b.layer.(i)) <- sum.(b.layer.(i)) +. to_ns (own - kids.(i));
        cnt.(b.layer.(i)) <- cnt.(b.layer.(i)) + 1
      done)
    bufs;
  Array.mapi
    (fun l name ->
      (name, cnt.(l), if cnt.(l) = 0 then 0. else sum.(l) /. float_of_int cnt.(l)))
    layers

(* Chrome trace_event JSON (load in Perfetto or chrome://tracing): one
   process per rung, one thread per buffer. [to_ns] converts each
   buffer's clock; times are shown relative to each rung's first span. *)
let write_chrome path (rungs : (string * (int -> float) * buf list) list) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun pid (_, to_ns, bufs) ->
      let base =
        List.fold_left
          (fun m b -> if b.n > 0 then min m b.t0.(0) else m)
          max_int bufs
      in
      List.iter
        (fun b ->
          for i = 0 to b.n - 1 do
            if not !first then output_char oc ',';
            first := false;
            Printf.fprintf oc
              "\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\
               \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"span\":%d,\"parent\":%d}}"
              layers.(b.layer.(i)) b.rung pid b.tid
              (to_ns (b.t0.(i) - base) /. 1e3)
              (to_ns (b.t1.(i) - b.t0.(i)) /. 1e3)
              b.req.(i) i b.parent.(i)
          done)
        bufs)
    rungs;
  List.iteri
    (fun pid (name, _, _) ->
      Printf.fprintf oc
        ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%S}}"
        pid name)
    rungs;
  output_string oc "\n]}\n"
