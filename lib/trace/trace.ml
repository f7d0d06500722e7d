(* Per-domain ring buffers of TSC-stamped span events.

   The paper's claim is about *where cycles go inside an operation* —
   label acquisition vs. traversal vs. CAS contention — so whole-op
   histograms (lib/obs) are not enough.  This module records begin/end
   events for a small fixed set of phases into per-slot rings, with a
   kill switch and a sampling period so that the off path costs one
   DLS read and one branch per hook, and the on path two integer array
   stores plus one RDTSCP per event (no allocation either way).

   One writer per ring: a ring belongs to a {!Sync.Slot}, and slots are
   per-domain, so [emit] never races with another writer.  Readers
   (exporters) run after the workers quiesce. *)

module Config = struct
  (* Tracing is opt-in, unlike HWTS_OBS: a ring per domain costs memory
     and the analysis only makes sense for runs that asked for it. *)
  let initial =
    match Sys.getenv_opt "HWTS_TRACE" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false

  let state = Atomic.make initial
  let enabled () = Atomic.get state
  let set_enabled b = Atomic.set state b

  let env_int name default =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> default

  let sample = Atomic.make (env_int "HWTS_TRACE_SAMPLE" 1)
  let sample_period () = Atomic.get sample
  let set_sample_period n = Atomic.set sample (max 1 n)

  (* Ring capacity in events, rounded up to a power of two so the wrap
     is a mask.  Fixed at load: rings are reallocated lazily per slot. *)
  let capacity =
    let requested = env_int "HWTS_TRACE_CAP" 16_384 in
    let rec up k = if k >= requested then k else up (k * 2) in
    up 64

  let stall = Atomic.make (env_int "HWTS_TRACE_STALL" 500_000_000)
  let stall_budget () = Atomic.get stall
  let set_stall_budget n = Atomic.set stall (max 1 n)
end

(* The three phases the paper's analysis turns on, plus the op bracket
   itself, bundle label waits, and snapshot handles. *)
type phase =
  | Op  (** the whole operation, bracketed by the harness *)
  | Acquire  (** timestamp/label acquisition: advance/snapshot, registry *)
  | Traverse  (** structure traversal: seek/find/search and RQ collection *)
  | Ebr  (** EBR enter/exit bookkeeping (epoch gate) *)
  | Reclaim  (** limbo-list trimming *)
  | Wait  (** spinning on an unlabeled bundle entry *)
  | Snapshot
      (** a snapshot handle's lifetime (span), and each constituent
          multi-point read against it (instant) *)

let phase_count = 7

let phase_index = function
  | Op -> 0
  | Acquire -> 1
  | Traverse -> 2
  | Ebr -> 3
  | Reclaim -> 4
  | Wait -> 5
  | Snapshot -> 6

let phases = [| Op; Acquire; Traverse; Ebr; Reclaim; Wait; Snapshot |]

let phase_of_index i =
  let i = i land 15 in
  if i < phase_count then phases.(i) else Op

let phase_name = function
  | Op -> "op"
  | Acquire -> "acquire"
  | Traverse -> "traverse"
  | Ebr -> "ebr"
  | Reclaim -> "reclaim"
  | Wait -> "wait"
  | Snapshot -> "snapshot"

(* Operation classes, matching Workload.Harness.op_classes + a "none"
   slot for spans recorded outside any harness bracket. *)
let class_names =
  [| "none"; "insert"; "delete"; "contains"; "range"; "multiget"; "multirange" |]
let class_count = Array.length class_names

(* ---------- event encoding ----------

   One event = two ints: the TSC stamp and a packed word
     bits 0-1  kind (0 = begin, 1 = end, 2 = instant)
     bits 2-5  phase index
     bits 6-8  op class
     bits 9+   aux payload (snapshot read count) *)

let kind_begin = 0
let kind_end = 1
let kind_instant = 2
let pack ~kind ~phase ~cls ~aux = kind lor (phase lsl 2) lor (cls lsl 6) lor (aux lsl 9)

type ring = { stamps : int array; words : int array; mutable pos : int }

(* Indexed by slot id; the option cell is only written at ring creation
   and [reset], the hot stores all land in the ring's own arrays. *)
let rings : ring option Atomic.t array =
  Array.init Sync.Slot.max_slots (fun _ -> Atomic.make None)

let emit stamp word =
  let cell = rings.(Sync.Slot.my_slot ()) in
  let r =
    match Atomic.get cell with
    | Some r -> r
    | None ->
      let r =
        {
          stamps = Array.make Config.capacity 0;
          words = Array.make Config.capacity 0;
          pos = 0;
        }
      in
      Atomic.set cell (Some r);
      r
  in
  let i = r.pos land (Config.capacity - 1) in
  r.stamps.(i) <- stamp;
  r.words.(i) <- word;
  r.pos <- r.pos + 1

(* ---------- per-domain span state ----------

   The sampling decision is taken once per op ([Op.begin_]) and cached
   in domain-local state; every other hook tests only that cached bit.
   This is what makes mid-run [Config.set_enabled] flips safe: an op
   that began traced closes traced ([Op.end_] consults the snapshot,
   not the global switch), so brackets stay balanced. *)

type dstate = {
  mutable active : bool;  (** the current op was sampled *)
  mutable tick : int;  (** ops since the last sampled one *)
  mutable cls : int;  (** class of the current op, for event words *)
  mutable depth : int;
  stack : int array;  (** open phase indices, innermost last *)
  mutable op_entered : bool;  (** ops_inflight bracket snapshot *)
}

let dstate_key =
  Domain.DLS.new_key (fun () ->
      {
        active = false;
        tick = 0;
        cls = 0;
        depth = 0;
        stack = Array.make 32 0;
        op_entered = false;
      })

let state () = Domain.DLS.get dstate_key

(* Spans closed out of order (or leaked past [Op.end_]) are counted, not
   raised: tracing must never change control flow. *)
let exit_mismatch = Hwts_obs.Registry.counter "trace.exit_mismatch"

(* Ops currently inside a begin_/end_ bracket — a depth gauge recorded
   through the drift-proof Counter.enter/exit bracket. *)
let ops_inflight = Hwts_obs.Registry.counter "trace.ops_inflight"

module Span = struct
  let enter phase =
    let d = state () in
    if d.active then begin
      let pi = phase_index phase in
      if d.depth < Array.length d.stack then begin
        d.stack.(d.depth) <- pi;
        d.depth <- d.depth + 1
      end;
      emit (Tsc.rdtscp ()) (pack ~kind:kind_begin ~phase:pi ~cls:d.cls ~aux:0)
    end

  let exit_n phase n =
    let d = state () in
    if d.active then begin
      let pi = phase_index phase in
      if d.depth > 0 && d.stack.(d.depth - 1) = pi then d.depth <- d.depth - 1
      else Hwts_obs.Counter.incr exit_mismatch;
      emit (Tsc.rdtscp ()) (pack ~kind:kind_end ~phase:pi ~cls:d.cls ~aux:n)
    end

  let exit phase = exit_n phase 0
end

let instant ?(aux = 0) phase =
  let d = state () in
  if d.active then
    emit (Tsc.rdtscp ())
      (pack ~kind:kind_instant ~phase:(phase_index phase) ~cls:d.cls ~aux)

module Op = struct
  let begin_ cls =
    if Config.enabled () then begin
      let d = state () in
      d.tick <- d.tick + 1;
      if d.tick >= Atomic.get Config.sample then begin
        d.tick <- 0;
        d.active <- true;
        d.cls <- cls land 7;
        d.depth <- 0;
        d.op_entered <- Hwts_obs.Counter.enter ops_inflight;
        emit (Tsc.rdtscp ()) (pack ~kind:kind_begin ~phase:0 ~cls:d.cls ~aux:0)
      end
    end

  let end_ () =
    let d = state () in
    if d.active then begin
      (* Spans the op leaked (early return, exception) are force-closed
         here so the next op starts with a clean stack. *)
      if d.depth <> 0 then begin
        Hwts_obs.Counter.add exit_mismatch d.depth;
        d.depth <- 0
      end;
      emit (Tsc.rdtscp ()) (pack ~kind:kind_end ~phase:0 ~cls:d.cls ~aux:0);
      d.active <- false;
      Hwts_obs.Counter.exit ops_inflight ~entered:d.op_entered;
      d.op_entered <- false;
      d.cls <- 0
    end
end

let reset () =
  Array.iter (fun c -> Atomic.set c None) rings;
  Hwts_obs.Counter.reset exit_mismatch;
  Hwts_obs.Counter.reset ops_inflight

let reset_local () =
  let d = state () in
  d.active <- false;
  d.tick <- 0;
  d.cls <- 0;
  d.depth <- 0;
  d.op_entered <- false

(* ---------- decoding & analysis ---------- *)

type event = {
  slot : int;
  stamp : int;
  kind : int;
  phase : phase;
  cls : int;
  aux : int;
}

(* Oldest-to-newest per slot: once the ring wraps, the live window is
   the last [capacity] events ending at [pos]. *)
let slot_events slot =
  match Atomic.get rings.(slot) with
  | None -> []
  | Some r ->
    let n = min r.pos Config.capacity in
    let start = r.pos - n in
    List.init n (fun j ->
        let i = (start + j) land (Config.capacity - 1) in
        let w = r.words.(i) in
        {
          slot;
          stamp = r.stamps.(i);
          kind = w land 3;
          phase = phase_of_index ((w lsr 2) land 15);
          cls = (w lsr 6) land 7;
          aux = w lsr 9;
        })

let events () =
  List.concat (List.init Sync.Slot.max_slots slot_events)

type op_record = {
  op_cls : int;
  op_start : int;
  op_total : int;  (** cycles, op begin to op end *)
  op_phases : int array;  (** cycles attributed per phase index *)
}

(* Pair begin/end events within one slot's stream.  The open-span stack
   mirrors the writer's discipline; events from before the current op's
   begin (ring overwrite can orphan an end) are dropped silently. *)
let slot_op_records slot =
  let records = ref [] in
  let open_op = ref None in
  let phases = Array.make phase_count 0 in
  let stack = ref [] in
  let flush_op e start =
    records :=
      {
        op_cls = e.cls;
        op_start = start;
        op_total = e.stamp - start;
        op_phases = Array.copy phases;
      }
      :: !records
  in
  List.iter
    (fun e ->
      let pi = phase_index e.phase in
      if e.kind = kind_begin then
        if pi = 0 then begin
          open_op := Some e.stamp;
          Array.fill phases 0 phase_count 0;
          stack := []
        end
        else stack := (pi, e.stamp) :: !stack
      else if e.kind = kind_end then
        if pi = 0 then begin
          (match !open_op with Some start -> flush_op e start | None -> ());
          open_op := None
        end
        else
          match List.assoc_opt pi !stack with
          | Some b ->
            phases.(pi) <- phases.(pi) + (e.stamp - b);
            stack := List.remove_assoc pi !stack
          | None -> ())
    (slot_events slot);
  List.rev !records

let op_records () =
  List.concat (List.init Sync.Slot.max_slots slot_op_records)

(* ---------- stall watchdog ---------- *)

type stall = {
  stall_slot : int;
  stall_phase : phase;
  stall_cls : int;
  stall_cycles : int;
  stall_open : bool;  (** true: still unclosed at scan time *)
}

let stalls ?budget () =
  let budget =
    match budget with Some b -> b | None -> Config.stall_budget ()
  in
  let out = ref [] in
  for slot = 0 to Sync.Slot.max_slots - 1 do
    let evs = slot_events slot in
    let now = List.fold_left (fun acc e -> max acc e.stamp) 0 evs in
    let stack = ref [] in
    List.iter
      (fun e ->
        if e.kind = kind_begin then stack := (e.phase, e.cls, e.stamp) :: !stack
        else if e.kind = kind_end then begin
          (match !stack with
          | (ph, cls, b) :: rest when ph = e.phase ->
            stack := rest;
            if e.stamp - b > budget then
              out :=
                {
                  stall_slot = slot;
                  stall_phase = ph;
                  stall_cls = cls;
                  stall_cycles = e.stamp - b;
                  stall_open = false;
                }
                :: !out
          | _ -> ())
        end)
      evs;
    List.iter
      (fun (ph, cls, b) ->
        if now - b > budget then
          out :=
            {
              stall_slot = slot;
              stall_phase = ph;
              stall_cls = cls;
              stall_cycles = now - b;
              stall_open = true;
            }
            :: !out)
      !stack
  done;
  List.rev !out

(* ---------- tail attribution ---------- *)

type band = {
  band_label : string;
  band_ops : int;
  band_mean_cycles : float;
  band_phase_means : (string * float) list;
      (** per-phase mean cycles, plus ["other"] = op total minus the sum
          of instrumented phases *)
  band_dominant : string;
  band_dominant_share : float;
}

type attribution = { attr_class : string; attr_ops : int; attr_bands : band list }

(* Disjoint rank bands: the middle fifth around the median, the p99
   shoulder, and the extreme tail.  Phases can overlap (a CAS burst
   inside a traversal span counts in both), so shares are of the op
   total, not of a partition. *)
let bands_spec = [ ("p50", 0.40, 0.60); ("p99", 0.98, 0.995); ("p999", 0.995, 1.0) ]

let attribute_band label ops =
  let n = List.length ops in
  let totals = List.map (fun r -> float_of_int r.op_total) ops in
  let mean xs =
    if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float_of_int n
  in
  let mean_total = mean totals in
  let phase_mean pi =
    mean (List.map (fun r -> float_of_int r.op_phases.(pi)) ops)
  in
  let named =
    List.filter_map
      (fun ph ->
        if ph = Op then None
        else Some (phase_name ph, phase_mean (phase_index ph)))
      (Array.to_list phases)
  in
  let accounted = List.fold_left (fun a (_, v) -> a +. v) 0. named in
  let named = named @ [ ("other", Float.max 0. (mean_total -. accounted)) ] in
  let dominant, dval =
    List.fold_left
      (fun (bn, bv) (n', v) -> if v > bv then (n', v) else (bn, bv))
      ("other", -1.) named
  in
  {
    band_label = label;
    band_ops = n;
    band_mean_cycles = mean_total;
    band_phase_means = named;
    band_dominant = dominant;
    band_dominant_share = (if mean_total > 0. then dval /. mean_total else 0.);
  }

let tail_attribution () =
  let all = op_records () in
  List.filter_map
    (fun cls ->
      let ops =
        List.sort
          (fun a b -> compare a.op_total b.op_total)
          (List.filter (fun r -> r.op_cls = cls) all)
      in
      let n = List.length ops in
      if n = 0 then None
      else
        let arr = Array.of_list ops in
        let band (label, lo, hi) =
          let i0 = int_of_float (float_of_int n *. lo) in
          let i1 = max (i0 + 1) (int_of_float (float_of_int n *. hi)) in
          let i1 = min i1 n in
          let i0 = min i0 (i1 - 1) in
          attribute_band label (Array.to_list (Array.sub arr i0 (i1 - i0)))
        in
        Some
          {
            attr_class = class_names.(cls);
            attr_ops = n;
            attr_bands = List.map band bands_spec;
          })
    (List.init (class_count - 1) (fun i -> i + 1))

(* ---------- exporters ---------- *)

module J = Hwts_obs.Json

let attribution_json ?structure ?provider a =
  List.map
    (fun b ->
      J.Obj
        ([ ("name", J.Str "trace.tailattr"); ("type", J.Str "tailattr") ]
        @ (match structure with None -> [] | Some s -> [ ("structure", J.Str s) ])
        @ (match provider with None -> [] | Some p -> [ ("provider", J.Str p) ])
        @ [
            ("class", J.Str a.attr_class);
            ("band", J.Str b.band_label);
            ("ops", J.Int b.band_ops);
            ("mean_cycles", J.Float b.band_mean_cycles);
            ("dominant", J.Str b.band_dominant);
            ("dominant_share", J.Float b.band_dominant_share);
            ( "phases",
              J.Obj (List.map (fun (n, v) -> (n, J.Float v)) b.band_phase_means)
            );
          ]))
    a.attr_bands

let stall_json s =
  J.Obj
    [
      ("name", J.Str "trace.stall");
      ("type", J.Str "stall");
      ("slot", J.Int s.stall_slot);
      ("phase", J.Str (phase_name s.stall_phase));
      ("class", J.Str class_names.(s.stall_cls));
      ("cycles", J.Int s.stall_cycles);
      ("open", J.Bool s.stall_open);
    ]

let to_json_lines ?structure ?provider () =
  let attrs = tail_attribution () in
  let sts = stalls () in
  let summary =
    J.Obj
      [
        ("name", J.Str "trace.summary");
        ("type", J.Str "trace_summary");
        ("events", J.Int (List.length (events ())));
        ("sampled_ops", J.Int (List.length (op_records ())));
        ("sample_period", J.Int (Config.sample_period ()));
        ("stalls", J.Int (List.length sts));
        ( "exit_mismatch",
          J.Int (Hwts_obs.Counter.sum exit_mismatch) );
      ]
  in
  let lines =
    (summary :: List.concat_map (attribution_json ?structure ?provider) attrs)
    @ List.map stall_json sts
  in
  String.concat "" (List.map (fun l -> J.to_string l ^ "\n") lines)

(* Chrome trace_event JSON (load in chrome://tracing or Perfetto): one
   complete "X" event per paired span, "i" instants for point events,
   a bare "B" for spans still open when the capture ended. *)
let to_chrome_json () =
  let evs = events () in
  let t0 = List.fold_left (fun acc e -> min acc e.stamp) max_int evs in
  let cyc_per_us = Tsc.cycles_per_ns () *. 1000. in
  let us stamp = float_of_int (stamp - t0) /. cyc_per_us in
  let name e =
    if e.phase = Op then "op:" ^ class_names.(e.cls) else phase_name e.phase
  in
  let out = ref [] in
  for slot = 0 to Sync.Slot.max_slots - 1 do
    let stack = ref [] in
    List.iter
      (fun e ->
        if e.kind = kind_instant then
          out :=
            J.Obj
              [
                ("name", J.Str (name e));
                ("ph", J.Str "i");
                ("s", J.Str "t");
                ("ts", J.Float (us e.stamp));
                ("pid", J.Int 0);
                ("tid", J.Int slot);
                ("args", J.Obj [ ("aux", J.Int e.aux) ]);
              ]
            :: !out
        else if e.kind = kind_begin then stack := e :: !stack
        else
          match !stack with
          | b :: rest when b.phase = e.phase ->
            stack := rest;
            out :=
              J.Obj
                [
                  ("name", J.Str (name b));
                  ("ph", J.Str "X");
                  ("ts", J.Float (us b.stamp));
                  ("dur", J.Float (us e.stamp -. us b.stamp));
                  ("pid", J.Int 0);
                  ("tid", J.Int slot);
                  ("args", J.Obj [ ("aux", J.Int e.aux) ]);
                ]
              :: !out
          | _ -> ())
      (slot_events slot);
    List.iter
      (fun b ->
        out :=
          J.Obj
            [
              ("name", J.Str (name b));
              ("ph", J.Str "B");
              ("ts", J.Float (us b.stamp));
              ("pid", J.Int 0);
              ("tid", J.Int slot);
            ]
          :: !out)
      !stack
  done;
  J.to_string
    (J.Obj
       [
         ("displayTimeUnit", J.Str "ns");
         ("traceEvents", J.List (List.rev !out));
       ])

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_chrome_json ());
      output_char oc '\n')
