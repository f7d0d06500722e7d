type ts =
  [ `Logical
  | `Delayed
  | `Multislot
  | `Tl2
  | `Hardware
  | `Hardware_strict ]

(* The one provider registry.  Names, aliases, CLI help text and label
   orders all derive from this table — the drift-prone per-subcommand
   string matches are gone. *)
type info = {
  key : ts;
  name : string;  (* canonical, as artifacts/series spell it *)
  aliases : string list;
  doc : string;  (* one line for --provider help *)
  label_order : Hwts.Labeling.label_order;
}

let registry : info list =
  [
    {
      key = `Logical;
      name = "logical";
      aliases = [];
      doc = "shared fetch-and-add counter (the paper's software baseline)";
      label_order = Hwts.Labeling.raw_order;
    };
    {
      key = `Delayed;
      name = "delayed";
      aliases = [ "delayed-increment" ];
      doc =
        "delayed-increment counter (flock): racers of one tuned spin \
         window share a label";
      label_order = Hwts.Labeling.raw_order;
    };
    {
      key = `Multislot;
      name = "multislot";
      aliases = [ "slots" ];
      doc =
        "summed multi-slot counter (flock): each domain FAAs its own \
         slot, stamp = sum";
      label_order = Hwts.Labeling.raw_order;
    };
    {
      key = `Tl2;
      name = "tl2";
      aliases = [];
      doc =
        "TL2-style epoch stamp (verlib): slot id in the low bits, epochs \
         reused without shared writes";
      (* the low 8 bits are the issuing slot, uniqueness only: two
         labels of one epoch are a tie, not an order *)
      label_order = Hwts.Labeling.epoch_order ~bits:8;
    };
    {
      key = `Hardware;
      name = "rdtscp";
      aliases = [ "hardware" ];
      doc = "raw RDTSCP;LFENCE stamps (ties possible, Section III-A)";
      label_order = Hwts.Labeling.raw_order;
    };
    {
      key = `Hardware_strict;
      name = "rdtscp-strict";
      aliases = [ "sharded" ];
      doc = "strict sharded TSC: slot id in the low bits, no common-path CAS";
      label_order = Hwts.Labeling.raw_order;
    };
  ]

let info_of (ts : ts) = List.find (fun i -> i.key = ts) registry
let ts_name ts = (info_of ts).name
let all_ts : ts list = List.map (fun i -> i.key) registry

let zoo : ts list = [ `Logical; `Delayed; `Multislot; `Tl2; `Hardware_strict ]

let ts_of_name n =
  List.find_map
    (fun i -> if i.name = n || List.mem n i.aliases then Some i.key else None)
    registry

let provider_help () =
  String.concat "\n"
    (List.map
       (fun i ->
         let aliases =
           if i.aliases = [] then ""
           else " (alias " ^ String.concat ", " i.aliases ^ ")"
         in
         Printf.sprintf "  %-18s %s%s" i.name i.doc aliases)
       registry)

(* The reclamation axis mirrors the provider axis: one registry, and
   every name-keyed surface derives from it. *)
type reclaim = [ `Ebr | `Qsbr | `Qsbr_tsc ]

type reclaim_info = {
  rkey : reclaim;
  rname : string;
  raliases : string list;
  rdoc : string;
}

let reclaim_registry : reclaim_info list =
  [
    {
      rkey = `Ebr;
      rname = "ebr";
      raliases = [];
      rdoc =
        "per-op epoch announcements + RCU read sections (the original \
         protocol; default)";
    };
    {
      rkey = `Qsbr;
      rname = "qsbr";
      raliases = [];
      rdoc =
        "quiescence announced only at loop/batch boundaries over a shared \
         epoch counter";
    };
    {
      rkey = `Qsbr_tsc;
      rname = "qsbr-tsc";
      raliases = [ "tsc" ];
      rdoc =
        "boundary quiescence ordered by raw TSC stamps (Ordo-bounded \
         skew); no shared epoch counter";
    };
  ]

let reclaim_info_of (r : reclaim) =
  List.find (fun i -> i.rkey = r) reclaim_registry

let reclaim_name r = (reclaim_info_of r).rname
let all_reclaims : reclaim list = List.map (fun i -> i.rkey) reclaim_registry

let reclaim_of_name n =
  List.find_map
    (fun i ->
      if i.rname = n || List.mem n i.raliases then Some i.rkey else None)
    reclaim_registry

let reclaim_help () =
  String.concat "\n"
    (List.map
       (fun i ->
         let aliases =
           if i.raliases = [] then ""
           else " (alias " ^ String.concat ", " i.raliases ^ ")"
         in
         Printf.sprintf "  %-10s %s%s" i.rname i.rdoc aliases)
       reclaim_registry)

let backend_of : reclaim -> (module Hwts_reclaim.Intf.BACKEND) = function
  | `Ebr -> (module Hwts_reclaim.Ebr_backend)
  | `Qsbr -> (module Hwts_reclaim.Qsbr)
  | `Qsbr_tsc -> (module Hwts_reclaim.Qsbr_tsc)

(* Only the structures built over a reclamation backend respond to the
   axis; sweeping the others across backends would triplicate identical
   legs. *)
let reclaim_sensitive = function
  | "bst-ebrrq-lockfree" | "citrus-vcas" | "citrus-bundle" | "citrus-ebrrq" ->
    true
  | _ -> false

(* [`Hardware_strict] is the sharded strict provider: raw TSC stamps are
   not strictly increasing across domains (the tie corner case of Section
   III-A), so techniques that need strictness get rdtscp wrapped in
   {!Hwts.Timestamp.Strict_sharded} — strict labels without a shared-word
   CAS on the common path.  [`Delayed], [`Multislot] and [`Tl2] are the
   flock/verlib logical-clock optimizations.  The plain
   [`Hardware] series keeps raw [RDTSCP; LFENCE] stamps for comparison
   with the paper's figures. *)

(* Every provider handed to a structure goes through
   {!Hwts.Timestamp.Traced}, so label acquisition shows up as an
   [Acquire] phase in traces for every provider (one dead branch per
   advance when tracing is off). *)
let provider_of (ts : ts) : (module Hwts.Timestamp.S) =
  match ts with
  | `Logical ->
    let module L0 = Hwts.Timestamp.Logical () in
    let module L = Hwts.Timestamp.Traced (L0) in
    (module L)
  | `Delayed ->
    let module D0 = Hwts.Timestamp.Delayed () in
    let module D = Hwts.Timestamp.Traced (D0) in
    (module D)
  | `Multislot ->
    let module M0 = Hwts.Timestamp.Multislot () in
    let module M = Hwts.Timestamp.Traced (M0) in
    (module M)
  | `Tl2 ->
    let module T0 = Hwts.Timestamp.Tl2 () in
    let module T = Hwts.Timestamp.Traced (T0) in
    (module T)
  | `Hardware ->
    let module H = Hwts.Timestamp.Traced (Hwts.Timestamp.Hardware) in
    (module H)
  | `Hardware_strict ->
    let module S0 = Hwts.Timestamp.Strict_sharded (Hwts.Timestamp.Hardware) () in
    let module S = Hwts.Timestamp.Traced (S0) in
    (module S)

type instance = {
  structure : (module Dstruct.Ordered_set.RQ);
  now : unit -> int;
  provider : string;
  reclaim : string; (* reclaim_name of the backend axis value *)
}

(* The structure and [now] share one provider module, so timestamps read
   through [now] are comparable with the labels the structure's range
   queries claim — the invariant the history recorder in [lib/check]
   relies on.  (For a generative logical clock, a second [Logical ()]
   would be a different clock entirely.) *)
let instance_of ?(reclaim = `Ebr) f (ts : ts) : instance =
  let p = provider_of ts in
  let module T = (val p) in
  {
    structure = f p;
    now = T.read;
    provider = ts_name ts;
    reclaim = reclaim_name reclaim;
  }

let bst_vcas_m (module T : Hwts.Timestamp.S) : (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Bst_vcas.Make (T))

let citrus_vcas_m (module R : Hwts_reclaim.Intf.BACKEND)
    (module T : Hwts.Timestamp.S) : (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Citrus_vcas.Make (R) (T))

let citrus_bundle_m (module R : Hwts_reclaim.Intf.BACKEND)
    (module T : Hwts.Timestamp.S) : (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Citrus_bundle.Make (R) (T))

let citrus_ebrrq_m (module R : Hwts_reclaim.Intf.BACKEND)
    (module T : Hwts.Timestamp.S) : (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Citrus_ebrrq.Make (R) (T))

let skiplist_bundle_m (module T : Hwts.Timestamp.S) :
    (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Skiplist_bundle.Make (T))

let skiplist_vcas_m (module T : Hwts.Timestamp.S) :
    (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Skiplist_vcas.Make (T))

let lazylist_bundle_m (module T : Hwts.Timestamp.S) :
    (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Lazylist_bundle.Make (T))

(* The KV map run as a set (unit values): exercises the leaf-replacement
   write path and value plumbing under the same workload as its set
   sibling, so regressions in the KV-only code show up in throughput
   sweeps, not just unit tests. *)
module Kv_as_set (T : Hwts.Timestamp.S) = struct
  module K = Rangequery.Bst_vcas_kv.Make (T)

  module C = struct
    type t = unit K.t

    let name = K.name
    let create () = K.create ()
    let insert t k = K.add t k ()
    let delete t k = K.remove t k
    let contains t k = K.mem t k
    let to_list = K.keys
    let size t = K.size t

    type snap = K.snap

    let snapshot t = K.snapshot t
    let snap_label s = K.snap_label s
    let snap_release t s = K.snap_release t s
    let lookup_at = K.mem_at
    let collect_into = K.keys_into
    let quiesce _ = ()
    let offline _ = ()
  end

  include C
  include Dstruct.Ordered_set.Ranges (C)
end

let bst_vcas_kv_m (module T : Hwts.Timestamp.S) :
    (module Dstruct.Ordered_set.RQ) =
  (module Kv_as_set (T))

let bst_ebrrq_lockfree_m (module R : Hwts_reclaim.Intf.BACKEND)
    (module T : Hwts.Timestamp.S) : (module Dstruct.Ordered_set.RQ) =
  (module Rangequery.Bst_ebrrq_lockfree.Make (R) (T))

let all_instances : (string * (reclaim -> ts -> instance)) list =
  [
    ("bst-vcas", fun r ts -> instance_of ~reclaim:r bst_vcas_m ts);
    ("bst-vcas-kv", fun r ts -> instance_of ~reclaim:r bst_vcas_kv_m ts);
    ( "bst-ebrrq-lockfree",
      fun r ts ->
        instance_of ~reclaim:r (bst_ebrrq_lockfree_m (backend_of r)) ts );
    ( "citrus-vcas",
      fun r ts ->
        instance_of ~reclaim:r (citrus_vcas_m (backend_of r)) ts );
    ( "citrus-bundle",
      fun r ts ->
        instance_of ~reclaim:r (citrus_bundle_m (backend_of r)) ts );
    ( "citrus-ebrrq",
      fun r ts ->
        instance_of ~reclaim:r (citrus_ebrrq_m (backend_of r)) ts );
    ("skiplist-bundle", fun r ts -> instance_of ~reclaim:r skiplist_bundle_m ts);
    ("skiplist-vcas", fun r ts -> instance_of ~reclaim:r skiplist_vcas_m ts);
    ("lazylist-bundle", fun r ts -> instance_of ~reclaim:r lazylist_bundle_m ts);
  ]

let instance ?(reclaim = `Ebr) name ts =
  match List.assoc_opt name all_instances with
  | Some f -> f reclaim ts
  | None -> invalid_arg ("unknown structure: " ^ name)

let bst_vcas ts = (instance "bst-vcas" ts).structure
let citrus_vcas ts = (instance "citrus-vcas" ts).structure
let citrus_bundle ts = (instance "citrus-bundle" ts).structure
let citrus_ebrrq ts = (instance "citrus-ebrrq" ts).structure
let skiplist_bundle ts = (instance "skiplist-bundle" ts).structure
let skiplist_vcas ts = (instance "skiplist-vcas" ts).structure
let lazylist_bundle ts = (instance "lazylist-bundle" ts).structure
let bst_vcas_kv ts = (instance "bst-vcas-kv" ts).structure
let bst_ebrrq_lockfree ts = (instance "bst-ebrrq-lockfree" ts).structure

let all =
  List.map
    (fun (name, f) -> (name, fun ts -> (f `Ebr ts).structure))
    all_instances

(* Linked-list throughput is O(n) in the key range where the trees and
   skiplists are O(log n); sweeping every structure over one shared range
   either starves the list or removes the trees' depth.  Benchmarks that
   compare across structures use this per-structure range so each runs at
   a size its asymptotics can carry. *)
let preferred_key_range name ~default =
  if name = "lazylist-bundle" then min default 1_024 else default
