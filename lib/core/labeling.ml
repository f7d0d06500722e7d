type granularity = Coarse_global_lock | Fine_structural_lock | Helped_lock_free
type address_dependence = Independent | Validates_address

type profile = {
  technique : string;
  granularity : granularity;
  advances_on : [ `Update | `Range_query ];
  address_dependence : address_dependence;
  progress : [ `Blocking | `Lock_free ];
}

let bundling =
  {
    technique = "bundled-references";
    granularity = Fine_structural_lock;
    advances_on = `Update;
    address_dependence = Independent;
    progress = `Blocking;
  }

let vcas =
  {
    technique = "vcas";
    granularity = Helped_lock_free;
    advances_on = `Range_query;
    address_dependence = Independent;
    progress = `Lock_free;
  }

let ebr_rq_lock_based =
  {
    technique = "ebr-rq-lock-based";
    granularity = Coarse_global_lock;
    advances_on = `Range_query;
    address_dependence = Independent;
    progress = `Blocking;
  }

let ebr_rq_lock_free =
  {
    technique = "ebr-rq-lock-free";
    granularity = Helped_lock_free;
    advances_on = `Range_query;
    address_dependence = Validates_address;
    progress = `Lock_free;
  }

let all = [ bundling; vcas; ebr_rq_lock_based; ebr_rq_lock_free ]
let tsc_applicable p = p.address_dependence = Independent

let expected_benefit p =
  match (p.address_dependence, p.granularity, p.progress) with
  | Validates_address, _, _ -> `None
  | _, Coarse_global_lock, _ -> `Low
  | _, Helped_lock_free, `Lock_free -> `High
  | _, (Helped_lock_free | Fine_structural_lock), _ -> `Moderate

(* ---------- label-order comparators ---------- *)

type label_order = { order_name : string; compare_labels : int -> int -> int }

let raw_order = { order_name = "raw"; compare_labels = Int.compare }

let epoch_order ~bits =
  {
    order_name = Printf.sprintf "epoch>>%d" bits;
    compare_labels = (fun x y -> Int.compare (x asr bits) (y asr bits));
  }

let pp_granularity ppf = function
  | Coarse_global_lock -> Format.pp_print_string ppf "coarse(global-lock)"
  | Fine_structural_lock -> Format.pp_print_string ppf "fine(structural-lock)"
  | Helped_lock_free -> Format.pp_print_string ppf "helped(lock-free)"

let pp_profile ppf p =
  Format.fprintf ppf "%s: labeling=%a advances-on=%s address=%s progress=%s"
    p.technique pp_granularity p.granularity
    (match p.advances_on with `Update -> "update" | `Range_query -> "range-query")
    (match p.address_dependence with
    | Independent -> "independent"
    | Validates_address -> "validates-address")
    (match p.progress with `Blocking -> "blocking" | `Lock_free -> "lock-free")
