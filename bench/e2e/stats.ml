(* Exact order statistics over raw samples.  Latency percentiles are not
   read from Hwts_obs.Histogram: its buckets are ~25% wide, wider than
   the 10% regression bounds the benchmark gates on. *)

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it.  [sorted] must be ascending and non-empty. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Percentile of unsorted integer samples; 0 when there are none. *)
let percentile a p =
  if Array.length a = 0 then 0 else nearest_rank (sorted_copy a) p

let mean a =
  if Array.length a = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(* The middle value; the mean of the two middle values for an even count. *)
let median = function
  | [] -> invalid_arg "Stats.median: no values"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then 0. else num /. den
