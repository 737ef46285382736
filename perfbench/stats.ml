(* Order statistics and accuracy arithmetic shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Samples strictly above the nearest-rank position of [p]. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

let tail_ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9; 99.99 ]

type tail = { tl_pct : float; tl_value : float; tl_count : int; tl_beyond : int }

(* The tail of [xs]: the highest percentile of [tail_ladder] that still
   has at least ten samples beyond it, so a tail figure never rests on a
   handful of outliers.  Below twenty samples no step qualifies and the
   median is reported, with its (short) count beyond.  [unit] picks the
   percentile for a sample of that size instead, then reads it from all
   of [xs]: a run pooling several campaigns reports the percentile one
   campaign would, measured more precisely. *)
let tail ?unit xs =
  let a = sorted xs in
  let n = Array.length a in
  let rule_n = Option.value ~default:n unit in
  let p =
    List.fold_left
      (fun best p -> if beyond rule_n p >= 10 then p else best)
      50. tail_ladder
  in
  { tl_pct = p; tl_value = percentile_sorted a p; tl_count = n; tl_beyond = beyond n p }

(* Total F1 in percent over a pooled confusion matrix, as Table 4's
   "Total" row pools every class. *)
let f1_pct (c : Wasai_support.Metrics.confusion) =
  100. *. Wasai_support.Metrics.f1 c

let ratio num den = if den = 0. then 0. else num /. den
