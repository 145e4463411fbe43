(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A percentile is reported only when at least [min_beyond] samples lie
   beyond it: p99 needs 1,000 samples, p90 needs 100. *)
let min_beyond = 10

let supports ~n p = float_of_int n *. (1. -. (p /. 100.)) >= float_of_int min_beyond

(* [percentile p xs] is [Some] the p-th percentile, or [None] when too
   few samples back it. *)
let percentile p xs =
  if supports ~n:(List.length xs) p then Some (quantile xs (p /. 100.)) else None

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* [tail xs] is the highest percentile of the ladder that [xs] supports,
   with its value. *)
let tail xs =
  let n = List.length xs in
  List.find_opt (supports ~n) ladder
  |> Option.map (fun p -> (p, quantile xs (p /. 100.)))
