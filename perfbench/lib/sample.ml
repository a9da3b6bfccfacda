(* Order statistics over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the usual "type 7"
   quantile). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile (sorted xs) 0.5

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest percentile that still has ten samples above it: the sample
   at rank n - 11.  With fewer than forty samples that rank is no tail, so
   [None]. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 40 then None else Some a.(n - 11)
