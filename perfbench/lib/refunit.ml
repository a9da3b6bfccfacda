(* The yardstick every host time is divided by.

   A fixed integer workload over a 256 KiB table: a multiplicative hash
   chooses a slot, the slot is read, mixed and written back, and the
   branch on the mixed value is data dependent.  It exercises the same
   machine resources as the pipeline (integer ALU, L2-resident loads and
   stores, unpredictable branches), so when the machine runs slower or
   faster for a while, the yardstick moves with it and the ratio stays.

   It must not allocate on the OCaml heap and must not call any hypar_*
   library.  If it allocated, a program that grows its heap would also
   slow the yardstick (longer major slices, more cache pollution) and the
   ratio would hide part of the slow-down; if it used the program's code,
   a change to that code would change the unit itself. *)

let size = 1 lsl 15
let mask = size - 1
let table = Array.init size (fun i -> (i * 0x9E3779B1) land 0xFFFFFF)
let iterations = 400_000

let work () =
  let h = ref 0x2545F491 in
  let acc = ref 0 in
  for i = 1 to iterations do
    h := ((!h * 0x5DEECE66D) + i) land 0x3FFFFFFFFFFF;
    let j = (!h lsr 11) land mask in
    let v = table.(j) lxor !h in
    table.(j) <- v land 0xFFFFFF;
    if v land 1 = 0 then acc := !acc + (v lsr 3) else acc := !acc lxor v
  done;
  !acc

(* The median time of [work] on the machine the bounds were set on (a
   2-vCPU Xeon VM at 2.1 GHz, see README.md); [setup_s] converts set-up
   time from reference units back to seconds with it. *)
let nominal_ms = 4.5

(* One measurement, in milliseconds.  The clock reads box their float
   results, outside the timed work. *)
let sample_ms () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  (Unix.gettimeofday () -. t0) *. 1e3
