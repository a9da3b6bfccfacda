(* Output checks, made apart from the program: against the OCaml golden
   models, against identities the paper's method must satisfy, and
   against an independent Pareto dominance test.  Each returns [Error
   reason] instead of raising, so a failed check fails one operation and
   the run goes on. *)

module Engine = Hypar_core.Engine
module Interp = Hypar_profiling.Interp
module Apps = Hypar_apps

type t = (unit, string) result

let all (checks : (unit -> t) list) =
  List.fold_left (fun acc c -> match acc with Ok () -> c () | e -> e) (Ok ()) checks

let expect cond fmt =
  Printf.ksprintf (fun msg -> if cond then Ok () else Error msg) fmt

let array_of (r : Interp.result) name =
  match List.assoc_opt name r.Interp.arrays with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "no output array %S" name)

let ( let* ) = Result.bind

let same_array ~what got want =
  if Array.length got <> Array.length want then
    Error (Printf.sprintf "%s: %d values, expected %d" what (Array.length got) (Array.length want))
  else
    let rec go i =
      if i = Array.length want then Ok ()
      else if got.(i) <> want.(i) then
        Error (Printf.sprintf "%s differs from the golden model at index %d (%d, expected %d)" what i got.(i) want.(i))
      else go (i + 1)
    in
    go 0

(* --- the applications' outputs ------------------------------------------ *)

let ofdm ~inputs ~golden:(want_re, want_im) (r : Interp.result) =
  let* re = array_of r "out_re" in
  let* im = array_of r "out_im" in
  let* () = same_array ~what:"ofdm out_re" re want_re in
  let* () = same_array ~what:"ofdm out_im" im want_im in
  let sent = List.assoc "bits" inputs in
  let errors = Apps.Decode.ofdm_bit_errors ~sent ~received:(Apps.Decode.ofdm_demodulate ~re ~im) in
  expect (errors = 0) "ofdm: the receiver recovers %d wrong symbol bits" errors

let jpeg ~golden (r : Interp.result) =
  let* bytes = array_of r "out_bytes" in
  let len = golden.Apps.Jpeg.len in
  let* () = expect (Array.length bytes >= len) "jpeg: bitstream buffer shorter than %d bytes" len in
  same_array ~what:"jpeg bitstream" (Array.sub bytes 0 len) (Array.sub golden.Apps.Jpeg.bytes 0 len)

let sobel ~golden (r : Interp.result) =
  let* edges = array_of r "edges" in
  same_array ~what:"sobel edges" edges golden

let adpcm ~golden (r : Interp.result) =
  let* codes = array_of r "adpcm" in
  let* () = same_array ~what:"adpcm codes" codes golden.Apps.Adpcm.codes in
  let* st = array_of r "state" in
  expect
    (Array.length st >= 2
    && st.(0) = golden.Apps.Adpcm.final_predicted
    && st.(1) = golden.Apps.Adpcm.final_index)
    "adpcm: final predictor/index state differs from the golden model"

(* --- the partitioning engine -------------------------------------------- *)

let eq2 ~what (t : Engine.times) =
  expect
    (t.Engine.t_total = t.Engine.t_fpga + t.Engine.t_coarse + t.Engine.t_comm)
    "%s: Eq. 2 broken, t_total %d <> t_fpga %d + t_coarse %d + t_comm %d" what
    t.Engine.t_total t.Engine.t_fpga t.Engine.t_coarse t.Engine.t_comm

let same_times ~what (a : Engine.times) (b : Engine.times) =
  expect (a = b) "%s: times differ (t_total %d vs %d)" what a.Engine.t_total b.Engine.t_total

(* Status against the constraint: met without moves iff the all-FPGA
   mapping fits; [Met_after n] is the first of n steps that fits, and
   every earlier step missed; [Infeasible] never fits. *)
let status (r : Engine.t) =
  let c = r.Engine.timing_constraint in
  let fits (t : Engine.times) = t.Engine.t_total <= c in
  let nsteps = List.length r.Engine.steps in
  let step_flags_ok =
    List.for_all (fun (s : Engine.step) -> s.Engine.meets_constraint = fits s.Engine.times) r.Engine.steps
  in
  let* () = expect step_flags_ok "engine: a step's meets_constraint flag disagrees with its t_total" in
  match r.Engine.status with
  | Engine.Met_without_partitioning ->
    expect (fits r.Engine.initial && nsteps = 0 && r.Engine.moved = [])
      "engine: met-without-partitioning but initial t_total %d > %d or kernels moved"
      r.Engine.initial.Engine.t_total c
  | Engine.Met_after n ->
    let earlier_miss =
      List.for_all (fun (s : Engine.step) -> s.Engine.step_index = n || not (fits s.Engine.times)) r.Engine.steps
    in
    expect
      (n = nsteps && n >= 1 && fits r.Engine.final && (not (fits r.Engine.initial)) && earlier_miss)
      "engine: status met-after-%d disagrees with %d steps / final t_total %d vs constraint %d" n
      nsteps r.Engine.final.Engine.t_total c
  | Engine.Infeasible ->
    expect
      ((not (fits r.Engine.final)) && not (fits r.Engine.initial))
      "engine: status infeasible but final t_total %d meets %d" r.Engine.final.Engine.t_total c

let engine ~evaluate (r : Engine.t) =
  let* () = eq2 ~what:"initial" r.Engine.initial in
  let* () = eq2 ~what:"final" r.Engine.final in
  let* () =
    List.fold_left
      (fun acc (s : Engine.step) ->
        let* () = acc in
        eq2 ~what:(Printf.sprintf "step %d" s.Engine.step_index) s.Engine.times)
      (Ok ()) r.Engine.steps
  in
  let* () =
    match List.rev r.Engine.steps with
    | last :: _ -> same_times ~what:"final vs last step" r.Engine.final last.Engine.times
    | [] -> same_times ~what:"final vs initial" r.Engine.final r.Engine.initial
  in
  let* () = same_times ~what:"evaluate(moved) vs final" (evaluate r.Engine.moved) r.Engine.final in
  let* () = same_times ~what:"evaluate([]) vs initial" (evaluate []) r.Engine.initial in
  status r

(* --- design-space exploration ------------------------------------------ *)

let dominates a b =
  let n = Array.length a in
  let rec go i weak strict =
    if i = n then weak && strict
    else go (i + 1) (weak && a.(i) <= b.(i)) (strict || a.(i) < b.(i))
  in
  go 0 true false

(* [members] and [others] are objective vectors of the frontier and of
   the remaining successful points. *)
let pareto ~members ~others =
  let* () =
    expect
      (List.for_all (fun a -> not (List.exists (fun b -> dominates b a) members)) members)
      "pareto: a frontier member is dominated by another member"
  in
  expect
    (List.for_all (fun a -> List.exists (fun m -> dominates m a) members) others)
    "pareto: a point off the frontier is dominated by no member"

(* At a fixed platform a tighter constraint must never move fewer
   kernels.  [rows] are (platform key, constraint, kernels moved). *)
let monotone rows =
  let by_platform = Hashtbl.create 64 in
  List.iter
    (fun (key, timing, moved) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_platform key) in
      Hashtbl.replace by_platform key ((timing, moved) :: prev))
    rows;
  Hashtbl.fold
    (fun key pts acc ->
      let* () = acc in
      let pts = List.sort compare pts in
      let rec go = function
        | (t1, m1) :: ((t2, m2) :: _ as rest) ->
          if m1 < m2 then
            Error
              (Printf.sprintf "explore %s: constraint %d moved %d kernels, looser %d moved %d" key t1 m1 t2 m2)
          else go rest
        | _ -> Ok ()
      in
      go pts)
    by_platform (Ok ())
