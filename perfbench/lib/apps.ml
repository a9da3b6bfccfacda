(* The paper's two applications and the repository's two further ones,
   each with inputs drawn from the run's seed and its golden output. *)

module A = Hypar_apps
module Flow = Hypar_core.Flow
module Interp = Hypar_profiling.Interp

type t = {
  name : string;
  source : string;
  inputs : (string * int array) list;
  timing_constraint : int;
  check : Interp.result -> Checks.t;  (** against the golden model *)
}

(* Per-application input seeds, derived from the run's seed. *)
let derive seed k = Hypar_fuzzgen.Rng.derive ~seed k land 0x3FFFFFFF

let all ~seed =
  let ofdm =
    let inputs = A.Ofdm.inputs ~seed:(derive seed 1) () in
    let golden = A.Ofdm.golden inputs in
    { name = "ofdm"; source = A.Ofdm.source; inputs; timing_constraint = A.Ofdm.timing_constraint;
      check = Checks.ofdm ~inputs ~golden }
  in
  let jpeg =
    let inputs = A.Jpeg.inputs ~seed:(derive seed 2) () in
    let golden = A.Jpeg.golden inputs in
    { name = "jpeg"; source = A.Jpeg.source; inputs; timing_constraint = A.Jpeg.timing_constraint;
      check = Checks.jpeg ~golden }
  in
  let sobel =
    let inputs = A.Sobel.inputs ~seed:(derive seed 3) () in
    let golden = A.Sobel.golden inputs in
    { name = "sobel"; source = A.Sobel.source; inputs; timing_constraint = A.Sobel.timing_constraint;
      check = Checks.sobel ~golden }
  in
  let adpcm =
    let inputs = A.Adpcm.inputs ~seed:(derive seed 4) () in
    let golden = A.Adpcm.golden inputs in
    { name = "adpcm"; source = A.Adpcm.source; inputs; timing_constraint = A.Adpcm.timing_constraint;
      check = Checks.adpcm ~golden }
  in
  [ ofdm; jpeg; sobel; adpcm ]

let names = [ "ofdm"; "jpeg"; "sobel"; "adpcm" ]

let sources = [ A.Ofdm.source; A.Jpeg.source; A.Sobel.source; A.Adpcm.source ]

let timing_constraints =
  [ A.Ofdm.timing_constraint; A.Jpeg.timing_constraint; A.Sobel.timing_constraint; A.Adpcm.timing_constraint ]

(* Compiled with -O and profiled on the seeded inputs; the memoised
   [prepared ()] helpers would hide this work after the first call. *)
let prepare app =
  Flow.prepare ~backend:`Compiled ~name:app.name ~verify_ir:false ~inputs:app.inputs app.source

(* Eq. 2 final t_total on the first paper configuration, per app. *)
let first_config_cycles apps prepared =
  let pl = List.hd (Hypar_core.Platform.paper_configs ()) in
  List.map2
    (fun app p ->
      let r = Flow.partition pl ~timing_constraint:app.timing_constraint p in
      ("sim_cycles." ^ app.name, float_of_int r.Hypar_core.Engine.final.Hypar_core.Engine.t_total))
    apps prepared

(* opt_instrs and sim_cycles.* of the applications, for a workload whose
   own operations do not give them. *)
let fixed_metrics apps =
  let prepared = List.map prepare apps in
  ( "opt_instrs",
    float_of_int (List.fold_left (fun n p -> n + Hypar_ir.Cdfg.total_instrs p.Flow.cdfg) 0 prepared) )
  :: first_config_cycles apps prepared
