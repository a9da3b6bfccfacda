(* paper-flow: one operation takes OFDM, JPEG, Sobel and ADPCM through the
   whole flow -- Mini-C frontend, -O, profiling on the seeded inputs,
   Eq. 1 kernels, and the Figure 2 engine on the four paper platforms.
   This is the paper's unit of work; the optimizer and the profiling
   interpreter each take about half of it. *)

module Engine = Hypar_core.Engine
module Profile = Hypar_profiling.Profile
module Cdfg = Hypar_ir.Cdfg

type app_run = {
  raw : Cdfg.t;
  opt : Cdfg.t;
  interp : Hypar_profiling.Interp.result;
  profile : Profile.t;
  runs : Engine.t list;
}

let compile (app : Apps.t) =
  match Hypar_minic.Driver.compile ~name:app.Apps.name ~simplify:false ~verify_ir:false app.Apps.source with
  | Ok cdfg -> cdfg
  | Error e -> failwith (Hypar_minic.Driver.string_of_error e)

let flow configs (app : Apps.t) =
  let raw = Meter.span "bench.minic.compile" (fun () -> compile app) in
  let opt = Hypar_ir.Passes.optimize ~verify:false raw in
  let interp, profile =
    Meter.span "bench.profiling.run" (fun () ->
        let interp = Profile.run ~backend:`Compiled ~inputs:app.Apps.inputs opt in
        (interp, Profile.of_result opt interp))
  in
  ignore (Meter.span "bench.analysis.kernels" (fun () -> Hypar_analysis.Kernel.analyse opt profile));
  let runs =
    List.map (fun pl -> Engine.run pl ~timing_constraint:app.Apps.timing_constraint opt profile) configs
  in
  { raw; opt; interp; profile; runs }

let times_key (t : Engine.times) = [ t.Engine.t_fpga; t.Engine.t_coarse_cgc; t.Engine.t_coarse; t.Engine.t_comm; t.Engine.t_total ]

let engine_key (r : Engine.t) =
  ( times_key r.Engine.initial,
    times_key r.Engine.final,
    r.Engine.moved,
    List.map (fun (s : Engine.step) -> times_key s.Engine.times) r.Engine.steps,
    Engine.met r )

(* Everything a check looks at, so an equal key means an equally correct
   result. *)
let key (app : Apps.t) r =
  Digest.string
    (Marshal.to_string
       (app.Apps.name, r.interp.Hypar_profiling.Interp.arrays, Cdfg.total_instrs r.opt, List.map engine_key r.runs)
       [])

let check configs (app : Apps.t) r =
  Checks.all
    ((fun () -> app.Apps.check r.interp)
    :: List.map2
         (fun pl run () ->
           Checks.engine ~evaluate:(Engine.evaluate pl r.opt r.profile) run)
         configs r.runs)

let setup ~seed ~trace:_ =
  let apps = Apps.all ~seed in
  let configs = Hypar_core.Platform.paper_configs () in
  let memo = Meter.memo () in
  let fixed = ref [] in
  let round (ctx : Workload.ctx) =
    ctx.Workload.reference ();
    [ Meter.attempt @@ fun () ->
    let results, t = Meter.timed (fun () -> List.map (flow configs) apps) in
    if ctx.Workload.traced then List.iter (fun r -> Meter.optimizer_split r.raw) results;
    let check =
      Checks.all
        (List.map2
           (fun app r () -> Meter.check_once memo (key app r) (fun () -> check configs app r))
           apps results)
    in
    fixed :=
      ("opt_instrs", float_of_int (List.fold_left (fun n r -> n + Cdfg.total_instrs r.opt) 0 results))
      :: List.map2
           (fun (app : Apps.t) r ->
             ("sim_cycles." ^ app.Apps.name, float_of_int (List.hd r.runs).Engine.final.Engine.t_total))
           apps results;
    Meter.op t check ]
  in
  { Workload.round; fixed = (fun () -> !fixed); layer = Workload.no_layer; close = ignore }

let workload = { Workload.name = "paper-flow"; setup }
