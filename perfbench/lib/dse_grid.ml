(* dse-grid: the four applications are prepared in set-up; one operation
   runs Hypar_explore.Driver.run (jobs 1) once per application over a
   fixed grid of distinct platform points.  The paper's own algorithm --
   temporal partitioning, CGC list scheduling and binding, the Eq. 2-4
   engine -- does the work.  No optimizer pass and no interpreter runs,
   so a change to either must show no change here; the IR's liveness
   solver does run, for every point's t_comm and energy pricing. *)

module Engine = Hypar_core.Engine
module Explore = Hypar_explore
module Space = Explore.Space
module Eval = Explore.Eval

(* 3 areas x 3 CGC counts x 2 x 2 geometries x 2 clock ratios x 3
   constraints = 216 points per application. *)
let areas = [ 500; 1500; 5000 ]
let cgcs = [ 1; 2; 3 ]
let rows = [ 1; 2 ]
let cols = [ 2; 4 ]
let clock_ratios = [ 2; 3 ]

(* Constraints as shares of the application's all-FPGA time on the first
   paper platform, so every application sees tight, middle and loose
   points. *)
let timing_shares = [ 0.35; 0.6; 0.9 ]

let space_for (app : Apps.t) prepared =
  let pl = List.hd (Hypar_core.Platform.paper_configs ()) in
  let r = Hypar_core.Flow.partition pl ~timing_constraint:app.Apps.timing_constraint prepared in
  let all_fpga = float_of_int r.Engine.initial.Engine.t_total in
  let timings = List.map (fun s -> int_of_float (s *. all_fpga)) timing_shares in
  Space.make ~areas ~cgcs ~rows ~cols ~clock_ratios ~timings ()

let objectives (p : Space.point) (m : Eval.metrics) = [| p.Space.area; m.Eval.final.Engine.t_total; m.Eval.energy |]

let platform_key (p : Space.point) = Space.point_key { p with Space.timing = 0 }

let check (prepared : Hypar_core.Flow.prepared) (summary : Explore.Driver.t) =
  let indexed =
    Array.to_list summary.Explore.Driver.results
    |> List.mapi (fun i (r : Explore.Driver.point_result) -> (i, r))
  in
  let failed =
    List.filter_map
      (fun (_, (r : Explore.Driver.point_result)) ->
        match r.Explore.Driver.outcome with Error e -> Some e | Ok _ -> None)
      indexed
  in
  let ok =
    List.filter_map
      (fun (i, (r : Explore.Driver.point_result)) ->
        match r.Explore.Driver.outcome with Ok m -> Some (i, r.Explore.Driver.point, m) | Error _ -> None)
      indexed
  in
  let ( let* ) = Result.bind in
  let* () = match failed with [] -> Ok () | e :: _ -> Error ("explore point failed: " ^ e) in
  let* () =
    Checks.all
      (List.map
         (fun (_, p, (m : Eval.metrics)) () ->
           let* () = Checks.eq2 ~what:(Space.point_key p ^ " initial") m.Eval.initial in
           let* () = Checks.eq2 ~what:(Space.point_key p ^ " final") m.Eval.final in
           let evaluate = Engine.evaluate (Eval.platform_of p) prepared.Hypar_core.Flow.cdfg prepared.Hypar_core.Flow.profile in
           let* () = Checks.same_times ~what:(Space.point_key p ^ " evaluate(moved)") (evaluate m.Eval.moved) m.Eval.final in
           Checks.same_times ~what:(Space.point_key p ^ " evaluate([])") (evaluate []) m.Eval.initial)
         ok)
  in
  let* () =
    Checks.monotone
      (List.map (fun (_, p, (m : Eval.metrics)) -> (platform_key p, p.Space.timing, List.length m.Eval.moved)) ok)
  in
  let flags = summary.Explore.Driver.pareto in
  Checks.pareto
    ~members:(List.filter_map (fun (i, p, m) -> if flags.(i) then Some (objectives p m) else None) ok)
    ~others:(List.filter_map (fun (i, p, m) -> if flags.(i) then None else Some (objectives p m)) ok)

let best_cycles (summary : Explore.Driver.t) =
  match summary.Explore.Driver.best_time with
  | None -> 0
  | Some i -> (
    match summary.Explore.Driver.results.(i).Explore.Driver.outcome with
    | Ok m -> m.Eval.final.Engine.t_total
    | Error _ -> 0)

let key name (summary : Explore.Driver.t) =
  Digest.string
    (Marshal.to_string
       ( name,
         Explore.Render.csv summary,
         summary.Explore.Driver.pareto,
         summary.Explore.Driver.best_time )
       [])

let setup ~seed ~trace:_ =
  let apps = Apps.all ~seed in
  let prepared = List.map Apps.prepare apps in
  let spaces = List.map2 space_for apps prepared in
  let memo = Meter.memo () in
  let fixed = ref [] in
  let round (ctx : Workload.ctx) =
    ctx.Workload.reference ();
    [ Meter.attempt @@ fun () ->
    let summaries, t =
      Meter.timed (fun () ->
          List.map2
            (fun p space ->
              match Explore.Driver.run ~jobs:1 p space with
              | Ok s -> s
              | Error e -> failwith e)
            prepared spaces)
    in
    let check =
      Checks.all
        (List.map2
           (fun ((app : Apps.t), p) s () -> Meter.check_once memo (key app.Apps.name s) (fun () -> check p s))
           (List.combine apps prepared) summaries)
    in
    fixed :=
      ("opt_instrs",
        float_of_int (List.fold_left (fun n p -> n + Hypar_ir.Cdfg.total_instrs p.Hypar_core.Flow.cdfg) 0 prepared))
      :: List.map2 (fun (app : Apps.t) s -> ("sim_cycles." ^ app.Apps.name, float_of_int (best_cycles s))) apps summaries;
    Meter.op t check ]
  in
  { Workload.round; fixed = (fun () -> !fixed); layer = Workload.no_layer; close = ignore }

let workload = { Workload.name = "dse-grid"; setup }
