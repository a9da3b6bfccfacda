(* The benchmark's own tests: every output check rejects a deliberately
   corrupted result, the deterministic metrics repeat exactly across two
   runs, the seed reaches the inputs, and the yardstick does not
   allocate. *)

open Perfbench
module Engine = Hypar_core.Engine
module Interp = Hypar_profiling.Interp

let is_error what = function
  | Ok () -> Alcotest.failf "%s: corrupted result accepted" what
  | Error _ -> ()

let is_ok what = function Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e

let with_array (r : Interp.result) name f =
  { r with Interp.arrays = List.map (fun (n, a) -> if n = name then (n, f (Array.copy a)) else (n, a)) r.Interp.arrays }

let bump i a =
  a.(i) <- a.(i) + 1;
  a

(* One app through the flow, once for the whole file. *)
let flows =
  lazy
    (let configs = Hypar_core.Platform.paper_configs () in
     List.map (fun app -> (app, Paper_flow.flow configs app)) (Apps.all ~seed:1))

let test_app_checks () =
  List.iter
    (fun ((app : Apps.t), (r : Paper_flow.app_run)) ->
      is_ok app.Apps.name (app.Apps.check r.Paper_flow.interp);
      let output =
        match app.Apps.name with
        | "ofdm" -> "out_im"
        | "jpeg" -> "out_bytes"
        | "sobel" -> "edges"
        | _ -> "adpcm"
      in
      is_error app.Apps.name (app.Apps.check (with_array r.Paper_flow.interp output (bump 3))))
    (Lazy.force flows);
  (* the adpcm state words are checked too *)
  let app, r = List.nth (Lazy.force flows) 3 in
  is_error "adpcm state" (app.Apps.check (with_array r.Paper_flow.interp "state" (bump 1)))

let test_engine_checks () =
  let configs = Hypar_core.Platform.paper_configs () in
  List.iter
    (fun ((app : Apps.t), (r : Paper_flow.app_run)) ->
      List.iter2
        (fun pl (run : Engine.t) ->
          let evaluate = Engine.evaluate pl r.Paper_flow.opt r.Paper_flow.profile in
          is_ok app.Apps.name (Checks.engine ~evaluate run);
          let final = run.Engine.final in
          is_error "Eq. 2"
            (Checks.engine ~evaluate
               { run with Engine.final = { final with Engine.t_total = final.Engine.t_total + 1 } });
          is_error "evaluate"
            (Checks.engine ~evaluate
               { run with Engine.final = { final with Engine.t_fpga = final.Engine.t_fpga + 1;
                                                      t_total = final.Engine.t_total + 1 } });
          let wrong_status =
            match run.Engine.status with
            | Engine.Infeasible -> Engine.Met_after 1
            | Engine.Met_after _ | Engine.Met_without_partitioning -> Engine.Infeasible
          in
          is_error "status" (Checks.engine ~evaluate { run with Engine.status = wrong_status });
          is_error "constraint"
            (Checks.engine ~evaluate
               { run with Engine.timing_constraint =
                            (if Engine.met run then final.Engine.t_total - 1 else final.Engine.t_total) }))
        configs r.Paper_flow.runs)
    (Lazy.force flows)

let test_explore_checks () =
  is_ok "monotone" (Checks.monotone [ ("p", 10, 3); ("p", 20, 2); ("q", 10, 0) ]);
  is_error "monotone" (Checks.monotone [ ("p", 10, 1); ("p", 20, 2) ]);
  let a = [| 1; 5; 5 |] and b = [| 2; 4; 5 |] and c = [| 2; 6; 6 |] in
  is_ok "pareto" (Checks.pareto ~members:[ a; b ] ~others:[ c ]);
  is_error "dominated member" (Checks.pareto ~members:[ a; b; c ] ~others:[]);
  is_error "undominated non-member" (Checks.pareto ~members:[ a ] ~others:[ b ]);
  (* a real summary passes, and a flipped frontier flag is caught *)
  let app = List.hd (Apps.all ~seed:1) in
  let p = Apps.prepare app in
  let summary = Result.get_ok (Hypar_explore.Driver.run ~jobs:1 p (Dse_grid.space_for app p)) in
  is_ok "explore" (Dse_grid.check p summary);
  let pareto = Array.copy summary.Hypar_explore.Driver.pareto in
  pareto.(0) <- not pareto.(0);
  is_error "pareto flag" (Dse_grid.check p { summary with Hypar_explore.Driver.pareto })

let test_fuzz_and_serve_checks () =
  is_ok "pass" (Fuzz_oracle.check Hypar_fuzzgen.Oracle.Pass);
  is_error "fail"
    (Fuzz_oracle.check
       (Hypar_fuzzgen.Oracle.Fail { Hypar_fuzzgen.Oracle.oracle = "o"; signature = "s"; detail = "d" }));
  let req = { Serve_mix.verb = "partition"; body = ""; expect_total = Some 100 } in
  let line total = Printf.sprintf {|{"id":1,"status":"ok","verb":"partition","payload":{"final":{"t_total":%d}}}|} total in
  is_ok "t_total" (Result.map ignore (Serve_mix.check_response req (line 100)));
  is_error "t_total" (Result.map ignore (Serve_mix.check_response req (line 101)));
  is_error "status"
    (Result.map ignore (Serve_mix.check_response req {|{"id":1,"status":"error","kind":"x","message":"y"}|}));
  is_ok "ids" (Serve_mix.check_ids ~sent:[ 1; 2 ] ~answered:[ 2; 1 ]);
  is_error "duplicate id" (Serve_mix.check_ids ~sent:[ 1; 2 ] ~answered:[ 1; 1; 2 ]);
  is_error "missing id" (Serve_mix.check_ids ~sent:[ 1; 2 ] ~answered:[ 1 ])

(* Two set-ups of the same seed, run for four and for five rounds: the
   deterministic metrics and the median allocation per operation (the
   figure [alloc_words_per_op] reports) are identical.  dse-grid's
   allocation moves by a few hundred of its 85 M words from one
   operation to the next, so there it must agree to 1e-5. *)
let short_run (w : Workload.t) ~rounds =
  let i = w.Workload.setup ~seed:5 ~trace:false in
  let ctx = { Workload.traced = false; reference = ignore } in
  let ops = List.concat (List.init rounds (fun _ -> i.Workload.round ctx)) in
  i.Workload.close ();
  List.iter (fun (o : Meter.op) -> Option.iter (Alcotest.failf "op failed: %s") o.Meter.error) ops;
  (i.Workload.fixed (), Sample.median (List.map (fun (o : Meter.op) -> o.Meter.t.Meter.words) ops))

let test_deterministic () =
  let fixed =
    List.map
      (fun (w, tolerance) ->
        let f1, w1 = short_run w ~rounds:4 and f2, w2 = short_run w ~rounds:5 in
        Alcotest.(check (list (pair string (float 0.)))) (w.Workload.name ^ " fixed metrics") f1 f2;
        Alcotest.(check (float (tolerance *. w1))) (w.Workload.name ^ " alloc words") w1 w2;
        f1)
      [ (Paper_flow.workload, 0.); (Dse_grid.workload, 1e-5) ]
  in
  (* fuzz-oracle reports the applications' figures, which must be
     paper-flow's own *)
  Alcotest.(check (list (pair string (float 0.))))
    "applications' fixed metrics" (List.hd fixed) (Apps.fixed_metrics (Apps.all ~seed:5));
  Alcotest.(check (list int)) "fuzz programs" (Fuzz_oracle.select ~seed:5) (Fuzz_oracle.select ~seed:5)

let test_seed_reaches_inputs () =
  let inputs seed = List.map (fun (a : Apps.t) -> a.Apps.inputs) (Apps.all ~seed) in
  List.iter2
    (fun a b -> Alcotest.(check bool) "app inputs differ" true (a <> b))
    (inputs 1) (inputs 2);
  Alcotest.(check bool) "fuzz programs differ" true (Fuzz_oracle.select ~seed:1 <> Fuzz_oracle.select ~seed:2)

let test_reference_allocates_nothing () =
  ignore (Refunit.work ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Refunit.work ()));
  let words = Gc.minor_words () -. before in
  (* the float returned by the first Gc.minor_words call is all there is *)
  Alcotest.(check bool) (Printf.sprintf "%.0f words" words) true (words < 8.)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "app outputs" `Quick test_app_checks;
          Alcotest.test_case "engine" `Quick test_engine_checks;
          Alcotest.test_case "explore" `Quick test_explore_checks;
          Alcotest.test_case "fuzz and serve" `Quick test_fuzz_and_serve_checks;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed" `Quick test_seed_reaches_inputs;
          Alcotest.test_case "reference" `Quick test_reference_allocates_nothing;
        ] );
    ]
