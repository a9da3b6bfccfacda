(* The benchmark runner: set-up (nine times, median reported), then
   whole rounds of one workload until the time is up, then every metric
   by name and unit and one JSON result line.

   Host times are reported in reference units: an operation's wall time
   divided by the time of {!Refunit.work}, sampled between the operations
   of the same run, so that a change in the machine's speed cancels out.
   Raw milliseconds are printed beside them for readers, not gated. *)

module Sink = Hypar_obs.Sink

let workloads = [ Paper_flow.workload; Dse_grid.workload; Fuzz_oracle.workload; Serve_mix.workload ]

(* A tail needs ten samples beyond it, so a run keeps going until it has
   at least forty operations; [cap_s] bounds a run however slow the ops. *)
let min_ops = 40
let cap_s = 100.
let setups = 9

(* The end-to-end metrics each workload computes from its outputs. *)
let fixed_metrics = ("opt_instrs", "instrs") :: List.map (fun a -> ("sim_cycles." ^ a, "cycles")) Apps.names

(* --- the traced run's accumulators ------------------------------------- *)

type span_acc = { mutable count : int; mutable total_us : float; mutable self_us : float }

let spans : (string, span_acc) Hashtbl.t = Hashtbl.create 64
let counters : (string, int) Hashtbl.t = Hashtbl.create 32

let fold_events () =
  let events = Sink.events () in
  Sink.clear ();
  List.iter
    (fun (s : Hypar_obs.Stats.span_stat) ->
      let a =
        match Hashtbl.find_opt spans s.Hypar_obs.Stats.name with
        | Some a -> a
        | None ->
          let a = { count = 0; total_us = 0.; self_us = 0. } in
          Hashtbl.replace spans s.Hypar_obs.Stats.name a;
          a
      in
      a.count <- a.count + s.Hypar_obs.Stats.count;
      a.total_us <- a.total_us +. s.Hypar_obs.Stats.total_us;
      a.self_us <- a.self_us +. s.Hypar_obs.Stats.self_us)
    (Hypar_obs.Stats.spans events);
  List.iter
    (fun (name, v) -> Hashtbl.replace counters name (v + Option.value ~default:0 (Hashtbl.find_opt counters name)))
    (Hypar_obs.Counter.totals events)

let total_ms name = match Hashtbl.find_opt spans name with Some a -> a.total_us /. 1e3 | None -> 0.

let self_ms prefix =
  Hashtbl.fold
    (fun name a acc -> if String.starts_with ~prefix name then acc +. (a.self_us /. 1e3) else acc)
    spans 0.

let span_count name = match Hashtbl.find_opt spans name with Some a -> float_of_int a.count | None -> 0.
let counter name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name))
let direct name = Option.value ~default:0. (Hashtbl.find_opt Meter.direct name)

(* Per traced operation unless the unit says otherwise.  Self times are
   of the program's own spans, rolled up by name prefix; the [bench.*]
   spans are the benchmark's, around direct calls into a library. *)
let per_layer =
  [
    ("minic.compile_ms", "ms", `Per_op (fun () -> total_ms "bench.minic.compile"));
    ("minic.self_ms", "ms", `Per_op (fun () -> self_ms "minic."));
    ("ir.optimize_ms", "ms", `Per_op (fun () -> direct "ir.optimize_ms"));
    ("ir.optimize_alloc_words", "words", `Per_op (fun () -> direct "ir.optimize_alloc_words"));
    ("ir.verify_ms", "ms", `Per_op (fun () -> direct "ir.verify_ms"));
    ("ir.pass_self_ms", "ms", `Per_op (fun () -> self_ms "ir.pass."));
    ("dataflow.self_ms", "ms", `Per_op (fun () -> self_ms "dataflow."));
    ("bytecode.self_ms", "ms", `Per_op (fun () -> self_ms "bytecode."));
    ("profiling.run_ms", "ms", `Per_op (fun () -> total_ms "bench.profiling.run"));
    ("profiling.self_ms", "ms", `Per_op (fun () -> self_ms "profile."));
    ("profiling.instrs_executed", "count", `Per_op (fun () -> counter "profile.instrs_executed"));
    ( "profiling.ns_per_instr",
      "ns",
      `Whole
        (fun () ->
          let n = counter "profile.instrs_executed" in
          if n = 0. then 0. else total_ms "profile.run" *. 1e6 /. n) );
    ("analysis.kernels_ms", "ms", `Per_op (fun () -> total_ms "bench.analysis.kernels"));
    ("fine.self_ms", "ms", `Per_op (fun () -> self_ms "fine."));
    ("fine.temporal_partitions", "count", `Per_op (fun () -> counter "fine.temporal_partitions"));
    ("cgc.self_ms", "ms", `Per_op (fun () -> self_ms "cgc."));
    ("core.partition_ms", "ms", `Per_op (fun () -> total_ms "engine.run"));
    ("core.engine_self_ms", "ms", `Per_op (fun () -> self_ms "engine."));
    ("core.engine_moves", "count", `Per_op (fun () -> counter "engine.moves"));
    ("core.evaluations", "count", `Per_op (fun () -> counter "engine.evaluations"));
    ("explore.run_ms", "ms", `Per_op (fun () -> total_ms "explore.run"));
    ("explore.points", "count", `Per_op (fun () -> span_count "explore.point"));
    ("explore.cache_hits", "count", `Per_op (fun () -> counter "explore.cache_hits"));
    ("fuzzgen.gen_ms", "ms", `Per_op (fun () -> total_ms "bench.fuzzgen.gen"));
    ("fuzzgen.oracle_ms", "ms", `Per_op (fun () -> total_ms "bench.fuzzgen.oracle"));
  ]

(* Measured by the serve workload itself; 0 where no request was sent. *)
let server_layer =
  [
    ("server.request_ms.partition", "ms");
    ("server.request_ms.analyze", "ms");
    ("server.request_ms.explore", "ms");
    ("server.worker_ms", "ms");
    ("server.wait_ms", "ms");
    ("server.respawns", "count");
    ("server.retries", "count");
  ]

let per_layer_names =
  List.map (fun (n, u, _) -> (n, u)) per_layer @ server_layer @ [ ("obs.overhead_ref", "ref") ]

(* --- the run ----------------------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : (string * float * string) list;  (** printed, never gated *)
  errors : string list;
}

let run (w : Workload.t) ~seed ~seconds ~trace =
  (* The user-facing defaults, whatever the environment asks for. *)
  Hypar_ir.Passes.verify_passes := false;
  Hypar_core.Engine.check_incremental := false;
  Sink.disable ();
  Sink.clear ();
  let refs = ref [] in
  let reference () =
    let at = Meter.now () in
    refs := (at, Refunit.sample_ms ()) :: !refs
  in
  let setup_times, inst =
    let rec go k acc last =
      if k = 0 then (acc, last)
      else begin
        Option.iter (fun (i : Workload.instance) -> i.Workload.close ()) last;
        reference ();
        let i, t = Meter.timed (fun () -> w.Workload.setup ~seed ~trace) in
        go (k - 1) (t :: acc) (Some i)
      end
    in
    let times, inst = go setups [] None in
    (times, Option.get inst)
  in
  let untraced_ops = ref [] and traced_ops = ref [] in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let fixed = ref None and consistent = ref true in
  let rounds = ref 0 in
  let t0 = Meter.now () in
  let enough () =
    let elapsed = Meter.now () -. t0 in
    elapsed >= cap_s
    || elapsed >= seconds
       && List.length !untraced_ops >= min_ops
       && ((not trace) || !traced_ops <> [])
  in
  while not (enough ()) do
    let traced = trace && !rounds mod 2 = 1 in
    if traced then Sink.enable ();
    let ops = inst.Workload.round { Workload.traced; reference } in
    if traced then begin
      Sink.disable ();
      fold_events ()
    end;
    reference ();
    incr rounds;
    List.iter
      (fun (op : Meter.op) ->
        incr attempted;
        match op.Meter.error with
        | Some e ->
          incr failed;
          if List.length !errors < 5 then errors := e :: !errors
        | None -> if traced then traced_ops := op.Meter.t :: !traced_ops else untraced_ops := op.Meter.t :: !untraced_ops)
      ops;
    let f = inst.Workload.fixed () in
    match !fixed with
    | None -> fixed := Some f
    | Some prev -> if prev <> f then consistent := false
  done;
  inst.Workload.close ();
  Sink.disable ();
  if trace then fold_events ();
  (* Each operation is divided by the mean of the yardstick samples taken
     just before and just after it, so a change of machine speed within
     the run cancels as well as one between runs. *)
  let refs = Array.of_list (List.rev !refs) in
  let unit_at start =
    let n = Array.length refs in
    let rec last_before i = if i + 1 < n && fst refs.(i + 1) <= start then last_before (i + 1) else i in
    let i = last_before 0 in
    if fst refs.(i) > start then snd refs.(i)
    else if i + 1 < n then (snd refs.(i) +. snd refs.(i + 1)) /. 2.
    else snd refs.(i)
  in
  let ratios ops = List.map (fun (t : Meter.timing) -> t.Meter.ms /. unit_at t.Meter.start) ops in
  (* Set-up time follows the same speed correction, read back in seconds
     at the yardstick's nominal speed. *)
  let setup_s = Sample.median (ratios setup_times) *. Refunit.nominal_ms /. 1e3 in
  let ref_ms = Sample.median (Array.to_list (Array.map snd refs)) in
  let ms ops = List.map (fun (t : Meter.timing) -> t.Meter.ms) ops in
  let times = ms !untraced_ops in
  let units = ratios !untraced_ops in
  let tail_of xs = match Sample.tail xs with Some v -> v | None -> Sample.quantile (Sample.sorted xs) 1. in
  (* The median: about one operation in five counts 114,692 minor words
     fewer than the others (the same operation on the same input), so a
     mean would depend on how many operations the run made. *)
  let words = Sample.median (List.map (fun (t : Meter.timing) -> t.Meter.words) !untraced_ops) in
  let fixed = Option.value ~default:[] !fixed in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("op_p50_ref", Sample.median units, "ref");
        ("op_mean_ref", Sample.mean units, "ref");
        ("op_tail_ref", tail_of units, "ref");
        ("alloc_words_per_op", words, "words");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ]
      @ List.map
          (fun (name, unit_) -> (name, Option.value ~default:nan (List.assoc_opt name fixed), unit_))
          fixed_metrics
    else
      let n = float_of_int (max 1 (List.length !traced_ops)) in
      let own = inst.Workload.layer () in
      List.map
        (fun (name, unit_, how) ->
          (name, (match how with `Per_op f -> f () /. n | `Whole f -> f ()), unit_))
        per_layer
      @ List.map (fun (name, unit_) -> (name, Option.value ~default:0. (List.assoc_opt name own), unit_)) server_layer
      @ [ ("obs.overhead_ref", Sample.median (ratios !traced_ops) -. Sample.median units, "ref") ]
  in
  let elapsed = Meter.now () -. t0 in
  let notes =
    [
      ("ref_ms", ref_ms, "ms");
      ("ref_samples", float_of_int (Array.length refs), "count");
      ("setup_wall_s", Sample.median (ms setup_times) /. 1e3, "s");
      ("op_p50_ms", Sample.median times, "ms");
      ("op_mean_ms", Sample.mean times, "ms");
      ("op_tail_ms", tail_of times, "ms");
      ("ops_per_s", float_of_int (List.length times) /. (List.fold_left ( +. ) 0. times /. 1e3), "1/s");
      ("timed_ops", float_of_int (List.length times), "count");
      ("rounds", float_of_int !rounds, "count");
      ("measured_s", elapsed, "s");
    ]
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  {
    correct = !consistent && finite && times <> [];
    attempted = !attempted;
    failed = !failed;
    metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) metrics;
    notes;
    errors = List.rev !errors;
  }

let json r =
  let metric (n, v, u) = Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} n v u in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct r.attempted
    r.failed
    (String.concat ", " (List.map metric r.metrics))
