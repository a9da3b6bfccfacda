(* fuzz-oracle: one operation generates one seeded safe-grammar program
   and runs it through Hypar_fuzzgen.Oracle.run -- tree/compiled x -O0/-O
   x Mini-C/bytecode, with Verify at every pass.  The same IR layer as
   paper-flow, on many small programs instead of a few large ones; here
   the optimizer and its verifier take almost all the time and
   interpretation almost none.  A round's programs are drawn from the
   seed's program stream, a fixed number per size band. *)

module Gen = Hypar_fuzzgen.Gen

(* Two size bands of 80 -O0 CDFG instructions around the generator's
   median program size, [200, 280) and [280, 360), 96 programs each: 192
   programs a round, one round a run.  Programs outside the bands are skipped: oracle time
   grows as about the 1.4th power of size and has a heavy tail (a
   2,400-instruction program takes seconds), so with the full size range
   a round's mean would mostly measure which large programs the seed
   happened to draw. *)
let min_instrs = 200
let band_width = 80
let bands = 2
let per_band = 96
let max_candidates = 20_000

(* Set-up classifies at least the seed's first [candidates] programs,
   however soon the bands fill (seeds 1-40 need 570-790), so that it does
   the same work on every seed; a seed that needs more draws on until the
   bands are full. *)
let candidates = 900

let band n =
  let b = (n - min_instrs) / band_width in
  if n < min_instrs || b >= bands then None else Some b

let raw_cdfg src =
  match Hypar_minic.Driver.compile ~name:"fuzz" ~simplify:false ~verify_ir:false src with
  | Ok c -> Some c
  | Error _ -> None

(* Program seeds for one round, in draw order within each band. *)
let select ~seed =
  let picked = Array.make bands [] in
  let full () = Array.for_all (fun l -> List.length l = per_band) picked in
  let rec draw i =
    if (full () && i >= candidates) || i = max_candidates then ()
    else begin
      let s = Hypar_fuzzgen.Rng.derive ~seed i in
      (match Option.bind (raw_cdfg (Gen.source s)) (fun c -> band (Hypar_ir.Cdfg.total_instrs c)) with
      | Some b when List.length picked.(b) < per_band -> picked.(b) <- picked.(b) @ [ s ]
      | _ -> ());
      draw (i + 1)
    end
  in
  draw 0;
  if not (full ()) then failwith "fuzz-oracle: the program stream did not fill every size band";
  List.concat (Array.to_list picked)

let check = function
  | Hypar_fuzzgen.Oracle.Pass -> Ok ()
  | v -> Error (Hypar_fuzzgen.Oracle.verdict_to_string v)

let setup ~seed ~trace:_ =
  let programs = select ~seed in
  (* The operations partition nothing and their -O output depends on the
     seed's programs, so opt_instrs and sim_cycles.* are those of the four
     applications, as in paper-flow: every workload reports every metric.
     They are computed once, at the first round's end, outside set-up. *)
  let fixed = lazy (Apps.fixed_metrics (Apps.all ~seed)) in
  let op (ctx : Workload.ctx) s =
    ctx.Workload.reference ();
    Meter.attempt @@ fun () ->
    let verdict, t =
      Meter.timed (fun () ->
          let src = Meter.span "bench.fuzzgen.gen" (fun () -> Gen.source s) in
          Meter.span "bench.fuzzgen.oracle" (fun () -> Hypar_fuzzgen.Oracle.run src))
    in
    if ctx.Workload.traced then
      Option.iter Meter.optimizer_split (Meter.untraced (fun () -> raw_cdfg (Gen.source s)));
    Meter.op t (check verdict)
  in
  {
    Workload.round = (fun ctx -> List.map (op ctx) programs);
    fixed = (fun () -> Meter.untraced (fun () -> Lazy.force fixed));
    layer = Workload.no_layer;
    close = ignore;
  }

let workload = { Workload.name = "fuzz-oracle"; setup }
