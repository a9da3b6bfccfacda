(* serve-mix: a single client sends a fixed, seeded, synthetic mix of
   partition / analyze / explore requests into an in-process
   Server.run_session on the supervised pool -- the path
   `hypar serve --jobs 2` takes -- and keeps at most as many requests in
   flight as there are workers (a closed loop).  The only workload
   through protocol parsing, admission, the supervisor and worker
   dispatch; an operation is one request, timed from its write to the
   arrival of its response. *)

module Server = Hypar_server
module Jsonv = Hypar_obs.Jsonv
module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine

let jobs = 2
let work_dir = Filename.concat "perfbench" "_work"

(* The request targets: the four applications' sources (written to the
   work directory in set-up) and the repository's examples. *)
let example_files =
  List.map (Filename.concat (Filename.concat "examples" "minic")) [ "dotprod.mc"; "fir.mc"; "histogram.mc"; "iir.mc" ]
  @ List.map (Filename.concat (Filename.concat "examples" "bytecode")) [ "dotprod.hbc"; "fib.hbc"; "gcd.hbc" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* As the worker prepares a file: .hbc through the bytecode frontend,
   .mc through Mini-C, both profiled without inputs. *)
let prepare path =
  let src = read_file path in
  let name = Filename.basename path in
  if Filename.check_suffix path ".hbc" then
    let cdfg = Hypar_bytecode.Driver.compile_exn ~name src in
    let interp = Hypar_profiling.Profile.run ~backend:`Compiled cdfg in
    { Flow.cdfg; profile = Hypar_profiling.Profile.of_result cdfg interp; interp }
  else Flow.prepare ~backend:`Compiled ~name ~verify_ir:false src

(* The platform a partition request gets when it names none: the
   server's defaults (area 1500, 2 CGCs of 2x2, clock ratio 3). *)
let default_platform =
  Hypar_core.Platform.make ~clock_ratio:3
    ~fpga:(Hypar_finegrain.Fpga.make ~area:1500 ())
    ~cgc:(Hypar_coarsegrain.Cgc.make ~cgcs:2 ~rows:2 ~cols:2 ())
    ()

type request = {
  verb : string;
  body : string;  (** the JSON fields after id and verb *)
  expect_total : int option;  (** partition: Eq. 2 final t_total *)
}

(* A synthetic mix, not drawn from recorded traffic: every file gets one
   request of each verb, with the server's defaults for every optional
   field.  The seed draws each file's timing constraint, a share of 30-90%
   of its all-FPGA time on the default platform, used by both its
   partition and its explore (9 points), and the order of the round. *)
let mix ~seed files =
  let rng = Hypar_fuzzgen.Rng.create (Apps.derive seed 9) in
  let per_file (path, prepared, all_fpga) =
    let timing = max 1 (Hypar_fuzzgen.Rng.range rng 30 90 * all_fpga / 100) in
    let expect = Flow.partition default_platform ~timing_constraint:timing prepared in
    [
      {
        verb = "partition";
        body = Printf.sprintf {|"file":"%s","timing":%d|} path timing;
        expect_total = Some expect.Engine.final.Engine.t_total;
      };
      { verb = "analyze"; body = Printf.sprintf {|"file":"%s"|} path; expect_total = None };
      { verb = "explore"; body = Printf.sprintf {|"file":"%s","timings":"%d"|} path timing; expect_total = None };
    ]
  in
  let a = Array.of_list (List.concat_map per_file files) in
  for i = Array.length a - 1 downto 1 do
    let j = Hypar_fuzzgen.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- the client side of the session ------------------------------------ *)

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

exception Timeout

let rec read_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
    String.sub s 0 i
  | None -> (
    match Unix.select [ r.fd ] [] [] 120. with
    | [], _, _ -> raise Timeout
    | _ ->
      let n = Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) in
      if n = 0 then raise End_of_file;
      Buffer.add_subbytes r.buf r.chunk 0 n;
      read_line r)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off)) in
  go 0

(* One response against its request: [Ok payload] or why it fails. *)
let check_response (req : request) line =
  let ( let* ) = Result.bind in
  let* v = Jsonv.parse line in
  let field name = Jsonv.member name v in
  let* () =
    match Option.bind (field "status") Jsonv.to_str with
    | Some "ok" -> Ok ()
    | _ -> Error ("not ok: " ^ line)
  in
  let* payload = Option.to_result ~none:"no payload" (field "payload") in
  match req.expect_total with
  | None -> Ok payload
  | Some want -> (
    match Option.bind (Option.bind (Jsonv.member "final" payload) (Jsonv.member "t_total")) Jsonv.to_int with
    | Some got when got = want -> Ok payload
    | Some got -> Error (Printf.sprintf "partition t_total %d, Flow.partition gives %d" got want)
    | None -> Error "partition payload has no final.t_total")

(* Every id answered exactly once. *)
let check_ids ~sent ~answered =
  let seen = Hashtbl.create 64 in
  let dup = List.exists (fun id -> Hashtbl.mem seen id || (Hashtbl.add seen id (); false)) answered in
  if dup then Error "an id was answered twice"
  else
    match List.find_opt (fun id -> not (Hashtbl.mem seen id)) sent with
    | Some id -> Error (Printf.sprintf "id %d got no response" id)
    | None -> Ok ()

let response_id line =
  match Jsonv.parse line with
  | Ok v -> Option.bind (Jsonv.member "id" v) Jsonv.to_int
  | Error _ -> None

let setup ~seed ~trace =
  if not (List.for_all Sys.file_exists example_files) then failwith "serve-mix: run from the repository root";
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let app_files =
    List.map2
      (fun name src ->
        let path = Filename.concat work_dir (name ^ ".mc") in
        write_file path src;
        path)
      Apps.names Apps.sources
  in
  let files =
    List.map
      (fun path ->
        let p = prepare path in
        let r = Flow.partition default_platform ~timing_constraint:1 p in
        (path, p, r.Engine.initial.Engine.t_total))
      (app_files @ example_files)
  in
  let requests = mix ~seed files in
  let fixed =
    ("opt_instrs",
      float_of_int
        (List.fold_left (fun n (_, p, _) -> n + Hypar_ir.Cdfg.total_instrs p.Flow.cdfg) 0 files))
    :: List.map2
         (fun name timing_constraint ->
           let _, p, _ = List.find (fun (f, _, _) -> Filename.basename f = name ^ ".mc") files in
           let pl = List.hd (Hypar_core.Platform.paper_configs ()) in
           ( "sim_cycles." ^ name,
             float_of_int (Flow.partition pl ~timing_constraint p).Engine.final.Engine.t_total ))
         Apps.names Apps.timing_constraints
  in
  (* The session. *)
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let worker_ms = Hashtbl.create 256 in
  let worker_lock = Mutex.create () in
  let execute =
    if not trace then None
    else
      Some
        (fun cfg (req : Server.Protocol.request) ->
          let t0 = Meter.now () in
          let resp = Server.Worker.execute cfg req in
          let dt = (Meter.now () -. t0) *. 1e3 in
          Mutex.protect worker_lock (fun () ->
              Option.iter (fun id -> Hashtbl.replace worker_ms id dt) req.Server.Protocol.id);
          resp)
  in
  let stats = ref None in
  let config =
    {
      Server.Server.jobs;
      max_queue = 64;
      drain_timeout_ms = 2000;
      retry_after_ms = 100;
      faults = None;
      backend = None;
      default_deadline_ms = None;
      default_fuel = None;
      supervisor = Some Server.Supervisor.default_options;
    }
  in
  let session =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.close req_r; Unix.close resp_w)
          (fun () ->
            Server.Server.run_session ?execute
              ~on_stats:(fun s -> stats := Some s)
              config
              (Server.Drain.create ~drain_timeout_ms:2000)
              req_r resp_w))
  in
  let reader = { fd = resp_r; buf = Buffer.create 65536; chunk = Bytes.create 65536 } in
  let next_id = ref 0 in
  let payloads = Hashtbl.create 64 in
  let traced_requests = ref [] in
  let round (ctx : Workload.ctx) =
    for _ = 1 to 3 do ctx.Workload.reference () done;
    let w0 = Meter.all_domains_words () in
    let pending = Hashtbl.create 8 in
    let results = ref [] in
    let sent = ref [] and answered = ref [] in
    let send (req : request) =
      incr next_id;
      let id = !next_id in
      Hashtbl.replace pending id (req, Meter.now ());
      sent := id :: !sent;
      write_all req_w (Printf.sprintf {|{"id":%d,"verb":"%s",%s}|} id req.verb req.body ^ "\n")
    in
    let receive () =
      let line = read_line reader in
      let t = Meter.now () in
      match Option.bind (response_id line) (fun id -> Option.map (fun p -> (id, p)) (Hashtbl.find_opt pending id)) with
      | None -> results := (t, 0., Error ("unexpected response: " ^ line)) :: !results
      | Some (id, (req, t0)) ->
        Hashtbl.remove pending id;
        answered := id :: !answered;
        let ms = (t -. t0) *. 1e3 in
        let check =
          Result.bind (check_response req line) (fun payload ->
              (* the same request must get the same payload every round *)
              let key = (req.verb, req.body) in
              let text = Jsonv.to_string payload in
              match Hashtbl.find_opt payloads key with
              | Some prev when prev <> text -> Error ("payload changed between rounds for " ^ req.body)
              | Some _ -> Ok ()
              | None -> Hashtbl.replace payloads key text; Ok ())
        in
        if ctx.Workload.traced then traced_requests := (id, req.verb, ms) :: !traced_requests;
        results := (t0, ms, check) :: !results
    in
    let rec loop todo in_flight =
      match todo with
      | req :: rest when in_flight < jobs ->
        send req;
        loop rest (in_flight + 1)
      | _ when in_flight > 0 ->
        receive ();
        loop todo (in_flight - 1)
      | _ -> ()
    in
    (try loop requests 0 with Timeout | End_of_file -> ());
    let ids = check_ids ~sent:(List.rev !sent) ~answered:!answered in
    let n = List.length requests in
    let words = (Meter.all_domains_words () -. w0) /. float_of_int n in
    let got = List.rev !results in
    let missing = List.init (n - List.length got) (fun _ -> (Meter.now (), 0., Error "no response")) in
    List.map
      (fun (start, ms, check) ->
        Meter.op { Meter.start; ms; words } (Result.bind ids (fun () -> Result.map ignore check)))
      (got @ missing)
  in
  let close () =
    (* The session replays the workers' captured trace events when it
       ends, and only while the sink is on. *)
    if trace then Hypar_obs.Sink.enable ();
    Unix.close req_w;
    Domain.join session;
    Unix.close resp_r
  in
  let layer () =
    let reqs = !traced_requests in
    let mean f l = if l = [] then 0. else List.fold_left (fun a x -> a +. f x) 0. l /. float_of_int (List.length l) in
    let per_verb verb = ("server.request_ms." ^ verb, mean (fun (_, _, ms) -> ms) (List.filter (fun (_, v, _) -> v = verb) reqs)) in
    let worker = mean (fun (id, _, _) -> Option.value ~default:0. (Hashtbl.find_opt worker_ms id)) reqs in
    let request = mean (fun (_, _, ms) -> ms) reqs in
    let st f = match !stats with Some s -> float_of_int (f s) | None -> 0. in
    [
      per_verb "partition";
      per_verb "analyze";
      per_verb "explore";
      ("server.worker_ms", worker);
      ("server.wait_ms", request -. worker);
      ("server.respawns", st (fun s -> s.Server.Supervisor.respawns));
      ("server.retries", st (fun s -> s.Server.Supervisor.retries));
    ]
  in
  { Workload.round; fixed = (fun () -> fixed); layer; close }

let workload = { Workload.name = "serve-mix"; setup }
