(* What one operation reports, and the helpers workloads time it with. *)

type timing = {
  start : float;  (** wall clock at the start, seconds *)
  ms : float;  (** wall time of the program calls only, checks excluded *)
  words : float;  (** OCaml heap words allocated by those calls *)
}

type op = { t : timing; error : string option  (** [Some reason] when an output check failed *) }

let now () = Unix.gettimeofday ()

(* Words allocated by this domain: Gc.counters includes the minor heap's
   current fill, where Gc.quick_stat counts minor words only at
   collections and so rounds to the minor heap's size. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Every domain's allocation, for the serve workload's worker domains;
   rounded as above. *)
let all_domains_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Every operation starts on an empty minor heap, so that its collections
   and its allocation count do not depend on what ran before it. *)
let timed f =
  Gc.minor ();
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = words () in
  (r, { start = t0; ms = (t1 -. t0) *. 1e3; words = w1 -. w0 })

let op t check = { t; error = (match check with Ok () -> None | Error e -> Some e) }

(* A span of the benchmark's own around a call into a library; free (one
   atomic load) when tracing is off. *)
let span name f = Hypar_obs.Span.with_ ~cat:"bench" name f

(* Per-layer values measured directly by a workload (outside the event
   stream), summed over the traced operations of a run. *)
let direct : (string, float) Hashtbl.t = Hashtbl.create 16

let add name v =
  Hashtbl.replace direct name (v +. Option.value ~default:0. (Hashtbl.find_opt direct name))

(* Runs [f] with tracing switched off, so a measurement made for a
   per-layer metric does not land in the program's span totals. *)
let untraced f =
  let on = Hypar_obs.Sink.enabled () in
  Hypar_obs.Sink.disable ();
  Fun.protect ~finally:(fun () -> if on then Hypar_obs.Sink.enable ()) f

(* Optimizer cost on one raw CDFG, measured beside the operation: the
   unverified pipeline's time and allocation, and what per-pass
   verification adds on the same input. *)
let optimizer_split raw =
  untraced (fun () ->
      let _, plain = timed (fun () -> Hypar_ir.Passes.optimize ~verify:false raw) in
      let _, verified = timed (fun () -> Hypar_ir.Passes.optimize ~verify:true raw) in
      add "ir.optimize_ms" plain.ms;
      add "ir.optimize_alloc_words" plain.words;
      add "ir.verify_ms" (verified.ms -. plain.ms))

(* The check of a repeated operation: an output equal to one that already
   passed the full check passes; anything else is checked in full. *)
type 'a memo = { mutable passed : 'a list }

let memo () = { passed = [] }

let check_once memo key full =
  if List.mem key memo.passed then Ok ()
  else
    match full () with
    | Ok () ->
      memo.passed <- key :: memo.passed;
      Ok ()
    | Error _ as e -> e

(* An operation that raised counts as failed, like one whose check
   failed; its time is not used. *)
let attempt f =
  match f () with
  | op -> op
  | exception e ->
    { t = { start = now (); ms = 0.; words = 0. }; error = Some ("raised " ^ Printexc.to_string e) }
