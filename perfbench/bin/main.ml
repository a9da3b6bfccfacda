(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints every metric by name and unit, then one JSON result line. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload ("
    ^ String.concat "|" (List.map (fun (w : Perfbench.Workload.t) -> w.Perfbench.Workload.name) Perfbench.Bench.workloads)
    ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: s :: rest -> (match int_of_string_opt s with Some s -> seed := s | None -> usage ()); parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match !workload with
    | None -> usage ()
    | Some name -> (
      match List.find_opt (fun (w : Perfbench.Workload.t) -> w.Perfbench.Workload.name = name) Perfbench.Bench.workloads with
      | Some w -> w
      | None -> usage ())
  in
  let r = Perfbench.Bench.run w ~seed:!seed ~seconds:!seconds ~trace:!trace in
  Printf.printf "perfbench %s seed=%d trace=%b: %d ops attempted, %d failed%s\n" w.Perfbench.Workload.name !seed !trace
    r.Perfbench.Bench.attempted r.Perfbench.Bench.failed
    (if r.Perfbench.Bench.correct then "" else " (INCONSISTENT)");
  List.iter (fun e -> Printf.printf "  failed: %s\n" e) r.Perfbench.Bench.errors;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u) r.Perfbench.Bench.metrics;
  Printf.printf "  -- raw, not gated --\n";
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u) r.Perfbench.Bench.notes;
  print_endline (Perfbench.Bench.json r)
