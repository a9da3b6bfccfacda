type handle = { domains : unit Domain.t list; errors : exn option array }

let fork ~domains:n f =
  let n = max n 0 in
  let errors = Array.make (max n 1) None in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            (* errors are parked, never propagated out of the domain: the
               joiner re-raises them after everyone has finished *)
            try f i with e -> errors.(i) <- Some e))
  in
  { domains; errors }

let join h =
  List.iter Domain.join h.domains;
  Array.iter (function Some e -> raise e | None -> ()) h.errors

let map ~jobs f xs =
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else begin
    let workers = min jobs n in
    let out = Array.make n None in
    (* worker [d] owns indices d, d+workers, d+2*workers, ... — disjoint
       slots, so the unsynchronised writes below never race *)
    let worker d =
      let i = ref d in
      while !i < n do
        out.(!i) <- Some (f xs.(!i));
        i := !i + workers
      done
    in
    let h = fork ~domains:(workers - 1) (fun d -> worker (d + 1)) in
    let own = try Ok (worker 0) with e -> Error e in
    (* join everyone before re-raising, or spawned domains would leak *)
    let joined = try Ok (join h) with e -> Error e in
    (match own with Error e -> raise e | Ok () -> ());
    (match joined with Error e -> raise e | Ok () -> ());
    Array.map (function Some v -> v | None -> assert false) out
  end
