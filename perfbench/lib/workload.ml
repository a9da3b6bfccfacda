(* The shape every workload has: a set-up that returns an instance, whose
   [round] runs one whole round of operations. *)

type ctx = {
  traced : bool;  (** this round records spans for the per-layer split *)
  reference : unit -> unit;  (** take one yardstick sample now *)
}

type instance = {
  round : ctx -> Meter.op list;
  fixed : unit -> (string * float) list;
      (** the deterministic end-to-end metrics: [opt_instrs], [sim_cycles.*] *)
  layer : unit -> (string * float) list;
      (** per-layer metrics only this workload can measure; called after
          [close] *)
  close : unit -> unit;
}

type t = { name : string; setup : seed:int -> trace:bool -> instance }

let no_layer () = []
