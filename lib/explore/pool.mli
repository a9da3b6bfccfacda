(** Multicore fan-out over the stdlib [Domain] API (no domainslib).

    Work is dealt to at most [jobs] domains round-robin by index; every
    worker writes only its own slots of the result array, so no locking
    is needed and the merged result is in input order regardless of
    scheduling — [map ~jobs:n] is observationally identical to
    [map ~jobs:1] for a pure [f].  Exceptions are parked per domain and
    re-raised only after every domain has been joined — nothing leaks,
    nothing double-raises. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element.  [jobs <= 1] runs
    sequentially in the calling domain (no domain is spawned); otherwise
    [min jobs (length xs)] domains (the caller included) share the work.
    An exception raised by [f] is re-raised after all workers join. *)
