(** The one host clock for every wall-clock measurement in the tree.

    Simulation time lives in {!World.now}; everything measured about the
    host — bench rows, sweep throughput — must come
    through here.  [Sys.time] is process-wide {e CPU} time: under
    {!Sweep}'s domains it sums across workers and any histogram fed from
    it is garbage, so no timed path may call it (a lesson this module
    exists to pin).  [Unix.gettimeofday] is per-host wall time, which is
    what a parallel sweep actually spends. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (* gettimeofday is not formally monotonic: clamp so a stepped clock
     can never yield a negative duration *)
  (r, Float.max 0.0 (now () -. t0))
