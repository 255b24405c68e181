(** The one host clock for wall-clock measurements (bench rows, sweep
    throughput).  Never [Sys.time]: CPU time sums across {!Sweep}
    domains, so CPU-time histograms are garbage under parallel sweeps. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed wall time,
    clamped non-negative against clock steps. *)
