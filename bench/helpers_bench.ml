(** Shared helpers for the bench/experiment executables.

    Exactly one [time] lives here, on top of {!Sim.Clock} — the four
    bench drivers used to carry four identical copies of the
    [Unix.gettimeofday] wrapper, which is how the [Sys.time] CPU-vs-wall
    bug in the oracle timings went unnoticed: with every driver rolling
    its own clock there was no single place to look. *)

let time = Sim.Clock.time

(** [n] events over [wall] seconds as a rate; 0 when nothing elapsed. *)
let rate n wall = if wall > 0.0 then float_of_int n /. wall else 0.0

(** per-oracle count lookup in a [violations_by_oracle] assoc list *)
let count_for by_oracle o = Option.value ~default:0 (List.assoc_opt o by_oracle)

(** [arg_int "--workers" ~default argv] — the integer following the flag
    in [argv], or [default] when absent/malformed.  The benches parse
    argv by hand; this keeps the sweep flags uniform across them. *)
let arg_int flag ~default argv =
  let rec find = function
    | f :: v :: _ when f = flag -> ( match int_of_string_opt v with Some n -> n | None -> default)
    | _ :: rest -> find rest
    | [] -> default
  in
  find (Array.to_list argv)

(** merged concurrency set of [state] as a sorted string list *)
let cs_ids graph state =
  let cs = Core.Concurrency.compute graph in
  Core.Concurrency.String_set.elements (Core.Concurrency.merged_ids cs ~state)
