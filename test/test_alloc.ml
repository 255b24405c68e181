(** Allocation gates.  Allocation and event counts are deterministic for a
    fixed binary and seed set, unlike host time, so they can fail a test
    run where a timing could not.

    - Minor words per {!Engine.Runtime.run}: central 3PC, n=3,
      [until = 1500], the plans of seeds 0–499 of {!Engine.Chaos.schedule}
      (drawn before each run is measured).  Measured at 3,585.2 words per
      run (4,408.0 before per-run metric snapshots were dropped); the
      bound is that plus 10%.  The same seeds take exactly 7,494
      events (14.988 per run), which pins that the runs themselves did
      not change.
    - Words promoted to the major heap per seed of a 2,000-seed
      {!Engine.Chaos.sweep}: a sweep retains no finished run, so only a
      run in flight at a minor collection is promoted.  Measured at 39.3
      (2,027.5 when every run's outcome was kept to the end); the bound
      is 200. *)

module C = Engine.Chaos
module M = Sim.Metrics

let rulebook () = Engine.Rulebook.compile (Core.Catalog.central_3pc 3)

let events_of m =
  List.fold_left
    (fun acc (name, c) -> if String.starts_with ~prefix:"events_" name then acc + c else acc)
    0 (M.counters m)

let test_minor_words_per_run () =
  let cfg = Engine.Runtime.config ~until:1500.0 (rulebook ()) in
  let t = C.target cfg in
  let seeds = 500 in
  let words = ref 0.0 and events = ref 0 in
  for seed = 0 to seeds - 1 do
    let cfg = { cfg with plan = Engine.Failure_plan.of_schedule (C.schedule t ~k:1 ~seed); seed } in
    let w0 = Gc.minor_words () in
    let r = Engine.Runtime.run cfg in
    words := !words +. (Gc.minor_words () -. w0);
    events := !events + events_of r.Engine.Runtime.run_metrics
  done;
  Alcotest.(check int) "events over 500 runs" 7_494 !events;
  let per_run = !words /. float_of_int seeds in
  let bound = 3_585.2 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per run <= %.1f" per_run bound)
    true (per_run <= bound)

let test_sweep_promotes_little () =
  let rb = rulebook () in
  let seeds = 2_000 in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let s = C.sweep rb ~k:1 ~seeds () in
  Gc.minor ();
  let per_seed = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int seeds in
  Alcotest.(check int) "every seed ran" seeds s.C.seeds_run;
  Alcotest.(check bool)
    (Fmt.str "%.1f words promoted per seed <= 200" per_seed)
    true (per_seed <= 200.0)

let suite =
  [
    Alcotest.test_case "minor words and events per Runtime.run" `Quick test_minor_words_per_run;
    Alcotest.test_case "a 2,000-seed sweep promotes <= 200 words per seed" `Quick
      test_sweep_promotes_little;
  ]
