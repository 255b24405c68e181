(** Allocation gates.  Allocation and event counts are deterministic for a
    fixed binary and seed set, unlike host time, so they can fail a test
    run where a timing could not.

    - Minor words per {!Engine.Runtime.run}: central 3PC, n=3,
      [until = 1500], the plans of seeds 0–499 of {!Engine.Chaos.schedule}
      (drawn before each run is measured).  Measured at 2,320.0 words per
      run (3,273.9 when the interpreter ran on state-name strings and a
      sorted message multiset per inbox and every random draw boxed an
      [int64], 3,544.4 with string-keyed metric tables and 96-bucket
      histograms from the first observation, 4,408.0 before per-run
      metric snapshots were dropped); the bound is that plus 10%.  The
      same seeds take exactly 7,494 events (14.988 per run), which pins
      that the runs themselves did not change.
    - Events per detector-mode {!Engine.Runtime.run}: central 3PC, n=3,
      [until = 1500], the plans of seeds 0–199 under
      {!Sim.Nemesis.detector_faults} (latency spikes, stalls, heartbeat
      loss).  Measured at 313.2 (16,755.9 when a run went on exchanging
      heartbeats to the horizon instead of ending at quiescence); the
      bound is that plus 10%.
    - Words promoted to the major heap per seed of a 2,000-seed
      {!Engine.Chaos.sweep}: a sweep retains no finished run, so only a
      run in flight at a minor collection is promoted.  Measured at 39.3
      (2,027.5 when every run's outcome was kept to the end); the bound
      is 200.
    - Minor words per seed of the same 2,000-seed sweep: the whole
      per-seed cost of schedule, run, oracles and metrics.  Measured at
      3,074.5 (4,147.6 with the string interpreter and boxing draws,
      4,997.7 with string-keyed metric tables and 96-bucket histograms
      from the first observation); the bound is that plus 10%.
    - Minor words per transaction of one {!Kv.Db.run} with the
      [kv-mixed] benchmark configuration: n=4, 3PC, sync latency 0.4,
      group commit of batch 8 and wait 0.05, pipeline 8, 512 keys, 500 transactions of
      workload seed 7.  Measured at 1,728.4 words per transaction
      (1,910.3 when every random draw boxed an [int64], 5,286.2 when
      every release walked the whole lock table); the bound is that plus
      10%.  The run sends exactly 6,930 messages, which pins that it
      did not change.
    - Lock release costs what the transaction holds: after 10,000
      distinct keys have each been locked and released, one [acquire]
      plus [release_all] of a single key allocates at most 100 words.
      Measured at 35 (120,037 when a release walked every key ever locked).
    - Re-interning a state the {!Core.Intern.Store} already holds
      allocates nothing: the probe hashes the caller's buffer and
      compares it against the arena in place.
    - Words allocated on the major heap (promoted plus direct) per state
      of an exhaustive {!Engine.Model_check.run} of central 3PC, n=4,
      k=1 (15,784 states).  Measured at 16.28-16.83 words per state
      (the promoted share depends on where major slices fall, so on
      the tests run before it), almost all of it the store's arena,
      index and parent array; 52.1-55.4 when states were [int array]
      keys in a [Hashtbl] and the frontier a queue of working states.
      The bound is 16.83 plus 10%. *)

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
  let bound = 2_320.0 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per run <= %.1f" per_run bound)
    true (per_run <= bound)

let test_detector_events_per_run () =
  let cfg = Engine.Runtime.config ~until:C.stall_budget ~detector:true (rulebook ()) in
  let t = C.target ~profile:(Sim.Nemesis.detector_faults Sim.Nemesis.default_profile) cfg in
  let seeds = 200 in
  let events = ref 0 in
  for seed = 0 to seeds - 1 do
    let cfg = { cfg with plan = Engine.Failure_plan.of_schedule (C.schedule t ~k:1 ~seed); seed } in
    events := !events + events_of (Engine.Runtime.run cfg).Engine.Runtime.run_metrics
  done;
  let per_run = float_of_int !events /. float_of_int seeds in
  let bound = 313.2 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f events per detector-mode run <= %.1f" per_run bound)
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

let test_sweep_minor_words_per_seed () =
  let rb = rulebook () in
  let seeds = 2_000 in
  let w0 = Gc.minor_words () in
  let s = C.sweep rb ~k:1 ~seeds () in
  let per_seed = (Gc.minor_words () -. w0) /. float_of_int seeds in
  Alcotest.(check int) "every seed ran" seeds s.C.seeds_run;
  let bound = 3_074.5 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per sweep seed <= %.1f" per_seed bound)
    true (per_seed <= bound)

let test_kv_minor_words_per_txn () =
  let n_txns = 500 in
  let spec =
    { Kv.Workload.n_txns; arrival_rate = 5.0; keys = 512; ops_per_txn = 3; write_ratio = 0.5; zipf_skew = 0.0 }
  in
  let txns = Kv.Workload.mixed (Sim.Rng.create ~seed:7) spec in
  let cfg =
    Kv.Db.config ~n_sites:4 ~protocol:Kv.Node.Three_phase ~seed:7 ~durable_wal:true ~sync_latency:0.4
      ~group_commit:{ Kv.Kv_wal.max_batch = 8; max_wait = 0.05 }
      ~pipeline_depth:8 ()
  in
  let w0 = Gc.minor_words () in
  let r = Kv.Db.run cfg txns in
  let per_txn = (Gc.minor_words () -. w0) /. float_of_int n_txns in
  Alcotest.(check int) "messages sent" 6_930 r.Kv.Db.messages_sent;
  let bound = 1_728.4 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per transaction <= %.1f" per_txn bound)
    true (per_txn <= bound)

let test_release_ignores_table_size () =
  let module L = Kv.Lock_table in
  let t = L.create () in
  for txn = 1 to 10_000 do
    ignore (L.acquire t ~txn ~key:(string_of_int txn) ~mode:L.Exclusive);
    L.release_all t ~txn
  done;
  let w0 = Gc.minor_words () in
  ignore (L.acquire t ~txn:10_001 ~key:"1" ~mode:L.Exclusive);
  L.release_all t ~txn:10_001;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Fmt.str "%.0f minor words for one acquire and release <= 100" words) true (words <= 100.0)

let test_reintern_allocates_nothing () =
  let module S = Core.Intern.Store in
  let st = S.create () in
  let states = Array.init 2_000 (fun i -> Array.init (1 + (i mod 40)) (fun j -> i + (j * 104_729))) in
  Array.iteri (fun i a -> Alcotest.(check int) "fresh index" i (S.intern st a ~len:(Array.length a))) states;
  let w0 = Gc.minor_words () in
  let sum = ref 0 in
  for i = 0 to Array.length states - 1 do
    sum := !sum + S.intern st states.(i) ~len:(Array.length states.(i))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every state found" (1_999 * 1_000) !sum;
  Alcotest.(check (float 0.0)) "minor words for 2,000 re-interns" 0.0 words

let test_check_major_words_per_state () =
  let cfg =
    {
      Engine.Model_check.rulebook = Engine.Rulebook.compile (Core.Catalog.central_3pc 4);
      max_crashes = 1;
      limit = 1_000_000;
      rule = `Skeen;
    }
  in
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  let r = Engine.Model_check.run cfg in
  Gc.minor ();
  let per_state = ((Gc.quick_stat ()).Gc.major_words -. w0) /. float_of_int r.Engine.Model_check.explored in
  Alcotest.(check int) "states" 15_784 r.Engine.Model_check.explored;
  let bound = 16.83 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.2f major words per state <= %.2f" per_state bound)
    true (per_state <= bound)

let suite =
  [
    Alcotest.test_case "minor words and events per Runtime.run" `Quick test_minor_words_per_run;
    Alcotest.test_case "events per detector-mode Runtime.run" `Quick test_detector_events_per_run;
    Alcotest.test_case "a 2,000-seed sweep promotes <= 200 words per seed" `Quick
      test_sweep_promotes_little;
    Alcotest.test_case "minor words per 2,000-seed sweep seed" `Quick test_sweep_minor_words_per_seed;
    Alcotest.test_case "minor words per kv-mixed transaction" `Quick test_kv_minor_words_per_txn;
    Alcotest.test_case "one release allocates the same in a 10,000-key table" `Quick
      test_release_ignores_table_size;
    Alcotest.test_case "re-interning a stored state allocates nothing" `Quick
      test_reintern_allocates_nothing;
    Alcotest.test_case "major words per model-checked state" `Quick test_check_major_words_per_state;
  ]
