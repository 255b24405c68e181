(** Allocation gates.  Allocation and event counts are deterministic for a
    fixed binary and seed set, unlike host time, so they can fail a test
    run where a timing could not.

    - Minor words per {!Engine.Runtime.run}: central 3PC, n=3,
      [until = 1500], the plans of seeds 0–499 of {!Engine.Chaos.schedule}
      (drawn before each run is measured).  Measured at 1,801.7 words per
      run (2,327.1 when each log's disk kept three buffers and copied
      between them, each force built its payload and frame as fresh
      bytes, and each fresh registry's slot arrays held 64 labels;
      3,273.9 when the interpreter ran on state-name strings and a
      sorted message multiset per inbox and every random draw boxed an
      [int64]; 3,544.4 with string-keyed metric tables and 96-bucket
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
      run in flight at a minor collection is promoted.  Measured at 11.7
      (2,027.5 when every run's outcome was kept to the end); the bound
      is 200.
    - Minor words per seed of the same 2,000-seed sweep: the whole
      per-seed cost of schedule, run, oracles and metrics.  Measured at
      2,423.6 (3,080.4 with the three-buffer disk, 64-label registries
      and the oracles timed per seed; 4,147.6 with the string interpreter
      and boxing draws; 4,997.7 with string-keyed metric tables and 96-bucket histograms
      from the first observation); the bound is that plus 10%.
    - Minor words per transaction of one {!Kv.Db.run} with the
      [kv-mixed] benchmark configuration: n=4, 3PC, sync latency 0.4,
      group commit of batch 8 and wait 0.05, pipeline 8, 512 keys, 500 transactions of
      workload seed 7.  Measured at 1,451.6 words per transaction
      (1,735.1 with the three-buffer disk and fresh bytes per force,
      1,910.3 when every random draw boxed an [int64], 5,286.2 when
      every release walked the whole lock table); the bound is that plus
      10%.  The run sends exactly 6,930 messages, which pins that it
      did not change.
    - Minor words per fresh {!Sim.Metrics} registry that touches one
      counter, one gauge and one histogram, the labels a run's registry
      touches.  Measured at 145.0 (229.0 when every slot array started
      at 64 labels); the bound is that plus 10%.
    - Minor words per {!Engine.Wal.force} of one [Transitioned] record on
      a durable log that already holds 64: the record joins the log's
      list and nothing else is built.  Measured at 3.0 (28.0 when a force
      built the payload, the frame and a boxed CRC as fresh values and
      the sync built a closure); the bound is that plus 10%.
    - Minor words per {!Engine.Chaos.fingerprint_of} over the results of
      the explorer's engine configuration (central 3PC, n=3, [until =
      Chaos.stall_budget]) on the plans of seeds 0–499 of
      {!Engine.Chaos.schedule}, 25.8 features per run, once the runs'
      state names are interned.  Measured at 133.3 (2,031.4 when every
      feature was a formatted string and each site's log was copied
      into a list); the bound is that plus 10%.
    - {!Sim.Coverage.add} of a fingerprint the accumulator has already
      seen allocates nothing: membership is an int-set lookup (401.5
      words per fingerprint when [add] sorted and hashed strings).
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
      The bound is 16.83 plus 10%.
    - Minor words per state of the same run.  Measured at 2.28, almost
      all of it the {!Engine.Termination} rules' boxed answers; 217.0
      when every successor was built as a record with copied arrays and
      a fresh network array before it was packed, and each popped state
      was decoded into fresh arrays and lists.  The bound is that plus
      10%. *)

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
  let bound = 1_801.7 *. 1.1 in
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
  let bound = 2_423.6 *. 1.1 in
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
  let bound = 1_451.6 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per transaction <= %.1f" per_txn bound)
    true (per_txn <= bound)

let test_fresh_registry () =
  (* labels a run's own registry touches *)
  let c = M.label "wal_forces" and g = M.label "queue_depth_hwm" and h = M.label "suspicion_latency" in
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    let m = M.create () in
    M.bump m c;
    M.peak m g 1;
    M.sample m h 1.0;
    ignore (Sys.opaque_identity m)
  done;
  let per_registry = (Gc.minor_words () -. w0) /. float_of_int n in
  let bound = 145.0 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per fresh registry <= %.1f" per_registry bound)
    true (per_registry <= bound)

let test_wal_force () =
  let record = Engine.Wal.Transitioned { to_state = "w1"; vote = Some Core.Types.Yes } in
  let wal = Engine.Wal.create () in
  for _ = 1 to 64 do
    Engine.Wal.force wal record
  done;
  let n = 1_024 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Engine.Wal.force wal record
  done;
  let per_force = (Gc.minor_words () -. w0) /. float_of_int n in
  let bound = 3.0 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per Wal.force <= %.1f" per_force bound)
    true (per_force <= bound)

let explore_results () =
  let cfg = Engine.Runtime.config ~until:C.stall_budget (rulebook ()) in
  let t = C.target cfg in
  Array.init 500 (fun seed ->
      Engine.Runtime.run { cfg with plan = Engine.Failure_plan.of_schedule (C.schedule t ~k:1 ~seed); seed })

let test_fingerprint_words () =
  let results = explore_results () in
  (* a first pass interns the run's state names *)
  Array.iter (fun r -> ignore (C.fingerprint_of r)) results;
  let w0 = Gc.minor_words () in
  Array.iter (fun r -> ignore (Sys.opaque_identity (C.fingerprint_of r))) results;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int (Array.length results) in
  let bound = 133.3 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per fingerprint_of <= %.1f" per_run bound)
    true (per_run <= bound)

let test_coverage_add_seen () =
  let fingerprints = Array.map C.fingerprint_of (explore_results ()) in
  let cov = Sim.Coverage.create () in
  Array.iter (fun f -> ignore (Sim.Coverage.add cov f)) fingerprints;
  let fresh = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length fingerprints - 1 do
    fresh := !fresh + Sim.Coverage.add cov fingerprints.(i)
  done;
  let per_add = (Gc.minor_words () -. w0) /. float_of_int (Array.length fingerprints) in
  Alcotest.(check int) "nothing new the second time" 0 !fresh;
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per seen Coverage.add <= 0.0" per_add)
    true (per_add <= 0.0)

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

let check_3pc_n4 () =
  {
    Engine.Model_check.rulebook = Engine.Rulebook.compile (Core.Catalog.central_3pc 4);
    max_crashes = 1;
    limit = 1_000_000;
    rule = `Skeen;
  }

let test_check_major_words_per_state () =
  let cfg = check_3pc_n4 () in
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

let test_check_minor_words_per_state () =
  let cfg = check_3pc_n4 () in
  let w0 = Gc.minor_words () in
  let r = Engine.Model_check.run cfg in
  let per_state = (Gc.minor_words () -. w0) /. float_of_int r.Engine.Model_check.explored in
  Alcotest.(check int) "states" 15_784 r.Engine.Model_check.explored;
  let bound = 2.28 *. 1.1 in
  Alcotest.(check bool)
    (Fmt.str "%.2f minor words per state <= %.2f" per_state bound)
    true (per_state <= bound)

let suite =
  [
    Alcotest.test_case "minor words and events per Runtime.run" `Quick test_minor_words_per_run;
    Alcotest.test_case "events per detector-mode Runtime.run" `Quick test_detector_events_per_run;
    Alcotest.test_case "a 2,000-seed sweep promotes <= 200 words per seed" `Quick
      test_sweep_promotes_little;
    Alcotest.test_case "minor words per 2,000-seed sweep seed" `Quick test_sweep_minor_words_per_seed;
    Alcotest.test_case "minor words per kv-mixed transaction" `Quick test_kv_minor_words_per_txn;
    Alcotest.test_case "minor words per fresh registry" `Quick test_fresh_registry;
    Alcotest.test_case "minor words per steady-state Wal.force" `Quick test_wal_force;
    Alcotest.test_case "minor words per Chaos.fingerprint_of" `Quick test_fingerprint_words;
    Alcotest.test_case "Coverage.add of a seen fingerprint allocates nothing" `Quick
      test_coverage_add_seen;
    Alcotest.test_case "one release allocates the same in a 10,000-key table" `Quick
      test_release_ignores_table_size;
    Alcotest.test_case "re-interning a stored state allocates nothing" `Quick
      test_reintern_allocates_nothing;
    Alcotest.test_case "major words per model-checked state" `Quick test_check_major_words_per_state;
    Alcotest.test_case "minor words per model-checked state" `Quick test_check_minor_words_per_state;
  ]
