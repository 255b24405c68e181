(** Tests for the chaos harness ({!Engine.Chaos} and {!Kv.Chaos_db}):
    determinism per seed, a clean 3PC corpus, the pinned 2PC blocking
    counterexample and its shrink-to-one-fault, replay of a shrunk plan
    through the textual round-trip, and the duplicate-delivery
    idempotence regressions the nemesis originally surfaced. *)

module C = Engine.Chaos
module FP = Engine.Failure_plan
module R = Engine.Runtime

let rb_c2 = lazy (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))
let rb_c3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let rb_d3 = lazy (Engine.Rulebook.compile (Core.Catalog.decentralized_3pc 3))

let has o vs = List.exists (fun (v : C.violation) -> v.C.oracle = o) vs

(* ---------------- determinism ---------------- *)

let test_run_one_deterministic () =
  List.iter
    (fun seed ->
      let a = C.run_one (Lazy.force rb_c3) ~k:1 ~seed () in
      let b = C.run_one (Lazy.force rb_c3) ~k:1 ~seed () in
      Alcotest.(check bool) (Fmt.str "seed %d same plan" seed) true (FP.equal a.C.plan b.C.plan);
      Alcotest.(check int)
        (Fmt.str "seed %d same verdicts" seed)
        (List.length a.C.violations) (List.length b.C.violations))
    [ 0; 35; 48; 911 ]

let test_replay_trace_byte_identical () =
  (* the debuggability contract: replaying a seed's plan reproduces not
     just the verdict but the exact event trace *)
  let trace_of () =
    let o = C.run_one (Lazy.force rb_c2) ~k:1 ~seed:35 () in
    let result, _ = C.run_plan (Lazy.force rb_c2) ~plan:o.C.plan ~seed:35 ~tracing:true () in
    List.map (fun (e : Sim.World.trace_entry) -> Fmt.str "%.6f %s" e.Sim.World.at e.Sim.World.what)
      result.R.trace
  in
  let a = trace_of () and b = trace_of () in
  Alcotest.(check bool) "trace nonempty" true (a <> []);
  Alcotest.(check (list string)) "byte-identical trace" a b

(* ---------------- 3PC corpus is clean ---------------- *)

let test_central_3pc_corpus_clean () =
  let s = C.sweep (Lazy.force rb_c3) ~k:1 ~seeds:60 () in
  Alcotest.(check int) "no violations" 0 (List.length s.C.violations_by_oracle);
  Alcotest.(check int) "60 seeds run" 60 s.C.seeds_run

let test_decentralized_3pc_corpus_clean () =
  let s = C.sweep (Lazy.force rb_d3) ~k:1 ~seeds:40 () in
  Alcotest.(check int) "no violations" 0 (List.length s.C.violations_by_oracle)

(* ---------------- 2PC blocks, and the counterexample shrinks ---------------- *)

let test_2pc_pinned_blocking_seed () =
  (* seed 35 is the sweep's first blocking schedule: the coordinator
     crashes mid-protocol and both survivors stall in doubt *)
  let o = C.run_one (Lazy.force rb_c2) ~k:1 ~seed:35 () in
  Alcotest.(check bool) "progress violation found" true (has C.Progress o.C.violations);
  Alcotest.(check bool) "atomicity still holds" false (has C.Atomicity o.C.violations)

let test_2pc_counterexample_shrinks_to_one_fault () =
  let o = C.run_one (Lazy.force rb_c2) ~k:1 ~seed:35 () in
  let minimal, runs = C.shrink (Lazy.force rb_c2) ~seed:35 ~oracle:C.Progress o.C.plan in
  Alcotest.(check int) "one fault suffices" 1 (FP.fault_count minimal);
  (* the textbook schedule: the coordinator dies at its commit point *)
  Alcotest.(check string) "the textbook counterexample" "step-crash site=1 step=1 mode=before"
    (FP.to_string minimal);
  (* the shrinker's candidate order (removals to a fixpoint, then
     roundings) pins the re-run count too *)
  Alcotest.(check int) "three re-runs" 3 runs

let test_shrunk_plan_replays_through_text () =
  (* a counterexample pasted into a report must reproduce: round-trip the
     minimal plan through its printed form and re-judge it *)
  let o = C.run_one (Lazy.force rb_c2) ~k:1 ~seed:35 () in
  let minimal, _ = C.shrink (Lazy.force rb_c2) ~seed:35 ~oracle:C.Progress o.C.plan in
  let reloaded = FP.of_string_exn (FP.to_string minimal) in
  let _, violations = C.run_plan (Lazy.force rb_c2) ~plan:reloaded ~seed:35 () in
  Alcotest.(check bool) "reloaded plan still trips the oracle" true (has C.Progress violations)

let test_2pc_sweep_reports_blocking () =
  let s = C.sweep (Lazy.force rb_c2) ~k:1 ~seeds:100 () in
  Alcotest.(check bool) "progress violations reported" true
    (List.mem_assoc C.Progress s.C.violations_by_oracle);
  Alcotest.(check bool) "atomicity violations absent" false
    (List.mem_assoc C.Atomicity s.C.violations_by_oracle);
  List.iter
    (fun cx ->
      Alcotest.(check bool)
        (Fmt.str "seed %d shrunk to <= 2 faults" cx.C.cx_seed)
        true (cx.C.cx_shrunk_faults <= 2))
    s.C.counterexamples

(* ---------------- duplicate-delivery idempotence ---------------- *)

let dup_everything =
  List.init 60 (fun nth -> Sim.Nemesis.Msg { nth; fault = Sim.World.Fault_duplicate })

let decided_records (r : R.result) site =
  List.length
    (List.filter
       (function Engine.Wal.Decided _ -> true | _ -> false)
       (Engine.Wal.records (Engine.Wal.Store.log r.R.store ~site)))

let test_runtime_idempotent_under_duplicates () =
  (* every message delivered twice: the run must still decide once per
     site — duplicates must neither violate an oracle nor double-log *)
  List.iter
    (fun (name, rb) ->
      let result, violations = C.run_plan (Lazy.force rb) ~plan:dup_everything ~seed:7 () in
      Alcotest.(check int) (name ^ ": no violations") 0 (List.length violations);
      Alcotest.(check bool) (name ^ ": consistent") true result.R.consistent;
      List.iter
        (fun site ->
          Alcotest.(check int)
            (Fmt.str "%s: site %d logs exactly one decision" name site)
            1 (decided_records result site))
        [ 1; 2; 3 ])
    [ ("c2", rb_c2); ("c3", rb_c3); ("d3", rb_d3) ]

(* ---------------- the database harness ---------------- *)

let kv_has o vs = List.exists (fun (v : Kv.Chaos_db.violation) -> v.Kv.Chaos_db.oracle = o) vs

let test_kv_regression_seeds_clean () =
  (* the two schedules that found real 3PC bugs in the Kv layer: seed 48
     wedged the coordinator precommitting to a dead participant, seed 176
     resurrected an aborted transaction from a chaos-delayed Prepare.
     Both must stay clean. *)
  List.iter
    (fun seed ->
      let o = Kv.Chaos_db.run_one ~n_sites:4 ~k:1 ~seed () in
      Alcotest.(check int) (Fmt.str "seed %d clean" seed) 0 (List.length o.Kv.Chaos_db.violations))
    [ 48; 176 ]

let test_kv_3pc_corpus_clean () =
  let s = Kv.Chaos_db.sweep ~protocol:Kv.Node.Three_phase ~n_sites:4 ~k:1 ~seeds:30 () in
  Alcotest.(check int) "no violations" 0 (List.length s.Kv.Chaos_db.violations_by_oracle)

let test_kv_2pc_blocks_and_shrinks () =
  (* seed 15 crashes a coordinator for good: 2PC leaves participants in
     doubt, and the schedule shrinks to that single permanent crash *)
  let o = Kv.Chaos_db.run_one ~protocol:Kv.Node.Two_phase ~n_sites:4 ~k:1 ~seed:15 () in
  Alcotest.(check bool) "progress violation" true
    (kv_has Kv.Chaos_db.Progress o.Kv.Chaos_db.violations);
  Alcotest.(check bool) "atomicity still holds" false
    (kv_has Kv.Chaos_db.Atomicity o.Kv.Chaos_db.violations);
  let minimal, _ =
    Kv.Chaos_db.shrink ~protocol:Kv.Node.Two_phase ~n_sites:4 ~seed:15
      ~oracle:Kv.Chaos_db.Progress o.Kv.Chaos_db.schedule
  in
  Alcotest.(check int) "one fault suffices" 1 (List.length minimal);
  match minimal with
  | [ Sim.Nemesis.Crash _ ] -> ()
  | other -> Alcotest.failf "expected a single crash, got %s" (Sim.Nemesis.to_string other)

let test_kv_run_one_deterministic () =
  let a = Kv.Chaos_db.run_one ~n_sites:4 ~k:1 ~seed:48 () in
  let b = Kv.Chaos_db.run_one ~n_sites:4 ~k:1 ~seed:48 () in
  Alcotest.(check bool) "same schedule" true
    (Sim.Nemesis.equal_schedule a.Kv.Chaos_db.schedule b.Kv.Chaos_db.schedule);
  Alcotest.(check int) "same commits" a.Kv.Chaos_db.result.Kv.Db.committed
    b.Kv.Chaos_db.result.Kv.Db.committed;
  Alcotest.(check int) "same messages" a.Kv.Chaos_db.result.Kv.Db.messages_sent
    b.Kv.Chaos_db.result.Kv.Db.messages_sent

(* The schedule/plan bridge the shared shrinker and the kv explorer stand
   on: a schedule and its plan round trip must run identically.  (Disk
   faults ride along, but under the force discipline they never change a
   kv run, so only storms, windows and crashes can tell a broken bridge
   apart; heartbeat-loss windows only with the detector on.) *)
let test_kv_schedule_plan_round_trip () =
  let module KC = Kv.Chaos_db in
  let blank = Sim.Metrics.create () in
  let json (r : Kv.Db.result) = Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true r.run_metrics) in
  let stormy =
    {
      KC.default_profile with
      Sim.Nemesis.p_storm = 0.7;
      p_delay_spike = 0.4;
      p_stall = 0.45;
      p_hb_loss = 0.5;
      p_disk_fault = 0.6;
      lost_flush_weight = 1;
    }
  in
  List.iter
    (fun (name, profile, detector, seeds) ->
      let t = KC.target ~profile (KC.config ~detector ()) in
      for seed = 0 to seeds - 1 do
        let o = C.run_seed t ~k:1 ~seed in
        let r, vs = t.C.run ~metrics:None ~tracing:false ~seed (t.C.plan_of o) in
        let label = Fmt.str "%s seed %d" name seed in
        Alcotest.(check bool) (label ^ ": result") true
          ({ o.KC.result with run_metrics = blank } = { r with run_metrics = blank });
        Alcotest.(check string) (label ^ ": metrics") (json o.KC.result) (json r);
        Alcotest.(check bool) (label ^ ": violations") true (o.KC.violations = vs)
      done)
    (* detector runs cost ~20 ms each (heartbeats to the stall budget) *)
    [
      ("default", KC.default_profile, false, 400);
      ("storms+windows+disk", stormy, false, 400);
      ("storms+windows+disk, detector on", stormy, true, 60);
    ]

(* ---------------- one installer, one fixed rank ---------------- *)

(* A crash, a recovery, a partition and a storm wave all at t = 5: the
   event queue breaks time ties by push order, so these traces pin the
   order [Sim.Nemesis.install] arms the families in (crashes, acceptor
   crashes, recoveries, storms, partitions) on all three harnesses.

   The engine and Paxos Commit traces are byte-identical to those of
   the per-harness lowering code the installer replaced.  The database
   harness used to push a storm's crashes with the timed crashes and its
   partitions before its recoveries; under the one rank its trace swaps
   "CRASH site 3" behind "RECOVER site 1" at t = 5 and "site 2 detects
   recovery of site 1" ahead of the partition's false suspicions at
   t = 7, and is otherwise the same 119 lines (digest
   05de5a7a4d5e3838dd7979154f7a0108 before). *)
let same_instant_plan =
  "crash site=1 at=5; recover site=1 at=5; partition from=5 until=25 groups=3|1,2; storm site=3 \
   first=5 waves=2 period=20 down=10"

let test_same_instant_traces_pinned () =
  let plan = FP.of_string_exn same_instant_plan in
  let digest (t : (_, _) C.target) =
    let r, _ = t.C.run ~metrics:None ~tracing:true ~seed:1 plan in
    let trace = t.C.trace r in
    let rendered =
      String.concat "\n"
        (List.map (fun (e : Sim.World.trace_entry) -> Fmt.str "%h  %s" e.at e.what) trace)
    in
    (List.length trace, Digest.to_hex (Digest.string rendered))
  in
  List.iter
    (fun (name, (lines, hex), got) ->
      Alcotest.(check (pair int string)) name (lines, hex) got)
    [
      ( "engine central-3pc",
        (65, "beba2cd9b78e316e63b05372385146ea"),
        digest (C.target (R.config ~until:C.stall_budget (Lazy.force rb_c3))) );
      ( "paxos-commit f=1",
        (62, "0fc748c7b60cd814b4e16b6488cb33f7"),
        digest (Engine.Paxos.target ~n_sites:3 ~f:1 ()) );
      ( "kv 3pc",
        (119, "6a9e21089800cdaaf0e4bf4b7e7b2ded"),
        digest
          (Kv.Chaos_db.target (Kv.Chaos_db.config ~protocol:Kv.Node.Three_phase ~n_sites:3 ())) );
    ]

let suite =
  [
    Alcotest.test_case "run_one is deterministic" `Quick test_run_one_deterministic;
    Alcotest.test_case "replay trace byte-identical" `Quick test_replay_trace_byte_identical;
    Alcotest.test_case "central 3PC corpus clean" `Quick test_central_3pc_corpus_clean;
    Alcotest.test_case "decentralized 3PC corpus clean" `Quick test_decentralized_3pc_corpus_clean;
    Alcotest.test_case "2PC: pinned blocking seed" `Quick test_2pc_pinned_blocking_seed;
    Alcotest.test_case "2PC: shrinks to one fault" `Quick test_2pc_counterexample_shrinks_to_one_fault;
    Alcotest.test_case "shrunk plan replays through text" `Quick test_shrunk_plan_replays_through_text;
    Alcotest.test_case "2PC: sweep reports blocking" `Quick test_2pc_sweep_reports_blocking;
    Alcotest.test_case "runtime idempotent under duplicates" `Quick
      test_runtime_idempotent_under_duplicates;
    Alcotest.test_case "kv: regression seeds 48 and 176 clean" `Quick test_kv_regression_seeds_clean;
    Alcotest.test_case "kv: 3PC corpus clean" `Quick test_kv_3pc_corpus_clean;
    Alcotest.test_case "kv: 2PC blocks and shrinks" `Quick test_kv_2pc_blocks_and_shrinks;
    Alcotest.test_case "kv: run_one deterministic" `Quick test_kv_run_one_deterministic;
    Alcotest.test_case "kv: schedule and plan round trip run identically" `Quick
      test_kv_schedule_plan_round_trip;
    Alcotest.test_case "same-instant faults: pinned traces on every harness" `Quick
      test_same_instant_traces_pinned;
  ]
