(** End-to-end durability tests: the force discipline under storage
    faults.  Torn and corrupt tails are vacuous when every record is
    forced before the protocol acts (the paper's rule) — the fault-on
    chaos sweeps stay clean.  The two ways to break the discipline are
    both caught by the durability oracle: mis-placing the force point
    after the sends ([late_force], a code bug), and a lying fsync
    ([Lost_flush], a broken stable-storage axiom). *)

module C = Engine.Chaos
module FP = Engine.Failure_plan
module N = Sim.Nemesis
module KC = Kv.Chaos_db

let rb_c3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let rb_d3 = lazy (Engine.Rulebook.compile (Core.Catalog.decentralized_3pc 3))

let has_durability vs = List.exists (fun (v : C.violation) -> v.C.oracle = C.Durability) vs

(* ---------------- torn/corrupt faults are vacuous under the rule ---------------- *)

let faulty_profile = { N.default_profile with N.p_disk_fault = 0.6 }

let test_engine_fault_on_sweeps_clean () =
  (* every crash may tear or corrupt the unsynced tail; with the force
     discipline in place there is no unsynced tail that matters, so both
     3PC paradigms stay clean across all four oracles *)
  let sc = C.sweep ~profile:faulty_profile (Lazy.force rb_c3) ~k:1 ~seeds:80 () in
  Alcotest.(check int) "central 3PC clean" 0 (List.length sc.C.violations_by_oracle);
  let sd = C.sweep ~profile:faulty_profile (Lazy.force rb_d3) ~k:1 ~seeds:40 () in
  Alcotest.(check int) "decentralized 3PC clean" 0 (List.length sd.C.violations_by_oracle)

let test_kv_fault_on_sweep_clean () =
  let s =
    KC.sweep ~profile:{ KC.default_profile with N.p_disk_fault = 0.6 } ~n_sites:4 ~k:1 ~seeds:40 ()
  in
  Alcotest.(check int) "kv 3PC clean under torn/corrupt faults" 0
    (List.length s.KC.violations_by_oracle)

(* ---------------- the late-force ablation is caught ---------------- *)

let late_force_plan = "step-crash site=2 step=0 mode=after-logging:1"

let test_late_force_pinned_plan_caught () =
  (* site 2 appends its yes-vote record, sends the vote, and crashes
     before the deferred sync: the world saw a vote the durable log
     cannot justify.  The same plan under the correct force order is
     breach-free. *)
  let plan = FP.of_string_exn late_force_plan in
  let _, late = C.run_plan ~late_force:true (Lazy.force rb_c3) ~plan ~seed:7 () in
  Alcotest.(check bool) "late force breaches durability" true (has_durability late);
  let _, correct = C.run_plan (Lazy.force rb_c3) ~plan ~seed:7 () in
  Alcotest.(check bool) "correct force order is clean" false (has_durability correct)

let test_late_force_found_and_shrunk_by_sweep () =
  (* the harness finds the mis-placed force point on its own: some chaos
     seed trips the durability oracle, and the schedule shrinks to a
     reproducible plan that still trips it through the textual round
     trip.  Seed 34 is the first (pinned by the determinism tests). *)
  let rec first_breach seed =
    if seed > 100 then Alcotest.fail "no durability breach found in seeds 0..100"
    else
      let o = C.run_one ~late_force:true (Lazy.force rb_c3) ~k:1 ~seed () in
      if has_durability o.C.violations then (seed, o.C.plan) else first_breach (seed + 1)
  in
  let seed, plan = first_breach 0 in
  Alcotest.(check int) "seed 34 is the first breach" 34 seed;
  let minimal, runs =
    C.shrink ~late_force:true (Lazy.force rb_c3) ~seed ~oracle:C.Durability plan
  in
  Alcotest.(check bool) "shrunk to at most 2 faults" true (FP.fault_count minimal <= 2);
  Alcotest.(check (pair string int))
    "exact shrunk plan and re-run count"
    ("step-crash site=1 step=1 mode=after-logging:3", 3)
    (FP.to_string minimal, runs);
  let reloaded = FP.of_string_exn (FP.to_string minimal) in
  let _, violations = C.run_plan ~late_force:true (Lazy.force rb_c3) ~plan:reloaded ~seed () in
  Alcotest.(check bool) "reloaded minimal plan still trips the oracle" true
    (has_durability violations)

(* ---------------- a lying fsync is caught ---------------- *)

let lost_flush_plan =
  (* sync 0 is the forced [Began]; sync 1 is site 2's forced yes-vote
     record — the lie targets exactly that barrier, and the crash lands
     right after the vote is sent *)
  "disk site=2 fault=lost-flush nth=1; step-crash site=2 step=0 mode=after-logging:1"

let test_engine_lost_flush_breach () =
  let plan = FP.of_string_exn lost_flush_plan in
  List.iter
    (fun (name, rb) ->
      let _, violations = C.run_plan (Lazy.force rb) ~plan ~seed:7 () in
      Alcotest.(check bool) (name ^ ": lying fsync breaches durability") true
        (has_durability violations))
    [ ("central 3PC", rb_c3); ("decentralized 3PC", rb_d3) ]

let test_kv_lost_flush_breach () =
  (* participant 3's first sync (its forced prepared record for txn 1)
     lies; the crash at t=3 lands before any later sync flushes the
     limbo, so the yes vote on the wire has no prepared record on the
     repaired log *)
  let schedule =
    [
      N.Disk_fault { site = 3; fault = Sim.Disk.Lost_flush; nth = 0 };
      N.Crash { site = 3; at = 3.0 };
    ]
  in
  let _, violations = KC.run_schedule ~n_sites:4 ~seed:7 schedule in
  Alcotest.(check bool) "kv durability breach" true
    (List.exists (fun (v : KC.violation) -> v.KC.oracle = KC.Durability) violations);
  (* the same crash without the lying sync is clean: the breach comes
     from the broken barrier, not the crash *)
  let _, clean = KC.run_schedule ~n_sites:4 ~seed:7 [ N.Crash { site = 3; at = 3.0 } ] in
  Alcotest.(check int) "crash alone is clean" 0 (List.length clean)

(* ---------------- durable and in-memory logs are observationally equal ---------------- *)

let test_kv_durable_run_equals_memory_run () =
  (* with no storage faults armed the durable WAL must not perturb the
     simulation: same commits, same aborts, same message count, same
     verdicts — every PR-3 seed replays unchanged *)
  List.iter
    (fun seed ->
      let a = KC.run_one ~n_sites:4 ~k:1 ~seed () in
      let b = KC.run_one ~n_sites:4 ~k:1 ~seed ~durable_wal:false () in
      Alcotest.(check int) (Fmt.str "seed %d committed" seed) b.KC.result.Kv.Db.committed
        a.KC.result.Kv.Db.committed;
      Alcotest.(check int) (Fmt.str "seed %d aborted" seed) b.KC.result.Kv.Db.aborted
        a.KC.result.Kv.Db.aborted;
      Alcotest.(check int)
        (Fmt.str "seed %d messages" seed)
        b.KC.result.Kv.Db.messages_sent a.KC.result.Kv.Db.messages_sent;
      Alcotest.(check int)
        (Fmt.str "seed %d violations" seed)
        (List.length b.KC.violations) (List.length a.KC.violations))
    [ 0; 15; 35; 48; 176 ]

let suite =
  [
    Alcotest.test_case "engine: fault-on sweeps clean" `Quick test_engine_fault_on_sweeps_clean;
    Alcotest.test_case "kv: fault-on sweep clean" `Quick test_kv_fault_on_sweep_clean;
    Alcotest.test_case "late force: pinned plan caught" `Quick test_late_force_pinned_plan_caught;
    Alcotest.test_case "late force: found and shrunk by sweep" `Quick
      test_late_force_found_and_shrunk_by_sweep;
    Alcotest.test_case "engine: lying fsync caught" `Quick test_engine_lost_flush_breach;
    Alcotest.test_case "kv: lying fsync caught" `Quick test_kv_lost_flush_breach;
    Alcotest.test_case "kv: durable run = in-memory run" `Quick
      test_kv_durable_run_equals_memory_run;
  ]
