(** Paxos Commit, the third protocol family: KV decision-replication
    liveness under the schedules that block 2PC, ballot/epoch
    monotonicity against the PR-5 election encoding, and the engine-side
    three-way fault differential. *)

module KC = Kv.Chaos_db
module KN = Kv.Node

let bank_cfg ?(protocol = KN.Paxos 1) ?(seed = 11) ?(crashes = []) ?(recoveries = [])
    ?(lease_faults = []) () =
  Kv.Db.config ~n_sites:4 ~protocol ~seed
    ~plan:
      (Helpers.timed_plan ~crashes ~recoveries ()
      @ List.map (fun at -> Sim.Nemesis.Lease_fault { at }) lease_faults)
    ~initial_data:(Kv.Workload.bank_initial ~accounts:24 ~initial_balance:100) ()

let bank_wl ?(n_txns = 80) ~seed () =
  let rng = Sim.Rng.create ~seed in
  Kv.Workload.bank rng ~n_txns ~accounts:24 ~arrival_rate:0.7

let expected_total = Kv.Workload.bank_total ~accounts:24 ~initial_balance:100

(* ---------------- failure-free: Paxos is a working commit protocol ---------------- *)

let test_paxos_no_failures () =
  let r = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "all committed" 80 r.Kv.Db.committed;
  Alcotest.(check int) "none pending" 0 r.Kv.Db.pending;
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals

let test_paxos_f0_degenerates_to_2pc_cost () =
  (* Gray & Lamport's observation: F=0 Paxos Commit IS 2PC up to the
     coordinator's self-directed accept round *)
  let r2 = Kv.Db.run (bank_cfg ~protocol:KN.Two_phase ()) (bank_wl ~seed:11 ()) in
  let r0 = Kv.Db.run (bank_cfg ~protocol:(KN.Paxos 0) ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "same commits" r2.Kv.Db.committed r0.Kv.Db.committed;
  Alcotest.(check int) "bank invariant" expected_total r0.Kv.Db.storage_totals

let test_paxos_replication_costs_messages () =
  (* the price of F=1 survival: one accept round across 3 acceptors *)
  let r2 = Kv.Db.run (bank_cfg ~protocol:KN.Two_phase ()) (bank_wl ~seed:11 ()) in
  let r1 = Kv.Db.run (bank_cfg ~protocol:(KN.Paxos 1) ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check bool) "paxos f=1 sends more messages" true
    (r1.Kv.Db.messages_sent > r2.Kv.Db.messages_sent)

(* ---------------- the 2PC-blocking schedule: Paxos stays live ---------------- *)

(* single cross-site transfer, coordinator crashes in the vote window:
   2PC leaves the transaction pending forever; Paxos F=1 recovers the
   (free) instance through a standby acceptor and aborts it. *)
let blocking_run protocol =
  let n_sites = 3 in
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  let txn = { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] } in
  let wl = [ (1.0, txn) ] in
  let coord = Kv.Txn.coordinator ~n_sites txn in
  Kv.Db.run
    (Kv.Db.config ~n_sites ~protocol ~seed:3
       ~plan:(Helpers.timed_plan ~crashes:[ (coord, 3.05) ] ())
       ~initial_data:[ (k1, 100); (k2, 100) ] ())
    wl

let test_coordinator_crash_blocks_2pc_not_paxos () =
  let r2 = blocking_run KN.Two_phase in
  let rp = blocking_run (KN.Paxos 1) in
  Alcotest.(check int) "2pc: blocked in doubt" 1 r2.Kv.Db.pending;
  Alcotest.(check int) "paxos f=1: resolved" 0 rp.Kv.Db.pending;
  Alcotest.(check bool) "paxos: no site left in doubt" true (rp.Kv.Db.in_doubt = []);
  Alcotest.(check bool) "paxos: atomicity" true rp.Kv.Db.atomicity_ok

let test_paxos_survives_coordinator_crash_mid_run () =
  (* a coordinator dies mid-run and never comes back: every transaction
     still resolves, the bank invariant holds on the survivors *)
  (* transactions submitted TO the dead site after it crashed never start
     and stay pending for any protocol; the nonblocking claim is that no
     surviving site ends the run holding locks in doubt *)
  let r = Kv.Db.run (bank_cfg ~crashes:[ (2, 40.0) ] ()) (bank_wl ~seed:13 ()) in
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
  Alcotest.(check bool) "no operational site in doubt" true (r.Kv.Db.in_doubt = []);
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals

(* ---------------- lease faults: safety under a live deposed leader ---------------- *)

let test_lease_faults_are_safe () =
  (* inject lease expiries while every coordinator is alive: standby
     acceptors race the live leaders at higher ballots; fencing must keep
     every decision consistent *)
  let r = Kv.Db.run (bank_cfg ~lease_faults:[ 20.0; 45.0; 70.0 ] ()) (bank_wl ~seed:17 ()) in
  Alcotest.(check bool) "atomicity under lease races" true r.Kv.Db.atomicity_ok;
  Alcotest.(check bool) "no outcome contradiction" true (not r.Kv.Db.outcome_contradiction);
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals;
  Alcotest.(check int) "nothing left pending" 0 r.Kv.Db.pending

let test_lease_fault_noop_under_2pc_3pc () =
  (* the injection is protocol-gated: 2PC/3PC runs are byte-identical
     with and without lease faults *)
  List.iter
    (fun protocol ->
      let a = Kv.Db.run (bank_cfg ~protocol ()) (bank_wl ~seed:11 ()) in
      let b = Kv.Db.run (bank_cfg ~protocol ~lease_faults:[ 25.0; 50.0 ] ()) (bank_wl ~seed:11 ()) in
      Alcotest.(check int) "committed unchanged" a.Kv.Db.committed b.Kv.Db.committed;
      Alcotest.(check int) "aborted unchanged" a.Kv.Db.aborted b.Kv.Db.aborted)
    [ KN.Two_phase; KN.Three_phase ]

(* ---------------- ballot/epoch monotonicity (satellite) ---------------- *)

let test_ballots_never_reuse_epoch_site () =
  (* Paxos ballots ride the PR-5 epoch encoding: across coordinator
     crashes and lease races, no site may assume leadership of the same
     transaction twice at one epoch, and no (txn, epoch) pair may be
     claimed by two sites *)
  let r =
    Kv.Db.run
      (bank_cfg ~crashes:[ (2, 30.0); (3, 60.0) ] ~recoveries:[ (2, 80.0) ]
         ~lease_faults:[ 45.0 ] ())
      (bank_wl ~seed:19 ())
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (txn, site, epoch) ->
      (match Hashtbl.find_opt seen (txn, epoch) with
      | Some site' when site' <> site ->
          Alcotest.failf "(txn %d, epoch %d) claimed by sites %d and %d" txn epoch site' site
      | Some _ -> Alcotest.failf "site %d re-emitted (txn %d, epoch %d)" site txn epoch
      | None -> ());
      Hashtbl.replace seen (txn, epoch) site;
      (* recovery ballots must outrank every possible round-0 coordinator
         ballot (site - 1 < n_sites) or adoption could be skipped *)
      Alcotest.(check bool)
        (Fmt.str "recovery epoch %d outranks all round-0 ballots" epoch)
        true (epoch >= 4))
    r.Kv.Db.directive_epochs

(* ---------------- chaos sweep: the five oracles hold ---------------- *)

let acceptor_profile =
  {
    KC.default_profile with
    Sim.Nemesis.p_acceptor_crash = 0.5;
    acceptor_sites = [ 1; 2; 3 ];
    max_acceptor_crashes = 1;
    p_lease_fault = 0.3;
  }

let test_paxos_sweep_clean () =
  let s =
    KC.sweep ~profile:acceptor_profile ~protocol:(KN.Paxos 1) ~n_sites:4 ~k:1 ~seeds:50 ()
  in
  Alcotest.(check int) "all seeds ran" 50 s.KC.seeds_run;
  match s.KC.failing with
  | [] -> ()
  | (seed, vs, plan) :: _ ->
      Alcotest.failf "seed %d violates %a under %s" seed
        (Fmt.list ~sep:Fmt.comma KC.pp_violation)
        vs
        (Engine.Failure_plan.to_string (Engine.Failure_plan.of_schedule plan))

(* ================= engine harness: vote-level Paxos Commit ================= *)

module EP = Engine.Paxos
module EC = Engine.Chaos
module FP = Engine.Failure_plan

let rb_2pc3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))

let ep_result ?votes ?(plan = FP.none) ?(n_sites = 4) ?(f = 1) ?(seed = 7) () =
  let cfg = EP.config ?votes ~plan ~n_sites ~f ~seed () in
  (cfg, EP.run cfg)

let test_engine_paxos_commits_failure_free () =
  let cfg, r = ep_result () in
  Alcotest.(check bool) "committed" true (r.Engine.Runtime.global_outcome = Some Core.Types.Committed);
  Alcotest.(check bool) "everyone decided" true r.Engine.Runtime.all_operational_decided;
  Alcotest.(check bool) "consistent" true r.Engine.Runtime.consistent;
  Alcotest.(check int) "no oracle violations" 0 (List.length (EP.violations ~cfg r))

let test_engine_paxos_no_vote_aborts () =
  let cfg, r = ep_result ~votes:[ (3, Core.Types.No) ] () in
  Alcotest.(check bool) "aborted" true (r.Engine.Runtime.global_outcome = Some Core.Types.Aborted);
  Alcotest.(check bool) "everyone decided" true r.Engine.Runtime.all_operational_decided;
  Alcotest.(check int) "no oracle violations" 0 (List.length (EP.violations ~cfg r))

let test_engine_replication_costs_messages () =
  let _, r0 = ep_result ~f:0 () in
  let _, r1 = ep_result ~f:1 () in
  Alcotest.(check bool) "f=1 sends more messages" true
    (r1.Engine.Runtime.messages_sent > r0.Engine.Runtime.messages_sent)

let test_catalog_projection_model_checks_blocking () =
  (* the catalog's single-site projection of Paxos Commit is 2PC-shaped:
     the model checker and the theorem agree it is safe but blocking —
     the nonblocking win lives in the replicated coordinator, which only
     the runtime harnesses exercise *)
  let module MC = Engine.Model_check in
  let rb = Engine.Rulebook.compile (Core.Catalog.paxos_commit 3) in
  let r = MC.run { MC.rulebook = rb; max_crashes = 1; limit = 4_000_000; rule = `Skeen } in
  Alcotest.(check bool) "projection safe under 1 crash" true r.MC.safe;
  Alcotest.(check bool) "projection blocks (like 2PC)" false r.MC.nonblocking;
  let n = Core.Nonblocking.analyze_protocol (Core.Catalog.paxos_commit 3) in
  Alcotest.(check bool) "theorem agrees" false n.Core.Nonblocking.nonblocking

(* the seed-35 chaos counterexample: the 2PC coordinator dies before its
   first transition and every participant blocks forever *)
let coordinator_blocking_plan = "step-crash site=1 step=1 mode=before"

let has oracle vs = List.exists (fun (v : EC.violation) -> v.EC.oracle = oracle) vs

let test_pinned_coordinator_crash_blocks_2pc_not_paxos () =
  let r2, v2 =
    EC.run_plan (Lazy.force rb_2pc3) ~plan:(FP.of_string_exn coordinator_blocking_plan) ~seed:35 ()
  in
  Alcotest.(check bool) "2pc: operational sites blocked" true
    (r2.Engine.Runtime.blocked_operational > 0);
  Alcotest.(check bool) "2pc: progress violation" true (has EC.Progress v2);
  let cfg, rp =
    ep_result ~plan:(FP.of_string_exn coordinator_blocking_plan) ~n_sites:3 ~f:1 ~seed:35 ()
  in
  Alcotest.(check bool) "paxos f=1: every survivor decides" true
    rp.Engine.Runtime.all_operational_decided;
  Alcotest.(check int) "paxos f=1: clean on all five oracles" 0
    (List.length (EP.violations ~cfg rp))

(* the PR-5 three-fault split-brain plan that forces fencing in 3PC:
   coordinator dies mid-broadcast, a backup stalls through the election,
   the elected backup decides and crashes before announcing *)
let fencing_pinned =
  "step-crash site=1 step=1 mode=after-logging:1; stall site=2 from=4 until=14; decide-crash \
   site=3 sent=0"

let test_pinned_split_brain_plan_survived () =
  let cfg, r = ep_result ~plan:(FP.of_string_exn fencing_pinned) ~n_sites:4 ~f:1 ~seed:1 () in
  Alcotest.(check bool) "every survivor decides" true r.Engine.Runtime.all_operational_decided;
  Alcotest.(check bool) "consistent" true r.Engine.Runtime.consistent;
  Alcotest.(check int) "clean on all five oracles" 0 (List.length (EP.violations ~cfg r))

let test_engine_ballots_unique_per_site () =
  (* TM crash plus a lease race: every leadership of the run must claim a
     distinct ballot, and recovery ballots must decode to their site *)
  let n_sites = 4 in
  let _, r =
    ep_result
      ~plan:(FP.of_string_exn "crash site=1 at=3; lease-fault at=8")
      ~n_sites ~f:1 ~seed:5 ()
  in
  let epochs = r.Engine.Runtime.directive_epochs in
  Alcotest.(check bool) "at least one recovery leadership" true
    (List.exists (fun (_, e) -> e > 0) epochs);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (site, e) ->
      (match Hashtbl.find_opt seen e with
      | Some site' -> Alcotest.failf "ballot %d claimed by sites %d and %d" e site' site
      | None -> ());
      Hashtbl.replace seen e site;
      Alcotest.(check int) (Fmt.str "ballot %d decodes to its site" e) site ((e mod n_sites) + 1))
    epochs

let test_engine_family_validation () =
  (* the CLI gate: acceptor-crash / lease-fault clauses only run under
     Paxos; move-crash names a 3PC termination phase Paxos lacks *)
  let plan = FP.of_string_exn "acceptor-crash site=2 at=3; lease-fault at=5" in
  Alcotest.(check int) "2pc rejects both paxos clauses" 2
    (List.length (FP.unsupported_clauses ~protocol:"central-2pc" plan));
  Alcotest.(check int) "paxos runs both" 0
    (List.length (FP.unsupported_clauses ~protocol:"paxos-commit" plan));
  let mv = FP.of_string_exn "move-crash site=2 sent=1" in
  Alcotest.(check int) "move-crash rejected under paxos" 1
    (List.length (FP.unsupported_clauses ~protocol:"paxos-commit" mv))

let test_engine_sweep_clean () =
  let _, s = EC.sweep_target (EP.target ~n_sites:4 ~f:1 ()) ~k:1 ~seeds:50 in
  Alcotest.(check int) "all seeds ran" 50 s.EC.seeds_run;
  match s.EC.counterexamples with
  | [] -> ()
  | cx :: _ ->
      Alcotest.failf "seed %d violates %a under %s" cx.EC.cx_seed EC.pp_violation
        cx.EC.cx_violation (FP.to_string cx.EC.cx_plan)

let suite =
  [
    Alcotest.test_case "kv: paxos commits failure-free" `Quick test_paxos_no_failures;
    Alcotest.test_case "kv: paxos f=0 matches 2pc commits" `Quick test_paxos_f0_degenerates_to_2pc_cost;
    Alcotest.test_case "kv: f=1 replication costs messages" `Quick test_paxos_replication_costs_messages;
    Alcotest.test_case "kv: coordinator crash blocks 2pc, not paxos" `Quick
      test_coordinator_crash_blocks_2pc_not_paxos;
    Alcotest.test_case "kv: paxos survives mid-run coordinator crash" `Quick
      test_paxos_survives_coordinator_crash_mid_run;
    Alcotest.test_case "kv: lease faults are safe" `Quick test_lease_faults_are_safe;
    Alcotest.test_case "kv: lease faults no-op under 2pc/3pc" `Quick
      test_lease_fault_noop_under_2pc_3pc;
    Alcotest.test_case "kv: ballots never reuse (txn, epoch, site)" `Quick
      test_ballots_never_reuse_epoch_site;
    Alcotest.test_case "kv: paxos chaos sweep clean (50 seeds)" `Slow test_paxos_sweep_clean;
    Alcotest.test_case "engine: paxos commits failure-free" `Quick
      test_engine_paxos_commits_failure_free;
    Alcotest.test_case "engine: a no vote aborts everywhere" `Quick test_engine_paxos_no_vote_aborts;
    Alcotest.test_case "engine: f=1 replication costs messages" `Quick
      test_engine_replication_costs_messages;
    Alcotest.test_case "engine: catalog projection model-checks safe-but-blocking" `Quick
      test_catalog_projection_model_checks_blocking;
    Alcotest.test_case "engine: pinned coordinator crash blocks 2pc, not paxos" `Quick
      test_pinned_coordinator_crash_blocks_2pc_not_paxos;
    Alcotest.test_case "engine: pinned 3-fault split-brain plan survived" `Quick
      test_pinned_split_brain_plan_survived;
    Alcotest.test_case "engine: ballots unique and decodable per site" `Quick
      test_engine_ballots_unique_per_site;
    Alcotest.test_case "engine: plan family validation" `Quick test_engine_family_validation;
    Alcotest.test_case "engine: paxos chaos sweep clean (50 seeds)" `Slow test_engine_sweep_clean;
  ]
