(** Integration tests for {!Kv.Db}: end-to-end transactions over the
    partitioned store under 2PC and 3PC, with crash/recovery — the paper's
    blocking-vs-nonblocking story on a live database. *)

let bank_cfg ?(protocol = Kv.Node.Three_phase) ?(seed = 11) ?(crashes = []) ?(recoveries = []) () =
  Kv.Db.config ~n_sites:4 ~protocol ~seed ~crashes ~recoveries
    ~initial_data:(Kv.Workload.bank_initial ~accounts:24 ~initial_balance:100) ()

let bank_wl ?(n_txns = 80) ~seed () =
  let rng = Sim.Rng.create ~seed in
  Kv.Workload.bank rng ~n_txns ~accounts:24 ~arrival_rate:0.7

let expected_total = Kv.Workload.bank_total ~accounts:24 ~initial_balance:100

let test_bank_no_failures_3pc () =
  let r = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "all committed" 80 r.Kv.Db.committed;
  Alcotest.(check int) "none pending" 0 r.Kv.Db.pending;
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals

let test_bank_no_failures_2pc () =
  let r = Kv.Db.run (bank_cfg ~protocol:Kv.Node.Two_phase ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "all committed" 80 r.Kv.Db.committed;
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals

let test_3pc_cheaper_in_messages_under_2pc () =
  (* the price of nonblocking: 3PC sends ~1.5x the messages of 2PC *)
  let r2 = Kv.Db.run (bank_cfg ~protocol:Kv.Node.Two_phase ()) (bank_wl ~seed:11 ()) in
  let r3 = Kv.Db.run (bank_cfg ~protocol:Kv.Node.Three_phase ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check bool) "3pc sends more messages" true
    (r3.Kv.Db.messages_sent > r2.Kv.Db.messages_sent);
  let ratio = float_of_int r3.Kv.Db.messages_sent /. float_of_int r2.Kv.Db.messages_sent in
  Alcotest.(check bool) (Fmt.str "ratio %.2f in [1.2, 1.8]" ratio) true (ratio > 1.2 && ratio < 1.8)

let test_crash_preserves_invariant_with_recovery () =
  (* crash two sites mid-run, recover them before the end: invariant and
     atomicity must hold for both protocols *)
  List.iter
    (fun protocol ->
      let r =
        Kv.Db.run
          (bank_cfg ~protocol ~crashes:[ (2, 30.0); (3, 55.0) ] ~recoveries:[ (2, 90.0); (3, 120.0) ] ())
          (bank_wl ~seed:13 ())
      in
      Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
      Alcotest.(check int)
        (Fmt.str "%s invariant after recovery" (Kv.Node.show_protocol protocol))
        expected_total r.Kv.Db.storage_totals)
    [ Kv.Node.Two_phase; Kv.Node.Three_phase ]

let test_atomicity_under_repeated_crashes () =
  (* a harsher schedule: every site except 1 bounces once *)
  List.iter
    (fun seed ->
      let r =
        Kv.Db.run
          (bank_cfg ~seed
             ~crashes:[ (2, 25.0); (3, 50.0); (4, 75.0) ]
             ~recoveries:[ (2, 60.0); (3, 100.0); (4, 130.0) ]
             ())
          (bank_wl ~seed ())
      in
      Alcotest.(check bool) (Fmt.str "atomicity seed %d" seed) true r.Kv.Db.atomicity_ok;
      Alcotest.(check int) (Fmt.str "invariant seed %d" seed) expected_total r.Kv.Db.storage_totals)
    [ 3; 17; 42 ]

let test_2pc_blocking_vs_3pc_on_vote_window_crash () =
  (* single cross-site transfer, coordinator crashes in the vote window:
     2PC leaves the transaction pending (blocked), 3PC resolves it *)
  let n_sites = 3 in
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  let wl = [ (1.0, { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] }) ] in
  let run protocol =
    Kv.Db.run
      (Kv.Db.config ~n_sites ~protocol ~seed:3 ~crashes:[ (2, 3.05) ]
         ~initial_data:[ (k1, 100); (k2, 100) ] ())
      wl
  in
  let r2 = run Kv.Node.Two_phase and r3 = run Kv.Node.Three_phase in
  Alcotest.(check int) "2pc: blocked pending" 1 r2.Kv.Db.pending;
  Alcotest.(check int) "3pc: resolved" 0 r3.Kv.Db.pending;
  Alcotest.(check bool) "2pc consistent anyway" true r2.Kv.Db.atomicity_ok;
  Alcotest.(check bool) "3pc consistent" true r3.Kv.Db.atomicity_ok

let test_2pc_blocked_txn_resolves_on_recovery () =
  let n_sites = 3 in
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  let wl = [ (1.0, { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] }) ] in
  let r =
    Kv.Db.run
      (Kv.Db.config ~n_sites ~protocol:Kv.Node.Two_phase ~seed:3 ~crashes:[ (2, 3.05) ]
         ~recoveries:[ (2, 40.0) ] ~initial_data:[ (k1, 100); (k2, 100) ] ())
      wl
  in
  Alcotest.(check int) "resolved after recovery" 0 r.Kv.Db.pending;
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "invariant" 200 r.Kv.Db.storage_totals

let test_deadlocks_cause_unilateral_aborts () =
  (* a maximally contended workload on few keys must produce deadlock or
     timeout aborts — the unilateral no votes the paper motivates *)
  let rng = Sim.Rng.create ~seed:23 in
  let spec =
    {
      Kv.Workload.default_spec with
      Kv.Workload.n_txns = 120;
      keys = 6;
      ops_per_txn = 3;
      write_ratio = 1.0;
      arrival_rate = 3.0;
    }
  in
  let wl = Kv.Workload.mixed rng spec in
  let r = Kv.Db.run (Kv.Db.config ~n_sites:3 ~protocol:Kv.Node.Three_phase ~seed:23 ()) wl in
  Alcotest.(check bool) "some aborts happened" true (r.Kv.Db.aborted > 0);
  Alcotest.(check bool) "deadlock aborts happened" true (r.Kv.Db.deadlock_aborts > 0);
  Alcotest.(check bool) "some transactions still commit" true (r.Kv.Db.committed > 0);
  Alcotest.(check int) "every transaction accounted for" 120
    (r.Kv.Db.committed + r.Kv.Db.aborted + r.Kv.Db.pending);
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok

let test_determinism () =
  let a = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  let b = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "same committed" a.Kv.Db.committed b.Kv.Db.committed;
  Alcotest.(check int) "same messages" a.Kv.Db.messages_sent b.Kv.Db.messages_sent;
  Alcotest.(check bool) "same fates" true (a.Kv.Db.fates = b.Kv.Db.fates)

let test_refuse_when_participant_down () =
  (* transactions touching a known-down site are refused outright *)
  let r =
    Kv.Db.run
      (bank_cfg ~protocol:Kv.Node.Three_phase ~crashes:[ (2, 5.0) ] ())
      (bank_wl ~seed:29 ~n_txns:60 ())
  in
  Alcotest.(check bool) "some refused" true
    (List.mem_assoc "refused_participant_down" (Sim.Metrics.counters r.Kv.Db.run_metrics));
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok

let suite =
  [
    Alcotest.test_case "bank, 3PC, no failures" `Quick test_bank_no_failures_3pc;
    Alcotest.test_case "bank, 2PC, no failures" `Quick test_bank_no_failures_2pc;
    Alcotest.test_case "3PC message overhead" `Quick test_3pc_cheaper_in_messages_under_2pc;
    Alcotest.test_case "crash + recovery preserves invariant" `Slow
      test_crash_preserves_invariant_with_recovery;
    Alcotest.test_case "repeated crashes, atomicity holds" `Slow test_atomicity_under_repeated_crashes;
    Alcotest.test_case "2PC blocks, 3PC terminates (vote-window crash)" `Quick
      test_2pc_blocking_vs_3pc_on_vote_window_crash;
    Alcotest.test_case "2PC blocked txn resolves on recovery" `Quick
      test_2pc_blocked_txn_resolves_on_recovery;
    Alcotest.test_case "deadlocks produce unilateral aborts" `Quick
      test_deadlocks_cause_unilateral_aborts;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "down participants refused" `Quick test_refuse_when_participant_down;
  ]
