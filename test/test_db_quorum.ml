(** Tests for quorum termination and network partitions at the database
    level: the KV store survives the partition that split-brains the
    paper's rule, and pays for it by blocking below-quorum survivors. *)

let n_sites = 3
let q = (n_sites / 2) + 1

(* one cross-site transfer between sites 2 and 3, coordinated by site 2 *)
let keys () =
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  (k1, k2)

let transfer () =
  let k1, k2 = keys () in
  { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] }

let run ?(termination = Kv.Node.Quorum q) ?(crashes = []) ?(recoveries = []) ?(partitions = [])
    () =
  let k1, k2 = keys () in
  Kv.Db.run
    (Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~termination ~seed:3
       ~plan:(Helpers.timed_plan ~crashes ~recoveries () @ List.map Helpers.partition partitions)
       ~initial_data:[ (k1, 100); (k2, 100) ] ())
    [ (1.0, transfer ()) ]

let test_failure_free () =
  let r = run () in
  Alcotest.(check int) "committed" 1 r.Kv.Db.committed;
  Alcotest.(check bool) "atomic" true r.Kv.Db.atomicity_ok

let test_coordinator_crash_abort_side () =
  (* coordinator (site 2) dies in the vote window: the quorum of survivors
     {1?, 3} — here participants are {2,3}, so survivor 3 alone is below
     quorum and blocks; with a recovery the transaction resolves *)
  let r = run ~crashes:[ (2, 3.05) ] () in
  Alcotest.(check bool) "atomic" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "pending (below quorum)" 1 r.Kv.Db.pending;
  let r' = run ~crashes:[ (2, 3.05) ] ~recoveries:[ (2, 60.0) ] () in
  Alcotest.(check bool) "atomic after recovery" true r'.Kv.Db.atomicity_ok;
  Alcotest.(check int) "resolved after recovery" 0 r'.Kv.Db.pending

let test_partition_consistent () =
  (* partition site 3 away during the commit window: under the quorum rule
     nothing can go inconsistent; after healing everything resolves *)
  let r =
    run ~partitions:[ (3.05, 80.0, [ [ 1; 2 ]; [ 3 ] ]) ] ()
  in
  Alcotest.(check bool) "atomic through partition" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "resolved after heal" 0 r.Kv.Db.pending;
  Alcotest.(check int) "storage total conserved" 200 r.Kv.Db.storage_totals

let test_partition_bank_workload () =
  (* a whole workload through a partition window, quorum termination:
     atomicity must hold; pending only for requests lost to the minority *)
  let accounts = 16 in
  let rng = Sim.Rng.create ~seed:41 in
  let wl = Kv.Workload.bank rng ~n_txns:100 ~accounts ~arrival_rate:1.0 in
  let cfg =
    Kv.Db.config ~n_sites:4 ~protocol:Kv.Node.Three_phase ~termination:(Kv.Node.Quorum 3)
      ~seed:41
      ~plan:[ Helpers.partition (40.0, 120.0, [ [ 1; 2; 3 ]; [ 4 ] ]) ]
      ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance:100)
      ()
  in
  let r = Kv.Db.run cfg wl in
  Alcotest.(check bool) "atomicity through partition" true r.Kv.Db.atomicity_ok;
  (* transactions touching the isolated site are refused or aborted during
     the window; the rest commit *)
  Alcotest.(check bool) "a healthy fraction commits" true (r.Kv.Db.committed > 30);
  Alcotest.(check int) "every transaction accounted for" 100
    (r.Kv.Db.committed + r.Kv.Db.aborted + r.Kv.Db.pending);
  Alcotest.(check int) "money conserved" (Kv.Workload.bank_total ~accounts ~initial_balance:100)
    r.Kv.Db.storage_totals

let test_skeen_vs_quorum_on_partition () =
  (* the database-level version of E13/E14: same partition, the paper's
     rule may split-brain, the quorum rule may not.  (Whether the Skeen
     run actually violates atomicity depends on the timing of the window —
     here it does: the minority participant aborts an in-doubt transfer
     the majority commits.) *)
  (* the window must open after the participants send their votes (so the
     coordinator will precommit and, on detecting the "failure", commit)
     but before it sends the precommit — the partition check happens at
     send time, so only a window straddling the precommit send leaves the
     minority participant prepared, where the paper's rule aborts it *)
  let partitions = [ (2.8, 200.0, [ [ 1; 2 ]; [ 3 ] ]) ] in
  let skeen = run ~termination:Kv.Node.Skeen ~partitions () in
  let quorum = run ~termination:(Kv.Node.Quorum q) ~partitions () in
  Alcotest.(check bool) "quorum stays atomic" true quorum.Kv.Db.atomicity_ok;
  Alcotest.(check bool) "skeen split-brains on this schedule" false skeen.Kv.Db.atomicity_ok

let suite =
  [
    Alcotest.test_case "failure-free with quorum termination" `Quick test_failure_free;
    Alcotest.test_case "coordinator crash: below-quorum survivor blocks" `Quick
      test_coordinator_crash_abort_side;
    Alcotest.test_case "partition: consistent and converges" `Quick test_partition_consistent;
    Alcotest.test_case "bank workload through a partition" `Quick test_partition_bank_workload;
    Alcotest.test_case "skeen vs quorum on the same partition" `Quick
      test_skeen_vs_quorum_on_partition;
  ]
