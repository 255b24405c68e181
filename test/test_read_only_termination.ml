(** Regression tests for the interaction of the read-only optimization
    with the termination protocol: a read-only participant knows nothing
    about the outcome and must never act as a backup coordinator.  Before
    the fix, a read-only site elected as backup would broadcast a commit
    outcome it never learned, contradicting the recovered coordinator's
    presumed abort. *)

let n_sites = 3

(* a transaction whose lowest-numbered participant is read-only: the
   coordinator is the owner of the first key (site 2); site 1 only reads;
   site 3 writes *)
let txn_with_readonly_min () =
  let key_at s = List.find (fun k -> Kv.Txn.owner ~n_sites k = s) (List.init 200 Kv.Workload.key_name) in
  let k2 = key_at 2 and k1 = key_at 1 and k3 = key_at 3 in
  ((k1, k2, k3), { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k2, 1); Kv.Txn.Get k1; Kv.Txn.Add (k3, 1) ] })

let run ~crashes ~recoveries =
  let (k1, k2, k3), txn = txn_with_readonly_min () in
  Kv.Db.run
    (Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~read_only_opt:true ~seed:5
       ~plan:(Helpers.timed_plan ~crashes ~recoveries ())
       ~initial_data:[ (k1, 10); (k2, 10); (k3, 10) ] ())
    [ (1.0, txn) ]

let test_readonly_backup_stays_silent () =
  (* coordinator (site 2) dies right after collecting the votes; the
     read-only site 1 is the lowest eligible backup but must not decide —
     the prepared site 3 (next eligible after the fix removes site 1's
     participation) terminates with abort; the recovered coordinator's
     presumed abort then agrees *)
  List.iter
    (fun crash_at ->
      let r = run ~crashes:[ (2, crash_at) ] ~recoveries:[ (2, 60.0) ] in
      Alcotest.(check bool) (Fmt.str "atomicity preserved (crash %.1f)" crash_at) true
        r.Kv.Db.atomicity_ok;
      Alcotest.(check int) (Fmt.str "no pending (crash %.1f)" crash_at) 0 r.Kv.Db.pending;
      (* the outcome depends on how far the commit got before the crash,
         but storage must agree with it *)
      Alcotest.(check int)
        (Fmt.str "storage matches outcome (crash %.1f)" crash_at)
        (if r.Kv.Db.committed = 1 then 32 else 30)
        r.Kv.Db.storage_totals)
    [ 2.5; 3.0; 3.3; 4.5 ]

let test_readonly_with_commit () =
  (* no failures: the read-only site reads, the writers commit *)
  let r = run ~crashes:[] ~recoveries:[] in
  Alcotest.(check int) "committed" 1 r.Kv.Db.committed;
  Alcotest.(check bool) "atomic" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "both writes applied" 32 r.Kv.Db.storage_totals

let test_readonly_crash_after_decision () =
  (* coordinator dies after the precommit round: the prepared writer
     terminates with commit; the read-only site needs nothing *)
  let r = run ~crashes:[ (2, 5.6) ] ~recoveries:[ (2, 60.0) ] in
  Alcotest.(check bool) "atomic" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "no pending" 0 r.Kv.Db.pending

let suite =
  [
    Alcotest.test_case "read-only backup stays silent (regression)" `Quick
      test_readonly_backup_stays_silent;
    Alcotest.test_case "read-only with commit" `Quick test_readonly_with_commit;
    Alcotest.test_case "crash after decision" `Quick test_readonly_crash_after_decision;
  ]
