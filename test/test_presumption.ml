(** Tests for the commit-protocol presumptions and the read-only
    optimization on the KV commit path. *)

let n_sites = 3

(* one cross-site write transaction *)
let write_txn =
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 1) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, 1); Kv.Txn.Add (k2, 1) ] }

(* same two keys, but the second site only reads *)
let mixed_txn =
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 1) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, 1); Kv.Txn.Get k2 ] }

(* a transaction that will be vetoed: seed the lock conflict via a no-vote
   isn't expressible here, so use two txns deadlocking instead; simpler:
   measure the abort side through the empty-participant refusal path is
   not an abort either — use a direct veto via lock timeout *)

let run ?presumption ?read_only_opt ?(txn = write_txn) () =
  let cfg = Kv.Db.config ~n_sites ~protocol:Kv.Node.Two_phase ?presumption ?read_only_opt ~seed:5 () in
  Kv.Db.run cfg [ (1.0, txn) ]

let test_commit_message_counts () =
  let std = run () in
  let pa = run ~presumption:Kv.Node.Presume_abort () in
  let pc = run ~presumption:Kv.Node.Presume_commit () in
  Alcotest.(check int) "all commit" 1 std.Kv.Db.committed;
  Alcotest.(check int) "pa commits" 1 pa.Kv.Db.committed;
  Alcotest.(check int) "pc commits" 1 pc.Kv.Db.committed;
  (* on the commit path, presumed-commit saves exactly the Done acks *)
  Alcotest.(check bool) "pc cheaper than standard" true
    (pc.Kv.Db.messages_sent < std.Kv.Db.messages_sent);
  Alcotest.(check int) "pa = standard on commits" std.Kv.Db.messages_sent pa.Kv.Db.messages_sent;
  Alcotest.(check int) "pc saves one Done per participant" (std.Kv.Db.messages_sent - 2)
    pc.Kv.Db.messages_sent

let test_read_only_optimization () =
  let std = run ~txn:mixed_txn () in
  let ro = run ~read_only_opt:true ~txn:mixed_txn () in
  Alcotest.(check int) "both commit" std.Kv.Db.committed ro.Kv.Db.committed;
  (* the read-only participant skips the Outcome and Done messages *)
  Alcotest.(check int) "read-only saves two messages" (std.Kv.Db.messages_sent - 2)
    ro.Kv.Db.messages_sent;
  Alcotest.(check bool) "read-only vote counted" true
    (List.mem_assoc "read_only_votes" (Sim.Metrics.counters ro.Kv.Db.run_metrics))

let test_all_read_only () =
  (* every participant read-only: phase 2 disappears entirely *)
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 1) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let txn = { Kv.Txn.id = 1; ops = [ Kv.Txn.Get k1; Kv.Txn.Get k2 ] } in
  let r = run ~read_only_opt:true ~txn () in
  Alcotest.(check int) "committed" 1 r.Kv.Db.committed;
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok

let bank_with ~presumption ~crashes ~recoveries =
  let accounts = 16 in
  let rng = Sim.Rng.create ~seed:21 in
  let wl = Kv.Workload.bank rng ~n_txns:80 ~accounts ~arrival_rate:1.0 in
  let cfg =
    Kv.Db.config ~n_sites ~protocol:Kv.Node.Two_phase ~presumption ~seed:21
      ~plan:(Helpers.timed_plan ~crashes ~recoveries ())
      ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance:100)
      ()
  in
  Kv.Db.run cfg wl

let test_presumptions_preserve_atomicity_under_crashes () =
  List.iter
    (fun presumption ->
      let r =
        bank_with ~presumption ~crashes:[ (2, 30.0) ] ~recoveries:[ (2, 120.0) ]
      in
      Alcotest.(check bool)
        (Fmt.str "%s atomic" (Kv.Node.show_presumption presumption))
        true r.Kv.Db.atomicity_ok;
      Alcotest.(check int)
        (Fmt.str "%s invariant" (Kv.Node.show_presumption presumption))
        (Kv.Workload.bank_total ~accounts:16 ~initial_balance:100)
        r.Kv.Db.storage_totals)
    [ Kv.Node.No_presumption; Kv.Node.Presume_abort; Kv.Node.Presume_commit ]

let test_workload_savings_shape () =
  (* on an all-write, all-commit workload: PC < PA = standard *)
  let msgs presumption =
    (bank_with ~presumption ~crashes:[] ~recoveries:[]).Kv.Db.messages_sent
  in
  let std = msgs Kv.Node.No_presumption
  and pa = msgs Kv.Node.Presume_abort
  and pc = msgs Kv.Node.Presume_commit in
  Alcotest.(check bool) (Fmt.str "pc (%d) < std (%d)" pc std) true (pc < std);
  Alcotest.(check bool) (Fmt.str "pa (%d) <= std (%d)" pa std) true (pa <= std)

let suite =
  [
    Alcotest.test_case "commit-side message counts" `Quick test_commit_message_counts;
    Alcotest.test_case "read-only optimization" `Quick test_read_only_optimization;
    Alcotest.test_case "fully read-only transaction" `Quick test_all_read_only;
    Alcotest.test_case "presumptions preserve atomicity under crashes" `Quick
      test_presumptions_preserve_atomicity_under_crashes;
    Alcotest.test_case "workload savings shape" `Quick test_workload_savings_shape;
  ]
