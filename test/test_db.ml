(** Integration tests for {!Kv.Db}: end-to-end transactions over the
    partitioned store under 2PC and 3PC, with crash/recovery — the paper's
    blocking-vs-nonblocking story on a live database. *)

let bank_cfg ?(protocol = Kv.Node.Three_phase) ?(seed = 11) ?(crashes = []) ?(recoveries = []) () =
  Kv.Db.config ~n_sites:4 ~protocol ~seed ~plan:(Helpers.timed_plan ~crashes ~recoveries ())
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
      (Kv.Db.config ~n_sites ~protocol ~seed:3 ~plan:(Helpers.timed_plan ~crashes:[ (2, 3.05) ] ())
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
      (Kv.Db.config ~n_sites ~protocol:Kv.Node.Two_phase ~seed:3
         ~plan:(Helpers.timed_plan ~crashes:[ (2, 3.05) ] ~recoveries:[ (2, 40.0) ] ())
         ~initial_data:[ (k1, 100); (k2, 100) ] ())
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

(* ---- the end-of-run judgement, pinned as a golden table ---- *)

(* Storage faults as [skeen chaos --kv --disk-faults --lost-flush W]
   draws them. *)
let storage_profile ~lost_flush =
  {
    Kv.Chaos_db.default_profile with
    Sim.Nemesis.p_disk_fault = 0.6;
    lost_flush_weight = lost_flush;
  }

let chaos_case ?(n_sites = 4) ?(profile = Fun.id) ~protocol ~lost_flush ~k ~seed () =
  let target =
    Kv.Chaos_db.target
      ~profile:(profile (storage_profile ~lost_flush))
      (Kv.Chaos_db.config ~protocol ~n_sites ())
  in
  (Engine.Chaos.run_seed target ~k ~seed).Kv.Chaos_db.result

(* 2,000 mixed transactions at the [kv-mixed] settings; site 2 crashes at
   t=100 with its 223rd sync lying, and recovers at t=140. *)
let mixed_crash_case () =
  let spec =
    {
      Kv.Workload.n_txns = 2_000;
      arrival_rate = 5.0;
      keys = 512;
      ops_per_txn = 3;
      write_ratio = 0.5;
      zipf_skew = 0.0;
    }
  in
  Kv.Db.run
    (Kv.Db.config ~n_sites:4 ~protocol:Kv.Node.Three_phase ~seed:7 ~sync_latency:0.4
       ~group_commit:{ Kv.Kv_wal.max_batch = 8; max_wait = 0.05 }
       ~pipeline_depth:8
       ~plan:
         (Engine.Failure_plan.of_string_exn
            "crash site=2 at=100; recover site=2 at=140; disk site=2 fault=lost-flush nth=223")
       ())
    (Kv.Workload.mixed (Sim.Rng.create ~seed:7) spec)

(* Txn id 7 twice.  The first listed arrives after the run ends and would
   write at sites 1 and 2; the second runs, writing at sites 3 and 4.  The
   judgement reads the first listed, so sites 1 and 2 miss txn 7's
   writes. *)
let repeated_id_case () =
  let n_sites = 4 in
  let key_at site =
    List.find (fun k -> Kv.Txn.owner ~n_sites k = site) (List.init 100 Kv.Workload.key_name)
  in
  let transfer id a b =
    { Kv.Txn.id; ops = [ Kv.Txn.Add (key_at a, -5); Kv.Txn.Add (key_at b, 5) ] }
  in
  let wl =
    [
      (500.0, transfer 7 1 2);
      (1.0, transfer 7 3 4);
      (2.0, transfer 1 1 3);
      (3.0, transfer 2 2 4);
      (4.0, { Kv.Txn.id = 3; ops = [ Kv.Txn.Get (key_at 1); Kv.Txn.Put (key_at 4, 9) ] });
    ]
  in
  Kv.Db.run
    (Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~seed:5 ~until:100.0
       ~initial_data:(List.init n_sites (fun i -> (key_at (i + 1), 100)))
       ())
    wl

let judgement_cases =
  List.concat_map
    (fun (label, protocol, lost_flush, k, seeds) ->
      List.map
        (fun seed ->
          ( Printf.sprintf "chaos %s lost-flush=%d k=%d seed %d" label lost_flush k seed,
            fun () -> chaos_case ~protocol ~lost_flush ~k ~seed () ))
        seeds)
    [
      ("2pc", Kv.Node.Two_phase, 1, 1, [ 1; 92 ]);
      ("2pc", Kv.Node.Two_phase, 1, 2, [ 194; 6647; 8990; 13447 ]);
      ("2pc", Kv.Node.Two_phase, 8, 2, [ 191; 2608 ]);
      ("3pc", Kv.Node.Three_phase, 0, 1, [ 1; 129 ]);
      ("3pc", Kv.Node.Three_phase, 1, 2, [ 194; 8916 ]);
      ("3pc", Kv.Node.Three_phase, 8, 2, [ 9501 ]);
    ]
  @ [
      ( "chaos paxos f=1 lost-flush=1 k=2 seed 11757",
        fun () -> chaos_case ~profile:(Kv.Chaos_db.paxos_profile ~f:1) ~protocol:(Kv.Node.Paxos 1)
          ~lost_flush:1 ~k:2 ~seed:11757 () );
      ( "chaos 3pc n=6 lost-flush=1 k=2 seed 1497",
        fun () ->
          chaos_case ~n_sites:6 ~protocol:Kv.Node.Three_phase ~lost_flush:1 ~k:2 ~seed:1497 () );
      ("mixed 2000 txns, crash + lost flush", mixed_crash_case);
      ("repeated txn id", repeated_id_case);
    ]

(* (case, atomicity_ok, outcome_contradiction, |missing_applied|,
   |durability_breaches|, |in_doubt|, |fates|, digest of all six) *)
let judgement_row (name, case) =
  let r : Kv.Db.result = case () in
  let b = Buffer.create 4096 in
  let sites ps = String.concat ";" (List.map string_of_int ps) in
  Printf.bprintf b "atomicity_ok %b contradiction %b\n" r.atomicity_ok r.outcome_contradiction;
  List.iter
    (fun (txn, site, ps) -> Printf.bprintf b "missing %d %d [%s]\n" txn site (sites ps))
    r.missing_applied;
  List.iter
    (fun (site, txn, what) -> Printf.bprintf b "breach %d %d %s\n" site txn what)
    r.durability_breaches;
  List.iter
    (fun (site, txn, ps) -> Printf.bprintf b "in_doubt %d %d [%s]\n" site txn (sites ps))
    r.in_doubt;
  List.iter
    (fun (txn, f) -> Printf.bprintf b "fate %d %s\n" txn (Fmt.str "%a" Kv.Db.pp_txn_fate f))
    r.fates;
  ( name,
    r.atomicity_ok,
    r.outcome_contradiction,
    List.length r.missing_applied,
    List.length r.durability_breaches,
    List.length r.in_doubt,
    List.length r.fates,
    Digest.to_hex (Digest.string (Buffer.contents b)) )

(* Captured before the judgement was indexed (the Paxos and n=6 rows
   before it moved onto the per-site report); every field must stay
   byte-identical. *)
let judgement_golden =
  [
    ("chaos 2pc lost-flush=1 k=1 seed 1", true, false, 0, 0, 0, 10, "ba8899b08dfe06bca514237e31093ba5");
    ("chaos 2pc lost-flush=1 k=1 seed 92", true, false, 0, 1, 2, 10, "4891db50a186ce082d13e7709c4a7d95");
    ("chaos 2pc lost-flush=1 k=2 seed 194", false, false, 1, 1, 0, 10, "f544919d8e6be4be6c71743d8dc643e3");
    ("chaos 2pc lost-flush=1 k=2 seed 6647", false, false, 1, 1, 1, 10, "1e532643e45df8771c57b5745b3197bc");
    ("chaos 2pc lost-flush=1 k=2 seed 8990", false, true, 0, 1, 0, 10, "122a004af702a582756becd4c872af23");
    ("chaos 2pc lost-flush=1 k=2 seed 13447", true, false, 0, 1, 0, 10, "0e273236e18723e50a5c3891bb402087");
    ("chaos 2pc lost-flush=8 k=2 seed 191", false, true, 1, 1, 0, 10, "7ebf3df7d8d996f8b462554eb9cd6b8f");
    ("chaos 2pc lost-flush=8 k=2 seed 2608", false, true, 0, 1, 0, 10, "b56ff59051824985c1ccabe5a75e2e7d");
    ("chaos 3pc lost-flush=0 k=1 seed 1", true, false, 0, 0, 0, 10, "ba8899b08dfe06bca514237e31093ba5");
    ("chaos 3pc lost-flush=0 k=1 seed 129", false, false, 1, 0, 1, 10, "fa81e272afa5658109325df131cfeab7");
    ("chaos 3pc lost-flush=1 k=2 seed 194", false, false, 1, 1, 0, 10, "f544919d8e6be4be6c71743d8dc643e3");
    ("chaos 3pc lost-flush=1 k=2 seed 8916", false, false, 1, 1, 0, 10, "1e898d65269f83bda2c47c034e0fbcc8");
    ("chaos 3pc lost-flush=8 k=2 seed 9501", false, false, 1, 1, 1, 10, "afacdbe1e613e70df0deca81dc66e527");
    ("chaos paxos f=1 lost-flush=1 k=2 seed 11757", false, false, 1, 1, 2, 10, "eddee4ed8e79da7793a2def0f46985d9");
    ("chaos 3pc n=6 lost-flush=1 k=2 seed 1497", false, false, 1, 1, 0, 10, "4f80c7b85bd5db22af0f501a5913fe64");
    ("mixed 2000 txns, crash + lost flush", false, true, 0, 0, 0, 2000, "e6c9fa6931e2f0bd41b45a062078e6c9");
    ("repeated txn id", false, false, 2, 0, 0, 4, "8fd55f11ddff1c0ae43ed167ad559f90");
  ]

let test_judgement_golden () =
  let show (name, ok, contra, missing, breaches, in_doubt, fates, digest) =
    Printf.sprintf
      "%s: atomicity_ok=%b contradiction=%b missing=%d breaches=%d in_doubt=%d fates=%d %s" name ok
      contra missing breaches in_doubt fates digest
  in
  Alcotest.(check (list string))
    "judgement rows" (List.map show judgement_golden)
    (List.map (fun c -> show (judgement_row c)) judgement_cases);
  (* the table must exercise both halves the index replaced *)
  Alcotest.(check bool) "some row breaches durability" true
    (List.exists (fun (_, _, _, _, b, _, _, _) -> b > 0) judgement_golden);
  Alcotest.(check bool) "some row misses an applied write set" true
    (List.exists (fun (_, _, _, m, _, _, _, _) -> m > 0) judgement_golden)

(* ---- the Skeen backup on one transfer across all four sites ---- *)

(* Site 1 coordinates.  Sends are numbered from 0 in the order they leave:
   0-3 the prepares, 4-7 the votes, 8-11 the precommits to sites 1-4, so
   [msg nth=9 fault=drop] keeps site 2 prepared while sites 3 and 4
   precommit.  Site 2 is the first backup. *)
let backup_run plan =
  let n_sites = 4 and sites = [ 1; 2; 3; 4 ] in
  let key_at site =
    List.find (fun k -> Kv.Txn.owner ~n_sites k = site) (List.init 100 Kv.Workload.key_name)
  in
  Kv.Db.run
    (Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~seed:3 ~tracing:true
       ~plan:(Engine.Failure_plan.of_string_exn plan)
       ~initial_data:(List.map (fun s -> (key_at s, 100)) sites)
       ())
    [ (1.0, { Kv.Txn.id = 1; ops = List.map (fun s -> Kv.Txn.Add (key_at s, 1)) sites }) ]

let backup_case r =
  (* the fate, two counters, and every move a backup sent *)
  let backup_move (e : Sim.World.trace_entry) =
    match Scanf.sscanf_opt e.what "send %d->%d %[a-z](t%d,e%d)" (fun _ _ verb _ ep -> (verb, ep)) with
    | Some (("precommit" | "demote"), epoch) -> epoch > 0
    | _ -> false
  in
  Fmt.str "%a" Kv.Db.pp_txn_fate (List.assoc 1 r.Kv.Db.fates)
  :: Printf.sprintf "terminations=%d messages_sent=%d"
       (Sim.Metrics.counter r.Kv.Db.run_metrics "terminations")
       r.Kv.Db.messages_sent
  :: List.filter_map
       (fun (e : Sim.World.trace_entry) ->
         if backup_move e then Some (Printf.sprintf "%.2f %s" e.at e.what) else None)
       r.Kv.Db.trace

let check_backup name plan expected =
  Alcotest.(check (list string)) name expected (backup_case (backup_run plan))

let test_backup_moves_up () =
  (* site 3 misses its precommit; site 2 is precommitted, so it moves
     site 3 up and commits *)
  check_backup "commit-side move-up" "msg nth=10 fault=drop; crash site=1 at=5.5"
    [
      "Fate_committed";
      "terminations=1 messages_sent=25";
      "7.50 send 2->3 precommit(t1,e1)";
      "7.50 send 2->4 precommit(t1,e1)";
    ]

let test_backup_demotes () =
  (* site 2 misses its precommit; it is prepared, so it moves the
     precommitted sites 3 and 4 down and aborts *)
  check_backup "abort-side demote" "msg nth=9 fault=drop; crash site=1 at=5.5"
    [
      "Fate_aborted";
      "terminations=1 messages_sent=25";
      "7.50 send 2->3 demote(t1,e1)";
      "7.50 send 2->4 demote(t1,e1)";
    ]

let test_backup_cascade () =
  (* site 2 moves site 3 up (its move to site 4 is lost) and dies before
     the ack is back.  Site 3 takes over as soon as it learns of site 2's
     failure, the coordinator still down: it is precommitted, moves site 4
     up and commits.  When the coordinator, recovered meanwhile, fails
     again, site 3 is done and announces its outcome (a third
     termination) *)
  check_backup "cascade"
    "msg nth=10 fault=drop; msg nth=11 fault=drop; crash site=1 at=5.5; msg nth=15 fault=drop; \
     crash site=2 at=8.8; recover site=1 at=12; crash site=1 at=20"
    [
      "Fate_committed";
      "terminations=3 messages_sent=40";
      "7.50 send 2->3 precommit(t1,e1)";
      "10.80 send 3->4 precommit(t1,e2)";
    ]

let test_dead_backup_replaced () =
  (* the cascade without the coordinator's recovery: sites 3 and 4 never
     crash and learn of site 2's failure while the coordinator is still
     down, so they elect site 3 instead of holding transaction 1's locks
     until the coordinator returns *)
  let plan =
    "msg nth=10 fault=drop; msg nth=11 fault=drop; crash site=1 at=5.5; msg nth=15 fault=drop; \
     crash site=2 at=8.8"
  in
  let r = backup_run plan in
  Alcotest.(check (list string))
    "dead backup replaced"
    [
      "Fate_committed";
      "terminations=2 messages_sent=24";
      "7.50 send 2->3 precommit(t1,e1)";
      "10.80 send 3->4 precommit(t1,e2)";
    ]
    (backup_case r);
  Alcotest.(check (list (pair int int)))
    "no operational site left in doubt" []
    (List.map (fun (site, txn, _) -> (site, txn)) r.Kv.Db.in_doubt);
  Alcotest.(check int) "none pending" 0 r.Kv.Db.pending

let test_config_rejects_bad_numbers () =
  let rejects what f =
    Alcotest.check_raises what (Invalid_argument ("Db.config: " ^ what)) (fun () -> ignore (f ()))
  in
  rejects "n_sites must be >= 1" (fun () -> Kv.Db.config ~n_sites:0 ());
  rejects "pipeline_depth must be >= 1" (fun () -> Kv.Db.config ~pipeline_depth:0 ());
  List.iter
    (fun sync_latency ->
      rejects "sync_latency must be finite and >= 0" (fun () -> Kv.Db.config ~sync_latency ()))
    [ -1.0; Float.nan; Float.infinity ]

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
    Alcotest.test_case "end-of-run judgement matches the golden table" `Quick
      test_judgement_golden;
    Alcotest.test_case "Skeen backup: commit-side move-up" `Quick test_backup_moves_up;
    Alcotest.test_case "Skeen backup: abort-side demote" `Quick test_backup_demotes;
    Alcotest.test_case "Skeen backup: cascade after phase 1" `Quick test_backup_cascade;
    Alcotest.test_case "Skeen backup: a dead backup is replaced" `Quick test_dead_backup_replaced;
    Alcotest.test_case "config rejects bad numbers" `Quick test_config_rejects_bad_numbers;
  ]
