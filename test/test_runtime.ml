(** Tests for {!Engine.Runtime}: executing the catalog protocols on the
    simulator under systematic failure injection.

    The central assertions mirror the paper:
    - atomicity is never violated, under any crash pattern;
    - under 3PC every operational site terminates (nonblocking);
    - under 2PC survivors block exactly when the theorem says they must,
      and unblock when the coordinator recovers. *)

module R = Engine.Runtime
module FP = Engine.Failure_plan
module RB = Engine.Rulebook

(* compile each rulebook once: the graph analyses dominate test time *)
let rb_c2 = lazy (RB.compile (Core.Catalog.central_2pc 3))
let rb_c3 = lazy (RB.compile (Core.Catalog.central_3pc 3))
let rb_d2 = lazy (RB.compile (Core.Catalog.decentralized_2pc 3))
let rb_d3 = lazy (RB.compile (Core.Catalog.decentralized_3pc 3))
let rb_1p = lazy (RB.compile (Core.Catalog.one_pc 3))

let run ?votes ?plan ?(seed = 1) rb = R.run (R.config ?votes ?plan ~seed (Lazy.force rb))

let check_all_outcome name expected (r : R.result) =
  List.iter
    (fun (s : R.site_report) ->
      Alcotest.(check (option Helpers.outcome)) (Fmt.str "%s site %d" name s.R.site) (Some expected)
        s.R.outcome)
    r.R.reports;
  Alcotest.(check bool) (name ^ " consistent") true r.R.consistent

let test_failure_free_commit () =
  List.iter
    (fun (name, rb) -> check_all_outcome name Core.Types.Committed (run rb))
    [ ("c2", rb_c2); ("c3", rb_c3); ("d2", rb_d2); ("d3", rb_d3); ("1p", rb_1p) ]

let test_failure_free_abort_on_no () =
  List.iter
    (fun (name, rb) ->
      check_all_outcome name Core.Types.Aborted (run ~votes:[ (2, Core.Types.No) ] rb))
    [ ("c2", rb_c2); ("c3", rb_c3); ("d2", rb_d2); ("d3", rb_d3) ]

let test_coordinator_no_vote () =
  check_all_outcome "coordinator veto" Core.Types.Aborted (run ~votes:[ (1, Core.Types.No) ] rb_c3)

(* The sweep: every site × protocol step × crash mode.  Steps range over
   the longest path (4 transitions in 3PC); nonexistent steps are no-ops. *)
let crash_modes k = [ FP.Before_transition; FP.After_logging 0; FP.After_logging k; FP.After_transition ]

let sweep rb ~nonblocking =
  let count = ref 0 in
  List.iter
    (fun site ->
      List.iter
        (fun step ->
          List.iter
            (fun mode ->
              incr count;
              let plan = FP.crash_at_step ~site ~step ~mode in
              let r = run ~plan ~seed:(100 + !count) rb in
              let label = Fmt.str "site %d step %d %a" site step FP.pp_crash_mode mode in
              Alcotest.(check bool) (label ^ ": consistent") true r.R.consistent;
              if nonblocking then
                Alcotest.(check bool)
                  (label ^ ": all operational sites decided")
                  true r.R.all_operational_decided)
            (crash_modes 1))
        [ 0; 1; 2; 3 ])
    [ 1; 2; 3 ]

let test_sweep_central_3pc () = sweep rb_c3 ~nonblocking:true
let test_sweep_decentralized_3pc () = sweep rb_d3 ~nonblocking:true
let test_sweep_central_2pc () = sweep rb_c2 ~nonblocking:false
let test_sweep_decentralized_2pc () = sweep rb_d2 ~nonblocking:false

let test_2pc_blocks_on_commit_point_crash () =
  (* the coordinator logs its commit decision and dies before telling
     anyone: 2PC survivors must block *)
  let plan = FP.crash_at_step ~site:1 ~step:1 ~mode:(FP.After_logging 0) in
  let r = run ~plan rb_c2 in
  Alcotest.(check int) "both slaves blocked" 2 r.R.blocked_operational;
  Alcotest.(check bool) "consistent" true r.R.consistent

let test_3pc_never_blocks_same_crash () =
  let plan = FP.crash_at_step ~site:1 ~step:1 ~mode:(FP.After_logging 0) in
  let r = run ~plan rb_c3 in
  Alcotest.(check int) "no blocked site" 0 r.R.blocked_operational;
  (* the coordinator had only reached the buffer phase: survivors abort *)
  check_all_outcome "survivors"
    Core.Types.Aborted
    { r with R.reports = List.filter (fun (s : R.site_report) -> s.R.operational) r.R.reports }

let test_3pc_commit_side_termination () =
  (* coordinator dies mid commit-broadcast: one slave learned commit, so
     the backup relays commit to everyone *)
  let plan = FP.crash_at_step ~site:1 ~step:2 ~mode:(FP.After_logging 1) in
  let r = run ~plan rb_c3 in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  List.iter
    (fun (s : R.site_report) ->
      if s.R.operational then
        Alcotest.(check (option Helpers.outcome))
          (Fmt.str "site %d committed" s.R.site)
          (Some Core.Types.Committed) s.R.outcome)
    r.R.reports

let test_2pc_unblocks_on_recovery () =
  let plan =
    FP.make
      ~step_crashes:[ { FP.site = 1; step = 1; mode = FP.After_logging 0 } ]
      ~recoveries:[ (1, 50.0) ] ()
  in
  let r = run ~plan rb_c2 in
  Alcotest.(check int) "no one left blocked" 0 r.R.blocked_operational;
  check_all_outcome "all commit after recovery" Core.Types.Committed r

let test_recovery_before_vote_aborts () =
  (* a slave crashes before voting and recovers: unilateral abort *)
  let plan =
    FP.make
      ~step_crashes:[ { FP.site = 2; step = 0; mode = FP.Before_transition } ]
      ~recoveries:[ (2, 50.0) ] ()
  in
  let r = run ~plan rb_c3 in
  check_all_outcome "everyone aborted" Core.Types.Aborted r

let test_recovered_site_learns_commit () =
  (* a slave crashes after voting yes; the rest commit; on recovery it
     must learn the commit, not abort *)
  let plan =
    FP.make
      ~step_crashes:[ { FP.site = 3; step = 1; mode = FP.After_transition } ]
      ~recoveries:[ (3, 80.0) ] ()
  in
  let r = run ~plan rb_c3 in
  check_all_outcome "everyone committed" Core.Types.Committed r

let test_cascade_coordinator_then_backup () =
  (* coordinator dies; backup (site 2) dies after moving one site; the
     last survivor must still terminate *)
  let plan =
    FP.make
      ~step_crashes:[ { FP.site = 1; step = 1; mode = FP.After_logging 0 } ]
      ~move_crashes:[ (2, 1) ] ()
  in
  let r = run ~plan rb_c3 in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  Alcotest.(check bool) "survivor decided" true r.R.all_operational_decided

let test_cascade_backup_dies_mid_decide () =
  (* backup crashes after sending one Decide: the remaining site already
     has the outcome or takes over; both must agree *)
  let plan =
    FP.make
      ~step_crashes:[ { FP.site = 1; step = 2; mode = FP.After_logging 0 } ]
      ~decide_crashes:[ (2, 1) ] ()
  in
  let r = run ~plan rb_c3 in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  Alcotest.(check bool) "survivor decided" true r.R.all_operational_decided

let test_down_to_one_survivor () =
  (* kill every site but 3, at different steps: 3PC still terminates *)
  let plan =
    FP.make
      ~step_crashes:
        [
          { FP.site = 1; step = 1; mode = FP.After_logging 0 };
          { FP.site = 2; step = 1; mode = FP.After_transition };
        ]
      ()
  in
  let r = run ~plan rb_c3 in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  Alcotest.(check bool) "last survivor decided" true r.R.all_operational_decided

let test_one_pc_blocking_slave () =
  (* 1PC: coordinator crashes before announcing; slaves cannot even abort
     unilaterally (no veto right) — they block *)
  let plan = FP.crash_at_step ~site:1 ~step:0 ~mode:FP.Before_transition in
  let r = run ~plan rb_1p in
  Alcotest.(check int) "both slaves blocked" 2 r.R.blocked_operational;
  Alcotest.(check bool) "consistent" true r.R.consistent

let test_message_counts_failure_free () =
  (* central 2PC on n sites: xact, vote, commit per slave = 3(n-1)
     messages; 3PC adds prepare+ack = 5(n-1) *)
  let r2 = run rb_c2 and r3 = run rb_c3 in
  Alcotest.(check int) "2pc messages" 6 r2.R.messages_sent;
  Alcotest.(check int) "3pc messages" 10 r3.R.messages_sent

let test_determinism () =
  let plan = FP.crash_at_step ~site:1 ~step:1 ~mode:(FP.After_logging 1) in
  let a = run ~plan ~seed:7 rb_c3 and b = run ~plan ~seed:7 rb_c3 in
  Alcotest.(check int) "same messages" a.R.messages_sent b.R.messages_sent;
  List.iter2
    (fun (x : R.site_report) (y : R.site_report) ->
      Alcotest.(check (option Helpers.outcome)) "same outcome" x.R.outcome y.R.outcome)
    a.R.reports b.R.reports

let test_duration_reported () =
  let r = run rb_c3 in
  Alcotest.(check bool) "positive duration" true (r.R.duration > 0.0)

let test_config_rejects_bad_sync_latency () =
  List.iter
    (fun sync_latency ->
      Alcotest.check_raises (Fmt.str "sync_latency %g" sync_latency)
        (Invalid_argument "Runtime.config: sync_latency must be finite and >= 0") (fun () ->
          ignore (R.config ~sync_latency (Lazy.force rb_c3))))
    [ -1.0; Float.nan; Float.infinity ]

let suite =
  [
    Alcotest.test_case "failure-free commit (all protocols)" `Quick test_failure_free_commit;
    Alcotest.test_case "failure-free abort on no vote" `Quick test_failure_free_abort_on_no;
    Alcotest.test_case "coordinator veto" `Quick test_coordinator_no_vote;
    Alcotest.test_case "crash sweep: central 3PC (nonblocking)" `Slow test_sweep_central_3pc;
    Alcotest.test_case "crash sweep: decentralized 3PC (nonblocking)" `Slow
      test_sweep_decentralized_3pc;
    Alcotest.test_case "crash sweep: central 2PC (consistent)" `Slow test_sweep_central_2pc;
    Alcotest.test_case "crash sweep: decentralized 2PC (consistent)" `Slow
      test_sweep_decentralized_2pc;
    Alcotest.test_case "2PC blocks on commit-point crash" `Quick test_2pc_blocks_on_commit_point_crash;
    Alcotest.test_case "3PC terminates on the same crash" `Quick test_3pc_never_blocks_same_crash;
    Alcotest.test_case "3PC commit-side termination" `Quick test_3pc_commit_side_termination;
    Alcotest.test_case "2PC unblocks on coordinator recovery" `Quick test_2pc_unblocks_on_recovery;
    Alcotest.test_case "recovery before vote aborts" `Quick test_recovery_before_vote_aborts;
    Alcotest.test_case "recovered site learns commit" `Quick test_recovered_site_learns_commit;
    Alcotest.test_case "cascade: coordinator then backup" `Quick test_cascade_coordinator_then_backup;
    Alcotest.test_case "cascade: backup dies mid-decide" `Quick test_cascade_backup_dies_mid_decide;
    Alcotest.test_case "down to one survivor" `Quick test_down_to_one_survivor;
    Alcotest.test_case "1PC slaves block" `Quick test_one_pc_blocking_slave;
    Alcotest.test_case "message counts" `Quick test_message_counts_failure_free;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "duration reported" `Quick test_duration_reported;
    Alcotest.test_case "config rejects a bad sync latency" `Quick
      test_config_rejects_bad_sync_latency;
  ]
