(** Tests for quorum-based termination ({!Engine.Runtime.Quorum}): the
    partition-tolerant alternative to the paper's decision rule, trading
    liveness (minorities block) for safety under unreliable failure
    detection. *)

module R = Engine.Runtime
module FP = Engine.Failure_plan

let rb3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let rb3_5 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 5))

let qcfg ?votes ?plan ?(seed = 1) rb n =
  R.config ?votes ?plan ~seed ~termination:(R.Quorum (R.majority n)) rb

let test_majority () =
  Alcotest.(check int) "majority of 3" 2 (R.majority 3);
  Alcotest.(check int) "majority of 4" 3 (R.majority 4);
  Alcotest.(check int) "majority of 5" 3 (R.majority 5)

let test_failure_free_unchanged () =
  let r = R.run (qcfg (Lazy.force rb3) 3) in
  List.iter
    (fun (s : R.site_report) ->
      Alcotest.(check (option Helpers.outcome)) "committed" (Some Core.Types.Committed) s.outcome)
    r.R.reports

let test_abort_side_termination () =
  (* coordinator dies before the prepare round: both survivors report w,
     2 unprepared >= quorum 2 -> abort *)
  let plan = FP.crash_at_step ~site:1 ~step:1 ~mode:(FP.After_logging 0) in
  let r = R.run (qcfg ~plan (Lazy.force rb3) 3) in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  List.iter
    (fun (s : R.site_report) ->
      if s.operational then
        Alcotest.(check (option Helpers.outcome)) "aborted" (Some Core.Types.Aborted) s.outcome)
    r.R.reports

let test_commit_side_termination () =
  (* coordinator dies after everyone is prepared: 2 prepared >= 2 ->
     move up and commit *)
  let plan = FP.crash_at_step ~site:1 ~step:2 ~mode:(FP.After_logging 0) in
  let r = R.run (qcfg ~plan (Lazy.force rb3) 3) in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  List.iter
    (fun (s : R.site_report) ->
      if s.operational then
        Alcotest.(check (option Helpers.outcome)) "committed" (Some Core.Types.Committed) s.outcome)
    r.R.reports

let test_lone_survivor_blocks () =
  (* the price of quorum termination: with n-1 failures the lone survivor
     cannot assemble a quorum and blocks — where Skeen's rule decides *)
  let plan =
    (* site 2 dies right after casting its yes vote *)
    FP.of_string_exn
      "step-crash site=1 step=1 mode=after-logging:0; step-crash site=2 step=0 \
       mode=after-transition"
  in
  let quorum = R.run (qcfg ~plan (Lazy.force rb3) 3) in
  Alcotest.(check int) "quorum: survivor blocked" 1 quorum.R.blocked_operational;
  Alcotest.(check bool) "quorum: still consistent" true quorum.R.consistent;
  let skeen = R.run (R.config ~plan (Lazy.force rb3)) in
  Alcotest.(check int) "skeen: survivor decides" 0 skeen.R.blocked_operational

let test_partition_safe () =
  (* the E13 split-brain scenario: under the quorum rule the minority
     blocks instead of aborting, so consistency survives the partition *)
  let r =
    R.run (qcfg ~plan:[ Helpers.partition (1.5, 200.0, [ [ 1; 2 ]; [ 3 ] ]) ] (Lazy.force rb3) 3)
  in
  Alcotest.(check bool) "consistent under partition" true r.R.consistent;
  (* after healing everyone converges on commit *)
  List.iter
    (fun (s : R.site_report) ->
      Alcotest.(check (option Helpers.outcome))
        (Fmt.str "site %d converged" s.site)
        (Some Core.Types.Committed) s.outcome)
    r.R.reports

let test_partition_minority_blocks_until_heal () =
  (* a partition that never heals: the majority decides, the minority
     stays blocked — consistent, just not live *)
  let r =
    R.run (qcfg ~plan:[ Helpers.partition (1.5, 9_999.0, [ [ 1; 2 ]; [ 3 ] ]) ] (Lazy.force rb3) 3)
  in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  let outcome s = (List.nth r.R.reports (s - 1)).R.outcome in
  Alcotest.(check (option Helpers.outcome)) "majority committed" (Some Core.Types.Committed) (outcome 1);
  Alcotest.(check (option Helpers.outcome)) "minority undecided" None (outcome 3)

let test_five_sites_partition () =
  (* 2-3 split on five sites during the prepare window: only the
     three-site side can decide *)
  let r =
    R.run
      (qcfg ~plan:[ Helpers.partition (4.5, 400.0, [ [ 1; 2 ]; [ 3; 4; 5 ] ]) ] (Lazy.force rb3_5) 5)
  in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  List.iter
    (fun (s : R.site_report) ->
      Alcotest.(check bool) (Fmt.str "site %d decided after heal" s.site) true (s.outcome <> None))
    r.R.reports

let test_cascade_below_quorum_blocks () =
  (* backup dies mid move-up leaving a single survivor: below the quorum
     it must block — safety over liveness *)
  let plan =
    FP.of_string_exn "step-crash site=1 step=2 mode=after-logging:0; move-crash site=2 sent=0"
  in
  let r = R.run (qcfg ~plan (Lazy.force rb3) 3) in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  Alcotest.(check int) "survivor blocked" 1 r.R.blocked_operational

let test_cascade_above_quorum_commits () =
  (* five sites: coordinator dies pre-broadcast, first backup dies after
     one move; three survivors still form a quorum of prepared sites and
     the next backup finishes the commit (monotone counts) *)
  let plan =
    FP.of_string_exn "step-crash site=1 step=2 mode=after-logging:0; move-crash site=2 sent=1"
  in
  let r = R.run (qcfg ~plan (Lazy.force rb3_5) 5) in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  List.iter
    (fun (s : R.site_report) ->
      if s.operational && not s.ever_crashed then
        Alcotest.(check (option Helpers.outcome))
          (Fmt.str "survivor %d committed" s.site)
          (Some Core.Types.Committed) s.outcome)
    r.R.reports

let test_sweep_consistent () =
  (* the full single-crash sweep stays consistent under the quorum rule *)
  let modes = [ FP.Before_transition; FP.After_logging 0; FP.After_logging 1; FP.After_transition ] in
  List.iter
    (fun site ->
      List.iter
        (fun step ->
          List.iter
            (fun mode ->
              let plan = FP.crash_at_step ~site ~step ~mode in
              let r = R.run (qcfg ~plan ~seed:(site + step) (Lazy.force rb3) 3) in
              Alcotest.(check bool)
                (Fmt.str "site %d step %d consistent" site step)
                true r.R.consistent)
            modes)
        [ 0; 1; 2; 3 ])
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "majority sizes" `Quick test_majority;
    Alcotest.test_case "failure-free unchanged" `Quick test_failure_free_unchanged;
    Alcotest.test_case "abort-side termination" `Quick test_abort_side_termination;
    Alcotest.test_case "commit-side termination" `Quick test_commit_side_termination;
    Alcotest.test_case "lone survivor blocks (the trade-off)" `Quick test_lone_survivor_blocks;
    Alcotest.test_case "partition-safe (fixes E13)" `Quick test_partition_safe;
    Alcotest.test_case "unhealed partition: minority blocks" `Quick
      test_partition_minority_blocks_until_heal;
    Alcotest.test_case "five sites, 2-3 split" `Quick test_five_sites_partition;
    Alcotest.test_case "cascade below quorum blocks" `Quick test_cascade_below_quorum_blocks;
    Alcotest.test_case "cascade above quorum commits" `Quick test_cascade_above_quorum_commits;
    Alcotest.test_case "single-crash sweep consistent" `Slow test_sweep_consistent;
  ]
