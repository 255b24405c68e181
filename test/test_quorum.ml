(** Tests for quorum-based termination ({!Engine.Runtime.Quorum}): the
    partition-tolerant alternative to the paper's decision rule, trading
    liveness (minorities block) for safety under unreliable failure
    detection. *)

module R = Engine.Runtime
module FP = Engine.Failure_plan
module T = Engine.Termination

let rb3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let rb3_5 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 5))

let qcfg ?votes ?plan ?(seed = 1) rb =
  R.config ?votes ?plan ~seed ~termination:R.Quorum rb

let test_majority () =
  Alcotest.(check int) "majority of 3" 2 (T.majority 3);
  Alcotest.(check int) "majority of 4" 3 (T.majority 4);
  Alcotest.(check int) "majority of 5" 3 (T.majority 5)

let test_failure_free_unchanged () =
  let r = R.run (qcfg (Lazy.force rb3)) in
  List.iter
    (fun (s : R.site_report) ->
      Alcotest.(check (option Helpers.outcome)) "committed" (Some Core.Types.Committed) s.outcome)
    r.R.reports

let test_abort_side_termination () =
  (* coordinator dies before the prepare round: both survivors report w,
     2 unprepared >= quorum 2 -> abort *)
  let plan = FP.crash_at_step ~site:1 ~step:1 ~mode:(FP.After_logging 0) in
  let r = R.run (qcfg ~plan (Lazy.force rb3)) in
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
  let r = R.run (qcfg ~plan (Lazy.force rb3)) in
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
  let quorum = R.run (qcfg ~plan (Lazy.force rb3)) in
  Alcotest.(check int) "quorum: survivor blocked" 1 quorum.R.blocked_operational;
  Alcotest.(check bool) "quorum: still consistent" true quorum.R.consistent;
  let skeen = R.run (R.config ~plan (Lazy.force rb3)) in
  Alcotest.(check int) "skeen: survivor decides" 0 skeen.R.blocked_operational

let test_partition_safe () =
  (* the E13 split-brain scenario: under the quorum rule the minority
     blocks instead of aborting, so consistency survives the partition *)
  let r =
    R.run (qcfg ~plan:[ Helpers.partition (1.5, 200.0, [ [ 1; 2 ]; [ 3 ] ]) ] (Lazy.force rb3))
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
    R.run (qcfg ~plan:[ Helpers.partition (1.5, 9_999.0, [ [ 1; 2 ]; [ 3 ] ]) ] (Lazy.force rb3))
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
      (qcfg ~plan:[ Helpers.partition (4.5, 400.0, [ [ 1; 2 ]; [ 3; 4; 5 ] ]) ] (Lazy.force rb3_5))
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
  let r = R.run (qcfg ~plan (Lazy.force rb3)) in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  Alcotest.(check int) "survivor blocked" 1 r.R.blocked_operational

let test_cascade_above_quorum_commits () =
  (* five sites: coordinator dies pre-broadcast, first backup dies after
     one move; three survivors still form a quorum of prepared sites and
     the next backup finishes the commit (monotone counts) *)
  let plan =
    FP.of_string_exn "step-crash site=1 step=2 mode=after-logging:0; move-crash site=2 sent=1"
  in
  let r = R.run (qcfg ~plan (Lazy.force rb3_5)) in
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
              let r = R.run (qcfg ~plan ~seed:(site + step) (Lazy.force rb3)) in
              Alcotest.(check bool)
                (Fmt.str "site %d step %d consistent" site step)
                true r.R.consistent)
            modes)
        [ 0; 1; 2; 3 ])
    [ 1; 2; 3 ]

(* ---- the shared rules ({!Engine.Termination}) on hand-built inputs ---- *)

let view : unit T.view Alcotest.testable =
  Alcotest.testable
    (fun ppf v ->
      match v with
      | T.Seen o -> Fmt.pf ppf "seen %a" Core.Types.pp_outcome o
      | T.Move_up ((), p) -> Fmt.pf ppf "move up (%d prepared)" p
      | T.Unprepared u -> Fmt.pf ppf "abort (%d unprepared)" u
      | T.No_buffer -> Fmt.string ppf "no buffer"
      | T.Short (p, u) -> Fmt.pf ppf "short (%d prepared, %d unprepared)" p u)
    ( = )

let test_quorum_rule () =
  let open Core.Types in
  let with_buffer = T.quorum ~n_sites:3 ~buffer:(Some ()) in
  let without_buffer = T.quorum ~n_sites:3 ~buffer:None in
  let check = Alcotest.check view in
  check "a commit is visible" (T.Seen Committed) (with_buffer [ Wait; Commit; Wait ]);
  check "an abort is visible" (T.Seen Aborted) (with_buffer [ Buffer; Abort; Buffer ]);
  check "2 of 3 prepared: move up" (T.Move_up ((), 2)) (with_buffer [ Buffer; Wait; Buffer ]);
  check "2 of 3 unprepared: abort" (T.Unprepared 2) (with_buffer [ Initial; Buffer; Wait ]);
  check "neither a majority: wait" (T.Short (1, 1)) (with_buffer [ Buffer; Wait ]);
  check "a majority of 4 is 3" (T.Short (2, 2))
    (T.quorum ~n_sites:4 ~buffer:(Some ()) [ Buffer; Wait; Buffer; Wait ]);
  (* 2PC: the coordinator commits straight from its wait state, so an
     unprepared majority proves nothing *)
  check "no buffer state: an unprepared majority waits" (T.Short (0, 3))
    (without_buffer [ Wait; Wait; Initial ]);
  check "no buffer state: a prepared majority waits" T.No_buffer
    (without_buffer [ Buffer; Buffer ])

let move_answer : T.move_answer Alcotest.testable =
  Alcotest.testable
    (fun ppf a ->
      match a with
      | T.Reply o -> Fmt.pf ppf "reply %a" Core.Types.pp_outcome o
      | T.Ignore -> Fmt.string ppf "ignore"
      | T.Fence -> Fmt.string ppf "fence"
      | T.Adopt e -> Fmt.pf ppf "adopt at e%d" e)
    ( = )

let test_answer_move () =
  let answer ?outcome ?(recovered = false) ?(fencing = true) ~epoch_seen epoch =
    T.answer_move ~outcome ~recovered ~fencing ~epoch_seen ~epoch
  in
  let check = Alcotest.check move_answer in
  check "a stale epoch is fenced" T.Fence (answer ~epoch_seen:4 1);
  check "without fencing a stale move is adopted, keeping the higher epoch" (T.Adopt 4)
    (answer ~fencing:false ~epoch_seen:4 1);
  check "a decided site replies with its outcome, stale or not"
    (T.Reply Core.Types.Committed)
    (answer ~outcome:Core.Types.Committed ~epoch_seen:4 1);
  check "a recovered undecided site ignores the move" T.Ignore
    (answer ~recovered:true ~epoch_seen:(-1) 2);
  check "a current move is adopted at its epoch" (T.Adopt 3) (answer ~epoch_seen:1 3)

let test_close_phase1 () =
  let rb = Lazy.force rb3 in
  let p = Option.get (Core.Intern.state_code rb.Engine.Rulebook.codes "p") in
  let close ?(failed = fun _ -> false) awaiting = T.close_phase1 rb ~site:2 ~code:p ~awaiting ~failed in
  Alcotest.(check bool) "open while a site is awaited" true (close [ 3 ] = None);
  Alcotest.(check bool) "open while a live site is awaited" true
    (close ~failed:(fun s -> s = 1) [ 1; 3 ] = None);
  Alcotest.(check bool) "p closes in commit" true
    (close [] = Some (Engine.Rulebook.Decide Core.Types.Committed));
  Alcotest.(check bool) "a failed site is awaited no more" true
    (close ~failed:(fun s -> s = 3) [ 3 ] = Some (Engine.Rulebook.Decide Core.Types.Committed))

(* The election: one rule for every harness's leader, epochs and
   objection, each driver passing its own view as data. *)
let test_election_rule () =
  let elect ?alive ?(fallback = false) ?(self = 1) ?(crashed = false) ?(down = []) ?(tainted = [])
      candidates =
    T.eligible ?alive ~fallback { T.self; crashed; down; tainted } candidates
  in
  let check = Alcotest.(check (option int)) in
  check "the first candidate up and trusted" (Some 2) (elect ~down:[ 1 ] [ 1; 2; 3 ]);
  check "a tainted site is passed over" (Some 3) (elect ~tainted:[ 2 ] [ 2; 3 ]);
  check "without fallback an all-tainted view elects nobody" None
    (elect ~tainted:[ 2; 3 ] [ 2; 3 ]);
  check "with fallback it elects the first site up" (Some 3)
    (elect ~fallback:true ~down:[ 2 ] ~tainted:[ 2; 3 ] [ 2; 3 ]);
  check "a site that crashed is never its own candidate" (Some 2)
    (elect ~self:1 ~crashed:true [ 1; 2 ]);
  check "not even under fallback" None
    (elect ~fallback:true ~self:1 ~crashed:true ~tainted:[ 2 ] ~down:[ 2 ] [ 1; 2 ]);
  check "another site's crash is its taint, not a veto" (Some 1) (elect ~self:2 ~crashed:true [ 1; 2 ]);
  check "kv's alive override: up and trusted whatever the lists say" (Some 1)
    (elect ~alive:1 ~down:[ 1 ] ~tainted:[ 1 ] [ 1; 2; 3 ]);
  check "the override adds a candidate, it takes none away" (Some 1)
    (elect ~alive:3 ~tainted:[ 2 ] [ 1; 2; 3 ]);
  (* the runtime's objection: a better-ranked candidate that would elect itself *)
  let objects ?(crashed = false) ?(candidates = [ 1; 2; 3; 4 ]) ~self campaigner =
    T.objects ~campaigner ~fallback:false { T.self; crashed; down = [ 1 ]; tainted = [ 1 ] } candidates
  in
  Alcotest.(check bool) "a better-ranked live site objects" true (objects ~self:2 4);
  Alcotest.(check bool) "even below a site it does not suspect" true (objects ~self:2 3);
  Alcotest.(check bool) "a worse-ranked site does not" false (objects ~self:4 3);
  Alcotest.(check bool) "nor the campaigner itself" false (objects ~self:3 3);
  Alcotest.(check bool) "nor a site that crashed" false (objects ~crashed:true ~self:2 4);
  Alcotest.(check bool) "nor a site that is not a candidate" false
    (objects ~candidates:[ 1; 3; 4 ] ~self:2 4)

let test_epoch_rule () =
  let check = Alcotest.(check int) in
  List.iter
    (fun site -> check (Fmt.str "round 0 is site %d's rank" site) (site - 1) (T.epoch ~n_sites:4 ~site (-1)))
    [ 1; 2; 3; 4 ];
  check "the least epoch above seen, a round up" 5 (T.epoch ~n_sites:4 ~site:2 3);
  check "seen itself is never reissued" 9 (T.epoch ~n_sites:4 ~site:2 5);
  for n_sites = 2 to 5 do
    for site = 1 to n_sites do
      for seen = -1 to 3 * n_sites do
        let e = T.epoch ~n_sites ~site seen in
        let b = T.epoch ~round:1 ~n_sites ~site seen in
        Alcotest.(check bool) "strictly above seen" true (e > seen && b > seen);
        Alcotest.(check bool) "the least such" true (e - n_sites <= seen || e < n_sites);
        Alcotest.(check bool) "a standby ballot is >= n" true (b >= n_sites);
        check "leader_of inverts the epoch rule" site (T.leader_of ~n_sites e);
        check "and the standby ballot's" site (T.leader_of ~n_sites b)
      done
    done
  done

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
    Alcotest.test_case "quorum rule: all five outcomes" `Quick test_quorum_rule;
    Alcotest.test_case "answering a move: fence, reply, adopt" `Quick test_answer_move;
    Alcotest.test_case "phase 1 closes on the last awaited site" `Quick test_close_phase1;
    Alcotest.test_case "election: eligibility, fallback, objection" `Quick test_election_rule;
    Alcotest.test_case "election epochs: rank, rounds, leader_of" `Quick test_epoch_rule;
  ]
