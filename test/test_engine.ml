(** Tests for the engine substrate: {!Engine.Wal}, {!Engine.Failure_plan}
    and {!Engine.Rulebook}. *)

module W = Engine.Wal
module FP = Engine.Failure_plan
module RB = Engine.Rulebook

(* ---------------- Wal ---------------- *)

let test_wal_replay () =
  let w = W.create () in
  W.append w (W.Began { protocol = "x"; initial = "q" });
  Alcotest.(check (option string)) "initial" (Some "q") (W.last_state w);
  W.append w (W.Transitioned { to_state = "w"; vote = Some Core.Types.Yes });
  Alcotest.(check (option string)) "after transition" (Some "w") (W.last_state w);
  Alcotest.(check bool) "voted yes" true (W.voted_yes w);
  W.append w (W.Moved { to_state = "p" });
  Alcotest.(check (option string)) "after move" (Some "p") (W.last_state w);
  Alcotest.(check (option Helpers.outcome)) "undecided" None (W.decided w);
  W.append w (W.Decided Core.Types.Committed);
  Alcotest.(check (option Helpers.outcome)) "decided" (Some Core.Types.Committed) (W.decided w)

let test_wal_no_vote () =
  let w = W.create () in
  W.append w (W.Began { protocol = "x"; initial = "q" });
  W.append w (W.Transitioned { to_state = "a"; vote = Some Core.Types.No });
  Alcotest.(check bool) "no vote is not a yes vote" false (W.voted_yes w)

let test_wal_store () =
  let store = W.Store.create ~n_sites:3 () in
  W.append (W.Store.log store ~site:2) (W.Decided Core.Types.Aborted);
  Alcotest.(check int) "site 2 log grew" 1 (W.length (W.Store.log store ~site:2));
  Alcotest.(check int) "site 1 untouched" 0 (W.length (W.Store.log store ~site:1))

(* ---------------- Failure_plan ---------------- *)

let test_plan_lookup () =
  let plan = FP.crash_at_step ~site:2 ~step:1 ~mode:(FP.After_logging 1) in
  Alcotest.(check bool) "found" true (FP.find_step_crash plan ~site:2 ~step:1 = Some (FP.After_logging 1));
  Alcotest.(check bool) "other step" true (FP.find_step_crash plan ~site:2 ~step:0 = None);
  Alcotest.(check bool) "other site" true (FP.find_step_crash plan ~site:1 ~step:1 = None)

let test_plan_crashing_sites () =
  let plan =
    FP.of_string_exn
      "step-crash site=1 step=0 mode=before; crash site=3 at=4; move-crash site=2 sent=0"
  in
  Alcotest.(check (list int)) "all crashing sites" [ 1; 2; 3 ] (FP.crashing_sites plan)

(* ---------------- Rulebook ---------------- *)

let test_rulebook_3pc () =
  let rb = RB.compile (Core.Catalog.central_3pc 3) in
  Alcotest.(check bool) "nonblocking" true rb.RB.nonblocking;
  Alcotest.(check int) "resilience" 2 rb.RB.resilience;
  List.iter
    (fun site ->
      Alcotest.check Helpers.verdict
        (Fmt.str "site %d p -> commit" site)
        (RB.Decide Core.Types.Committed) (RB.verdict rb ~site ~state:"p");
      Alcotest.check Helpers.verdict
        (Fmt.str "site %d w -> abort" site)
        (RB.Decide Core.Types.Aborted) (RB.verdict rb ~site ~state:"w"))
    [ 1; 2; 3 ]

let test_rulebook_2pc () =
  let rb = RB.compile (Core.Catalog.central_2pc 3) in
  Alcotest.(check bool) "blocking" false rb.RB.nonblocking;
  (* slaves block in w; the coordinator can abort from w *)
  Alcotest.check Helpers.verdict "slave w blocked" RB.Blocked (RB.verdict rb ~site:2 ~state:"w");
  Alcotest.check Helpers.verdict "coordinator w aborts" (RB.Decide Core.Types.Aborted)
    (RB.verdict rb ~site:1 ~state:"w");
  Alcotest.check Helpers.verdict "slave c commits" (RB.Decide Core.Types.Committed)
    (RB.verdict rb ~site:2 ~state:"c")

let test_rulebook_final_states () =
  let rb = RB.compile (Core.Catalog.decentralized_2pc 2) in
  Alcotest.check Helpers.verdict "c decides commit" (RB.Decide Core.Types.Committed)
    (RB.verdict rb ~site:1 ~state:"c");
  Alcotest.check Helpers.verdict "a decides abort" (RB.Decide Core.Types.Aborted)
    (RB.verdict rb ~site:1 ~state:"a")

let test_rulebook_unknown_state_blocked () =
  let rb = RB.compile (Core.Catalog.central_2pc 2) in
  Alcotest.check Helpers.verdict "unknown state conservatively blocked" RB.Blocked
    (RB.verdict rb ~site:1 ~state:"zz")

let test_rulebook_consistent_with_theorem () =
  (* a state is Blocked in the rulebook iff it appears in a theorem
     violation *)
  List.iter
    (fun p ->
      let graph = Core.Reachability.build p in
      let rb = RB.compile p in
      let report = Core.Nonblocking.analyze graph in
      let cs = Core.Concurrency.compute graph in
      List.iter
        (fun site ->
          List.iter
            (fun state ->
              let blocked = RB.verdict rb ~site ~state = RB.Blocked in
              let violated =
                List.exists
                  (fun v -> v.Core.Nonblocking.site = site && v.Core.Nonblocking.state = state)
                  report.Core.Nonblocking.violations
              in
              Alcotest.(check bool) (Fmt.str "%s (%d,%s)" p.Core.Protocol.name site state) violated
                blocked)
            (Core.Concurrency.occupied_states cs ~site))
        (Core.Protocol.sites p))
    [ Core.Catalog.central_2pc 3; Core.Catalog.central_3pc 3; Core.Catalog.decentralized_2pc 2 ]

let suite =
  [
    Alcotest.test_case "wal replay" `Quick test_wal_replay;
    Alcotest.test_case "wal no-vote" `Quick test_wal_no_vote;
    Alcotest.test_case "wal store" `Quick test_wal_store;
    Alcotest.test_case "failure plan lookup" `Quick test_plan_lookup;
    Alcotest.test_case "failure plan crashing sites" `Quick test_plan_crashing_sites;
    Alcotest.test_case "rulebook 3PC" `Quick test_rulebook_3pc;
    Alcotest.test_case "rulebook 2PC" `Quick test_rulebook_2pc;
    Alcotest.test_case "rulebook final states" `Quick test_rulebook_final_states;
    Alcotest.test_case "rulebook unknown state" `Quick test_rulebook_unknown_state_blocked;
    Alcotest.test_case "rulebook = theorem violations" `Quick test_rulebook_consistent_with_theorem;
  ]
