(** What the paper's network assumption is worth: run 3PC through a
    network partition three ways.

    Skeen's model assumes the network never fails and reports site
    failures reliably.  This example deliberately breaks that assumption —
    a partition separates site 3 from sites 1 and 2 during the commit
    window, and each side's failure detector wrongly reports the other
    side dead — then shows:

    1. 3PC with the paper's termination rule splits its brain
       (the majority commits, the minority aborts);
    2. 2PC merely blocks the minority and recovers consistency when the
       partition heals;
    3. 3PC with quorum-based termination stays consistent AND converges —
       the direction Skeen's quorum-commit follow-up work takes.

    Run with: dune exec examples/partition_tolerance.exe *)

let partition = Engine.Failure_plan.of_string_exn "partition from=1.5 until=200 groups=1,2|3"

let describe label (r : Engine.Runtime.result) =
  Fmt.pr "--- %s ---@.%a@." label Engine.Runtime.pp_result r;
  Fmt.pr "verdict: %s@.@."
    (if not r.Engine.Runtime.consistent then "ATOMICITY VIOLATED (split brain)"
     else if r.Engine.Runtime.blocked_operational > 0 then "consistent, but sites left blocked"
     else "consistent, everyone decided");
  r

let () =
  Fmt.pr
    "Partition {1,2} | {3} from t=1.5 to t=200, with false failure reports@.\
     on both sides (the paper's assumptions, violated).@.@.";

  let rb3 = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let rb2 = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in

  let r1 =
    describe "3PC, Skeen termination rule"
      (Engine.Runtime.run (Engine.Runtime.config ~plan:partition rb3))
  in
  assert (not r1.Engine.Runtime.consistent);

  let r2 =
    describe "2PC (blocks instead)" (Engine.Runtime.run (Engine.Runtime.config ~plan:partition rb2))
  in
  assert r2.Engine.Runtime.consistent;

  let r3 =
    describe "3PC, quorum termination (majority = 2)"
      (Engine.Runtime.run
         (Engine.Runtime.config ~plan:partition
            ~termination:Engine.Runtime.Quorum
            rb3))
  in
  assert r3.Engine.Runtime.consistent;
  assert (List.for_all (fun (s : Engine.Runtime.site_report) -> s.outcome <> None) r3.Engine.Runtime.reports);

  Fmt.pr
    "Summary:@.\
    \  - the paper's theorem is sharp: its nonblocking guarantee consumes@.\
    \    the reliable-detector assumption entirely;@.\
    \  - 2PC trades availability for safety under partitions;@.\
    \  - quorum termination buys both, at the price of blocking minorities@.\
    \    (and of never terminating with fewer than a quorum of survivors).@."
