(** The experiment harness: regenerates every figure/table of the paper
    (E1–E7 are the paper's analytical artifacts; E8–E12 are the
    quantitative experiments its claims predict).  Each experiment prints
    the artifact and a PASS/FAIL line comparing against the paper's
    statement; EXPERIMENTS.md records the correspondence. *)

let section id title = Fmt.pr "@.=== %s — %s ===@." id title

let verdict id ok = Fmt.pr "[%s] %s@." (if ok then "PASS" else "FAIL") id

let all_pass = ref true
let check id ok =
  if not ok then all_pass := false;
  verdict id ok

(* Machine-readable results, accumulated alongside the printed artifacts
   and exported by bench/main.ml as BENCH_results.json. *)
module J = Sim.Json
module FP = Engine.Failure_plan

let results : (string * J.t) list ref = ref []
let record_result name json = results := (name, json) :: List.remove_assoc name !results
let results_json () = J.Obj (List.rev !results)

(* ------------------------------------------------------------------ *)

let e1_fsa_figures () =
  section "E1" "FSAs for the 2PC protocol (paper Fig. 1)";
  let p = Core.Catalog.central_2pc 3 in
  Fmt.pr "%a@." Core.Automaton.pp (Core.Protocol.automaton p 1);
  Fmt.pr "%a@." Core.Automaton.pp (Core.Protocol.automaton p 2);
  let coord = Core.Protocol.automaton p 1 and slave = Core.Protocol.automaton p 2 in
  check "E1 coordinator has states q,w,a,c"
    (List.sort compare (List.map (fun s -> s.Core.Automaton.id) coord.Core.Automaton.states)
    = [ "a"; "c"; "q"; "w" ]);
  check "E1 slave has 4 transitions (figure)" (List.length slave.Core.Automaton.transitions = 4);
  check "E1 both FSAs valid" (Core.Automaton.is_valid coord && Core.Automaton.is_valid slave)

let e2_reachable_graph () =
  section "E2" "Reachable state graph for the 2-site 2PC protocol (paper Fig. 2)";
  let p = Core.Catalog.central_2pc 2 in
  let g = Core.Reachability.build p in
  let s = Core.Reachability.stats g in
  Fmt.pr "%a@." Core.Reachability.pp_stats s;
  Fmt.pr "@.DOT rendering (paste into graphviz):@.%s@." (Core.Render.reachability_to_dot g);
  check "E2 no inconsistent global states" (s.Core.Reachability.inconsistent = 0);
  check "E2 no deadlocked states" (s.Core.Reachability.deadlocked = 0);
  check "E2 both outcomes reachable"
    (s.Core.Reachability.commit_reachable && s.Core.Reachability.abort_reachable);
  (* exponential growth claim *)
  let sizes = List.map (fun n -> (Core.Reachability.stats (Core.Reachability.build (Core.Catalog.central_2pc n))).Core.Reachability.states) [ 2; 3; 4; 5 ] in
  Fmt.pr "growth with sites: %a@." Fmt.(list ~sep:comma int) sizes;
  check "E2 growth is superlinear"
    (match sizes with [ a; b; c; d ] -> c - b > b - a && d - c > c - b | _ -> false)

let e3_concurrency_sets () =
  section "E3" "Concurrency sets in the canonical 2PC protocol (paper Fig. 8)";
  let g = Core.Reachability.build (Core.Catalog.decentralized_2pc 2) in
  print_string (Core.Render.concurrency_table g);
  let cs state = Helpers_bench.cs_ids g state in
  check "E3 CS(q) = {q,w,a}" (cs "q" = [ "a"; "q"; "w" ]);
  check "E3 CS(w) = {q,w,a,c}" (cs "w" = [ "a"; "c"; "q"; "w" ]);
  check "E3 CS(a) = {q,w,a}" (cs "a" = [ "a"; "q"; "w" ]);
  check "E3 CS(c) = {w,c}" (cs "c" = [ "c"; "w" ])

let e4_blocking_2pc () =
  section "E4" "Blocking analysis of 2PC, both paradigms (paper §3-4)";
  List.iter
    (fun (label, p, blocking_state) ->
      let r = Core.Nonblocking.analyze_protocol p in
      Fmt.pr "%a@.@." Core.Nonblocking.pp_report r;
      check (Fmt.str "E4 %s is blocking" label) (not r.Core.Nonblocking.nonblocking);
      check
        (Fmt.str "E4 %s: every violation is at state %s" label blocking_state)
        (List.for_all
           (fun v -> v.Core.Nonblocking.state = blocking_state)
           r.Core.Nonblocking.violations))
    [
      ("central 2PC", Core.Catalog.central_2pc 3, "w");
      ("decentralized 2PC", Core.Catalog.decentralized_2pc 3, "w");
      (* 1PC has no wait state: slaves block in q, before even learning of
         the transaction *)
      ("1PC", Core.Catalog.one_pc 3, "q");
    ]

let e5_buffer_synthesis () =
  section "E5" "Making the canonical 2PC protocol nonblocking (paper Fig. 9)";
  let synth = Core.Synthesis.buffer_skeleton Core.Skeleton.canonical_2pc in
  Fmt.pr "%a@." Core.Skeleton.pp synth;
  check "E5 canonical 2PC + buffer state = canonical 3PC"
    (Core.Skeleton.equal synth Core.Skeleton.canonical_3pc);
  let graph = Core.Reachability.build (Core.Catalog.central_2pc 3) in
  let { Core.Synthesis.protocol; buffers_added } = Core.Synthesis.buffer_protocol graph in
  Fmt.pr "message-level synthesis added buffer states: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    buffers_added;
  let report = Core.Nonblocking.analyze_protocol protocol in
  check "E5 synthesized central protocol is nonblocking" report.Core.Nonblocking.nonblocking;
  let sync = Core.Synchrony.check protocol in
  check "E5 synthesized protocol stays synchronous" sync.Core.Synchrony.synchronous

let e6_3pc_nonblocking () =
  section "E6" "3PC is nonblocking, both paradigms (paper Figs. 10-11)";
  List.iter
    (fun (label, build) ->
      List.iter
        (fun n ->
          let r = Core.Nonblocking.analyze_protocol (build n) in
          Fmt.pr "%s n=%d: %s, resilience %d@." label n
            (if r.Core.Nonblocking.nonblocking then "NONBLOCKING" else "BLOCKING")
            r.Core.Nonblocking.resilience;
          check (Fmt.str "E6 %s n=%d nonblocking" label n) r.Core.Nonblocking.nonblocking;
          check
            (Fmt.str "E6 %s n=%d resilient to n-1 failures (corollary)" label n)
            (r.Core.Nonblocking.resilience = n - 1))
        [ 2; 3; 4 ])
    [ ("central 3PC", Core.Catalog.central_3pc); ("decentralized 3PC", Core.Catalog.decentralized_3pc) ]

let e7_decision_rule () =
  section "E7" "Termination protocol decision rule (paper Fig. 12)";
  List.iter
    (fun state ->
      Fmt.pr "backup coordinator in %s -> %a@." state Core.Termination_rule.pp_decision
        (Core.Termination_rule.decide_skeleton Core.Skeleton.canonical_3pc ~state))
    [ "q"; "w"; "p"; "a"; "c" ];
  let d s = Core.Termination_rule.decide_skeleton Core.Skeleton.canonical_3pc ~state:s in
  check "E7 commit iff state in {p, c}"
    (d "p" = Core.Types.Committed && d "c" = Core.Types.Committed && d "q" = Core.Types.Aborted
    && d "w" = Core.Types.Aborted && d "a" = Core.Types.Aborted);
  check "E7 rule safe everywhere for 3PC"
    (Core.Termination_rule.unsafe_states (Core.Reachability.build (Core.Catalog.central_3pc 3)) = []);
  check "E7 rule unsafe at 2PC slaves' w"
    (List.sort compare
       (Core.Termination_rule.unsafe_states (Core.Reachability.build (Core.Catalog.central_2pc 3)))
    = [ (2, "w"); (3, "w") ])

(* ------------------------------------------------------------------ *)
(* quantitative experiments                                            *)
(* ------------------------------------------------------------------ *)

(* systematic single-crash enumeration for one protocol *)
let crash_census rb ~n =
  let modes =
    [
      Engine.Failure_plan.Before_transition;
      Engine.Failure_plan.After_logging 0;
      Engine.Failure_plan.After_logging 1;
      Engine.Failure_plan.After_transition;
    ]
  in
  let runs = ref 0 and blocked = ref 0 and inconsistent = ref 0 in
  List.iter
    (fun site ->
      List.iter
        (fun step ->
          List.iter
            (fun mode ->
              incr runs;
              let plan = Engine.Failure_plan.crash_at_step ~site ~step ~mode in
              let r = Engine.Runtime.run (Engine.Runtime.config ~plan ~seed:!runs rb) in
              if r.Engine.Runtime.blocked_operational > 0 then incr blocked;
              if not r.Engine.Runtime.consistent then incr inconsistent)
            modes)
        [ 0; 1; 2; 3 ])
    (List.init n (fun i -> i + 1));
  (!runs, !blocked, !inconsistent)

let e8_blocking_census () =
  section "E8" "Single-failure census: 2PC blocks, 3PC never does (paper's core claim)";
  Fmt.pr "%-22s %6s %14s %14s@." "protocol" "runs" "blocked runs" "inconsistent";
  let rows =
    List.map
      (fun (label, p) ->
        let rb = Engine.Rulebook.compile p in
        let runs, blocked, inconsistent = crash_census rb ~n:3 in
        Fmt.pr "%-22s %6d %14d %14d@." label runs blocked inconsistent;
        (label, runs, blocked, inconsistent))
      [
        ("central-2pc", Core.Catalog.central_2pc 3);
        ("decentralized-2pc", Core.Catalog.decentralized_2pc 3);
        ("central-3pc", Core.Catalog.central_3pc 3);
        ("decentralized-3pc", Core.Catalog.decentralized_3pc 3);
      ]
  in
  List.iter
    (fun (label, _, blocked, inconsistent) ->
      check (Fmt.str "E8 %s never inconsistent" label) (inconsistent = 0);
      if String.length label >= 3 && String.sub label (String.length label - 3) 3 = "3pc" then
        check (Fmt.str "E8 %s never blocks" label) (blocked = 0)
      else check (Fmt.str "E8 %s blocks sometimes" label) (blocked > 0))
    rows

let e9_message_complexity () =
  section "E9" "Message and latency cost per commit, failure-free sweep";
  Fmt.pr "%-4s %14s %14s %14s %14s@." "n" "central-2pc" "central-3pc" "dec-2pc" "dec-3pc";
  let results =
    List.map
      (fun n ->
        let run p =
          let rb = Engine.Rulebook.compile p in
          let r = Engine.Runtime.run (Engine.Runtime.config rb) in
          (r.Engine.Runtime.messages_sent, r.Engine.Runtime.duration)
        in
        let c2 = run (Core.Catalog.central_2pc n)
        and c3 = run (Core.Catalog.central_3pc n)
        and d2 = run (Core.Catalog.decentralized_2pc n)
        and d3 = run (Core.Catalog.decentralized_3pc n) in
        Fmt.pr "%-4d %8d msgs %8d msgs %8d msgs %8d msgs@." n (fst c2) (fst c3) (fst d2) (fst d3);
        (n, c2, c3, d2, d3))
      [ 2; 3; 4; 5; 6 ]
  in
  (* shape checks: central 2pc = 3(n-1), central 3pc = 5(n-1);
     decentralized sends n(n-1)-ish per round (no self messages on the
     wire... the runtime sends self-messages too: n^2 per round) *)
  List.iter
    (fun (n, (m2, _), (m3, _), (d2, _), (d3, _)) ->
      check (Fmt.str "E9 n=%d central 2pc = 3(n-1) messages" n) (m2 = 3 * (n - 1));
      check (Fmt.str "E9 n=%d central 3pc = 5(n-1) messages" n) (m3 = 5 * (n - 1));
      check (Fmt.str "E9 n=%d dec 2pc = n^2 messages (one interchange)" n) (d2 = n * n);
      check (Fmt.str "E9 n=%d dec 3pc = 2n^2 messages (one extra interchange)" n) (d3 = 2 * n * n))
    results;
  (* latency: one extra phase *)
  let _, (_, t2), (_, t3), _, _ = List.nth results 1 in
  Fmt.pr "central latency n=3: 2pc %.2f vs 3pc %.2f@." t2 t3;
  check "E9 3pc latency exceeds 2pc (extra phase)" (t3 > t2);
  let cost (m, t) = J.Obj [ ("messages", J.Int m); ("duration", J.Float t) ] in
  record_result "E9"
    (J.List
       (List.map
          (fun (n, c2, c3, d2, d3) ->
            J.Obj
              [
                ("n", J.Int n);
                ("central_2pc", cost c2);
                ("central_3pc", cost c3);
                ("decentralized_2pc", cost d2);
                ("decentralized_3pc", cost d3);
              ])
          results))

let e10_resilience_cascade () =
  section "E10" "Resilience: cascading failures down to one survivor (corollary)";
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 4) in
  let scenarios =
    [
      ("coordinator dies pre-decision", "step-crash site=1 step=1 mode=after-logging:0");
      ( "coordinator dies, backup dies mid-move",
        "step-crash site=1 step=1 mode=after-logging:0; move-crash site=2 sent=1" );
      ( "coordinator, then two backups die",
        "step-crash site=1 step=1 mode=after-logging:0; move-crash site=2 sent=1; decide-crash \
         site=3 sent=0" );
      ( "commit-side cascade",
        "step-crash site=1 step=2 mode=after-logging:1; decide-crash site=2 sent=1" );
    ]
  in
  List.iter
    (fun (label, plan) ->
      let r = Engine.Runtime.run (Engine.Runtime.config ~plan:(FP.of_string_exn plan) rb) in
      Fmt.pr "--- %s ---@.%a@." label Engine.Runtime.pp_result r;
      check (Fmt.str "E10 %s: consistent" label) r.Engine.Runtime.consistent;
      check
        (Fmt.str "E10 %s: survivors all decided" label)
        r.Engine.Runtime.all_operational_decided)
    scenarios

let e11_recovery_matrix () =
  section "E11" "Recovery: every crash point, with recovery before the end";
  let rb3 = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let rb2 = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  let run_all rb label =
    let failures = ref 0 and runs = ref 0 in
    List.iter
      (fun site ->
        List.iter
          (fun step ->
            List.iter
              (fun mode ->
                incr runs;
                let plan =
                  Sim.Nemesis.[ Step_crash { site; step; mode }; Recover { site; at = 60.0 } ]
                in
                let r = Engine.Runtime.run (Engine.Runtime.config ~plan ~seed:!runs rb) in
                let undecided =
                  List.exists (fun (s : Engine.Runtime.site_report) -> s.outcome = None) r.Engine.Runtime.reports
                in
                if (not r.Engine.Runtime.consistent) || undecided then incr failures)
              [ Engine.Failure_plan.Before_transition; Engine.Failure_plan.After_logging 0;
                Engine.Failure_plan.After_transition ])
          [ 0; 1; 2; 3 ])
      [ 1; 2; 3 ];
    Fmt.pr "%s: %d crash+recovery scenarios, %d unresolved/inconsistent@." label !runs !failures;
    !failures
  in
  check "E11 3pc: every site resolved after recovery" (run_all rb3 "central-3pc" = 0);
  check "E11 2pc: every site resolved after recovery" (run_all rb2 "central-2pc" = 0)

let e12_kv_ablation () =
  section "E12" "End-to-end cost of nonblocking: bank workload ablation";
  let accounts = 32 and initial_balance = 100 in
  let expected_total = Kv.Workload.bank_total ~accounts ~initial_balance in
  let regimes =
    [
      ("no failures", []);
      ("1 crash + recovery", FP.of_string_exn "crash site=2 at=60; recover site=2 at=220");
      ("1 crash, no recovery", FP.of_string_exn "crash site=2 at=60");
      ( "2 crashes + recoveries",
        FP.of_string_exn
          "crash site=2 at=60; crash site=3 at=120; recover site=2 at=200; recover site=3 at=260" );
    ]
  in
  Fmt.pr "%-24s %-6s %9s %8s %8s %10s %9s %9s %8s@." "regime" "proto" "committed" "aborted"
    "pending" "thruput" "latency" "blocked" "msgs";
  let rows = ref [] in
  List.iter
    (fun (regime, plan) ->
      List.iter
        (fun (pl, protocol) ->
          let results =
            List.map
              (fun seed ->
                let rng = Sim.Rng.create ~seed in
                let wl = Kv.Workload.bank rng ~n_txns:250 ~accounts ~arrival_rate:1.2 in
                let cfg =
                  Kv.Db.config ~n_sites:4 ~protocol ~seed ~plan
                    ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance)
                    ()
                in
                Kv.Db.run cfg wl)
              [ 1; 2; 3; 4; 5 ]
          in
          let avg f = List.fold_left (fun a r -> a +. f r) 0.0 results /. 5.0 in
          let avi f = List.fold_left (fun a r -> a + f r) 0 results / 5 in
          Fmt.pr "%-24s %-6s %9d %8d %8d %10.4f %9.2f %9.1f %8d@." regime pl
            (avi (fun r -> r.Kv.Db.committed))
            (avi (fun r -> r.Kv.Db.aborted))
            (avi (fun r -> r.Kv.Db.pending))
            (avg (fun r -> r.Kv.Db.throughput))
            (avg (fun r -> Option.value ~default:0.0 r.Kv.Db.mean_latency))
            (avg (fun r -> r.Kv.Db.blocked_time))
            (avi (fun r -> r.Kv.Db.messages_sent));
          rows :=
            ( Fmt.str "%s/%s" regime pl,
              J.Obj
                [
                  ("committed", J.Int (avi (fun r -> r.Kv.Db.committed)));
                  ("aborted", J.Int (avi (fun r -> r.Kv.Db.aborted)));
                  ("pending", J.Int (avi (fun r -> r.Kv.Db.pending)));
                  ("throughput", J.Float (avg (fun r -> r.Kv.Db.throughput)));
                  ( "mean_latency",
                    J.Float (avg (fun r -> Option.value ~default:0.0 r.Kv.Db.mean_latency)) );
                  ("blocked_time", J.Float (avg (fun r -> r.Kv.Db.blocked_time)));
                  ("messages_sent", J.Int (avi (fun r -> r.Kv.Db.messages_sent)));
                  (* full metrics of the seed-1 run: counters, gauges and
                     the commit-latency / phase-split histograms with
                     p50/p90/p99 *)
                  ("metrics", Sim.Metrics.to_json (List.hd results).Kv.Db.run_metrics);
                ] )
            :: !rows;
          List.iter
            (fun r ->
              check (Fmt.str "E12 %s/%s atomic" regime pl) r.Kv.Db.atomicity_ok;
              if plan = [] || Sim.Nemesis.recovery_times plan <> [] then
                check
                  (Fmt.str "E12 %s/%s bank invariant" regime pl)
                  (r.Kv.Db.storage_totals = expected_total))
            results)
        [ ("2pc", Kv.Node.Two_phase); ("3pc", Kv.Node.Three_phase) ])
    regimes;
  record_result "E12" (J.Obj (List.rev !rows))

(* Site 3 cut off from {1,2} after the votes, before the precommit. *)
let e13_partition = FP.of_string_exn "partition from=1.5 until=200 groups=1,2|3"

let e13_partition_ablation () =
  section "E13"
    "Ablation: violating the reliable-detector assumption (network partition)";
  Fmt.pr
    "The paper assumes the network never fails and reports site failures@.\
     reliably.  This ablation partitions site 3 away from {1,2} after the@.\
     votes are sent but before the precommit goes out, so each side@.\
     falsely suspects the other:@.@.";
  let rb3 = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let rb2 = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  let r3 =
    Engine.Runtime.run
      (Engine.Runtime.config ~seed:1 ~plan:e13_partition rb3)
  in
  Fmt.pr "--- central 3PC under partition ---@.%a@.@." Engine.Runtime.pp_result r3;
  check "E13 3PC violates atomicity under partition (split brain — the known limit)"
    (not r3.Engine.Runtime.consistent);
  let r2 =
    Engine.Runtime.run
      (Engine.Runtime.config ~seed:1 ~plan:e13_partition rb2)
  in
  Fmt.pr "--- central 2PC under partition ---@.%a@.@." Engine.Runtime.pp_result r2;
  check "E13 2PC stays consistent under partition (it blocks instead)"
    r2.Engine.Runtime.consistent;
  record_result "E13"
    (J.Obj
       [
         ( "central_3pc",
           J.Obj
             [
               ("consistent", J.Bool r3.Engine.Runtime.consistent);
               ("metrics", Sim.Metrics.to_json r3.Engine.Runtime.run_metrics);
             ] );
         ( "central_2pc",
           J.Obj
             [
               ("consistent", J.Bool r2.Engine.Runtime.consistent);
               ("metrics", Sim.Metrics.to_json r2.Engine.Runtime.run_metrics);
             ] );
       ]);
  Fmt.pr
    "Safety under partitions requires quorums (Skeen's later quorum-based@.\
     commit work); within this paper's model the assumption is essential.@."

let e14_quorum_termination () =
  section "E14"
    "Extension: quorum-based termination (safety under partitions, at a liveness price)";
  let rb3 = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let q = Engine.Runtime.majority 3 in
  (* the E13 partition, now under the quorum rule *)
  let rq =
    Engine.Runtime.run
      (Engine.Runtime.config ~plan:e13_partition ~termination:(Engine.Runtime.Quorum q) rb3)
  in
  Fmt.pr "--- E13's partition, quorum rule ---@.%a@.@." Engine.Runtime.pp_result rq;
  check "E14 quorum termination stays consistent under the E13 partition"
    rq.Engine.Runtime.consistent;
  check "E14 everyone converges after healing"
    (List.for_all (fun (s : Engine.Runtime.site_report) -> s.outcome <> None)
       rq.Engine.Runtime.reports);
  record_result "E14"
    (J.Obj
       [
         ("consistent", J.Bool rq.Engine.Runtime.consistent);
         ("metrics", Sim.Metrics.to_json rq.Engine.Runtime.run_metrics);
       ]);
  (* the liveness price: a lone survivor blocks under the quorum rule and
     decides under Skeen's rule *)
  let plan =
    FP.of_string_exn
      "step-crash site=1 step=1 mode=after-logging:0; step-crash site=2 step=0 \
       mode=after-transition"
  in
  let r_skeen = Engine.Runtime.run (Engine.Runtime.config ~plan rb3) in
  let r_quorum =
    Engine.Runtime.run (Engine.Runtime.config ~plan ~termination:(Engine.Runtime.Quorum q) rb3)
  in
  Fmt.pr "n-1 failures, lone survivor: Skeen rule blocked=%d, quorum rule blocked=%d@."
    r_skeen.Engine.Runtime.blocked_operational r_quorum.Engine.Runtime.blocked_operational;
  check "E14 Skeen rule: lone survivor decides" (r_skeen.Engine.Runtime.blocked_operational = 0);
  check "E14 quorum rule: lone survivor blocks" (r_quorum.Engine.Runtime.blocked_operational = 1);
  check "E14 both consistent"
    (r_skeen.Engine.Runtime.consistent && r_quorum.Engine.Runtime.consistent)

let e15_presumption_ablation () =
  section "E15" "Extension: commit presumptions and the read-only optimization (2PC engineering)";
  let run ?(protocol = Kv.Node.Two_phase) ?(durable_wal = false) ~presumption ~read_only_opt
      ~write_ratio seed =
    let rng = Sim.Rng.create ~seed in
    let spec =
      {
        Kv.Workload.default_spec with
        Kv.Workload.n_txns = 150;
        keys = 48;
        ops_per_txn = 3;
        write_ratio;
        arrival_rate = 0.8;
      }
    in
    let wl = Kv.Workload.mixed rng spec in
    let cfg = Kv.Db.config ~n_sites:4 ~protocol ~durable_wal ~presumption ~read_only_opt ~seed () in
    Kv.Db.run cfg wl
  in
  Fmt.pr "%-18s %-10s %12s %12s %10s@." "variant" "writes" "msgs" "committed" "aborted";
  let rows =
    List.concat_map
      (fun write_ratio ->
        List.map
          (fun (label, presumption, ro) ->
            let r = run ~presumption ~read_only_opt:ro ~write_ratio 9 in
            Fmt.pr "%-18s %-10.1f %12d %12d %10d@." label write_ratio r.Kv.Db.messages_sent
              r.Kv.Db.committed r.Kv.Db.aborted;
            ((label, write_ratio), r))
          [
            ("standard", Kv.Node.No_presumption, false);
            ("presume-abort", Kv.Node.Presume_abort, false);
            ("presume-commit", Kv.Node.Presume_commit, false);
            ("pc + read-only", Kv.Node.Presume_commit, true);
          ])
      [ 1.0; 0.3 ]
  in
  let msgs label wr = (List.assoc (label, wr) rows).Kv.Db.messages_sent in
  check "E15 presume-commit saves messages on commit-heavy load"
    (msgs "presume-commit" 1.0 < msgs "standard" 1.0);
  check "E15 read-only optimization saves more on read-heavy load"
    (msgs "pc + read-only" 0.3 < msgs "presume-commit" 0.3);
  List.iter
    (fun ((label, wr), r) ->
      check (Fmt.str "E15 %s (w=%.1f) atomic" label wr) r.Kv.Db.atomicity_ok)
    rows;
  (* beyond 2PC: the same levers on the nonblocking 3PC through the
     durable WAL, where the read-only optimization's skipped syncs show
     up as a forces-per-commit drop, not just a message saving *)
  Fmt.pr "@.3PC + durable WAL:@.";
  Fmt.pr "%-18s %-10s %12s %12s %10s %8s@." "variant" "writes" "msgs" "committed" "forces"
    "f/commit";
  let rows3 =
    List.concat_map
      (fun write_ratio ->
        List.map
          (fun (label, presumption, ro) ->
            let r =
              run ~protocol:Kv.Node.Three_phase ~durable_wal:true ~presumption ~read_only_opt:ro
                ~write_ratio 9
            in
            Fmt.pr "%-18s %-10.1f %12d %12d %10d %8.2f@." label write_ratio r.Kv.Db.messages_sent
              r.Kv.Db.committed r.Kv.Db.wal_forces r.Kv.Db.forces_per_commit;
            ((label, write_ratio), r))
          [
            ("standard", Kv.Node.No_presumption, false);
            ("presume-commit", Kv.Node.Presume_commit, false);
            ("pc + read-only", Kv.Node.Presume_commit, true);
          ])
      [ 1.0; 0.3 ]
  in
  let r3 label wr = List.assoc (label, wr) rows3 in
  check "E15 3PC presume-commit saves messages on commit-heavy load"
    ((r3 "presume-commit" 1.0).Kv.Db.messages_sent < (r3 "standard" 1.0).Kv.Db.messages_sent);
  check "E15 3PC read-only optimization saves forces on read-heavy load"
    ((r3 "pc + read-only" 0.3).Kv.Db.wal_forces < (r3 "presume-commit" 0.3).Kv.Db.wal_forces);
  check "E15 3PC read-only optimization lowers forces per commit"
    ((r3 "pc + read-only" 0.3).Kv.Db.forces_per_commit
    < (r3 "presume-commit" 0.3).Kv.Db.forces_per_commit);
  List.iter
    (fun ((label, wr), r) ->
      check (Fmt.str "E15 3PC %s (w=%.1f) atomic" label wr) r.Kv.Db.atomicity_ok)
    rows3

let e16_model_checking () =
  section "E16"
    "Extension: exhaustive model checking with failures (the graph the paper avoids building)";
  Fmt.pr "%-22s %3s %3s %10s %13s %9s@." "protocol" "n" "k" "states" "inconsistent" "blocked";
  List.iter
    (fun (label, n, k, expect_nonblocking) ->
      let rb = Engine.Rulebook.compile ((Core.Catalog.find label).Core.Catalog.build n) in
      let r = Engine.Model_check.run { Engine.Model_check.rulebook = rb; max_crashes = k; limit = 4_000_000; rule = `Skeen } in
      Fmt.pr "%-22s %3d %3d %10d %13d %9d@." label n k r.Engine.Model_check.explored
        (List.length r.Engine.Model_check.inconsistent)
        (List.length r.Engine.Model_check.blocked_terminals);
      check (Fmt.str "E16 %s n=%d k=%d safe" label n k) r.Engine.Model_check.safe;
      check
        (Fmt.str "E16 %s n=%d k=%d %s" label n k
           (if expect_nonblocking then "nonblocking" else "has blocked terminals"))
        (r.Engine.Model_check.nonblocking = expect_nonblocking))
    [
      ("central-2pc", 3, 1, false);
      ("central-2pc", 3, 2, false);
      ("central-3pc", 3, 1, true);
      ("central-3pc", 3, 2, true);
      ("decentralized-2pc", 3, 1, false);
      ("decentralized-3pc", 3, 2, true);
      (* the corollary in full: cascading failures down to one survivor *)
      ("central-3pc", 4, 3, true);
    ];
  Fmt.pr "@.Under the quorum termination rule (safety only — blocking is the design):@.";
  Fmt.pr "%-22s %3s %3s %10s %13s %9s@." "protocol" "n" "k" "states" "inconsistent" "blocked";
  List.iter
    (fun (label, n, k) ->
      let rb = Engine.Rulebook.compile ((Core.Catalog.find label).Core.Catalog.build n) in
      let r =
        Engine.Model_check.run
          { Engine.Model_check.rulebook = rb; max_crashes = k; limit = 4_000_000; rule = `Quorum ((n / 2) + 1) }
      in
      Fmt.pr "%-22s %3d %3d %10d %13d %9d@." label n k r.Engine.Model_check.explored
        (List.length r.Engine.Model_check.inconsistent)
        (List.length r.Engine.Model_check.blocked_terminals);
      check (Fmt.str "E16 quorum %s n=%d k=%d safe" label n k) r.Engine.Model_check.safe)
    [ ("central-3pc", 3, 1); ("central-3pc", 3, 2); ("central-2pc", 3, 2) ];
  Fmt.pr
    "@.Every interleaving — including partially completed transitions, partial@.\
     backup broadcasts and cascading backup failures — is covered.  The checker@.\
     found three real bugs in earlier versions: a participant's FSA consuming a@.\
     stale prepare after termination began; an unprepared-quorum abort that is@.\
     unsound without a buffer phase; and a stale Move_to from a deposed backup@.\
     re-promoting a participant (fixed with election epochs = backup ranks).@.\
     All fixes are in the runtime and the model, regression-guarded here.@."

let e17_db_partition () =
  section "E17" "Extension: the database through a partition — Skeen rule vs quorum rule";
  let n_sites = 3 in
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  let wl = [ (1.0, { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] }) ] in
  (* open the window after the votes are sent, before the coordinator
     sends the minority's precommit (partitions drop at send time) *)
  let plan = FP.of_string_exn "partition from=2.8 until=200 groups=1,2|3" in
  let run termination =
    Kv.Db.run
      (Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~termination ~seed:3 ~plan
         ~initial_data:[ (k1, 100); (k2, 100) ] ())
      wl
  in
  let skeen = run Kv.Node.Skeen in
  let quorum = run (Kv.Node.Quorum 2) in
  Fmt.pr "--- Skeen rule ---@.%a@.@." Kv.Db.pp_result skeen;
  Fmt.pr "--- quorum rule ---@.%a@.@." Kv.Db.pp_result quorum;
  check "E17 Skeen rule split-brains on this schedule" (not skeen.Kv.Db.atomicity_ok);
  check "E17 quorum rule stays atomic" quorum.Kv.Db.atomicity_ok;
  check "E17 quorum rule converges after healing" (quorum.Kv.Db.pending = 0);
  check "E17 quorum conserves money" (quorum.Kv.Db.storage_totals = 200);
  record_result "E17"
    (J.Obj
       [
         ( "skeen",
           J.Obj
             [
               ("atomicity_ok", J.Bool skeen.Kv.Db.atomicity_ok);
               ("metrics", Sim.Metrics.to_json skeen.Kv.Db.run_metrics);
             ] );
         ( "quorum",
           J.Obj
             [
               ("atomicity_ok", J.Bool quorum.Kv.Db.atomicity_ok);
               ("metrics", Sim.Metrics.to_json quorum.Kv.Db.run_metrics);
             ] );
       ])

let run_all () =
  e1_fsa_figures ();
  e2_reachable_graph ();
  e3_concurrency_sets ();
  e4_blocking_2pc ();
  e5_buffer_synthesis ();
  e6_3pc_nonblocking ();
  e7_decision_rule ();
  e8_blocking_census ();
  e9_message_complexity ();
  e10_resilience_cascade ();
  e11_recovery_matrix ();
  e12_kv_ablation ();
  e13_partition_ablation ();
  e14_quorum_termination ();
  e15_presumption_ablation ();
  e16_model_checking ();
  e17_db_partition ();
  Fmt.pr "@.==== experiment harness: %s ====@." (if !all_pass then "ALL PASS" else "FAILURES");
  !all_pass
