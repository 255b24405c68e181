(** The aggregated test runner: one suite per module of the library. *)

let () =
  Alcotest.run "skeen81"
    [
      ("message", Test_message.suite);
      ("automaton", Test_automaton.suite);
      ("catalog", Test_catalog.suite);
      ("protocol", Test_protocol.suite);
      ("global", Test_global.suite);
      ("reachability", Test_reachability.suite);
      ("concurrency", Test_concurrency.suite);
      ("committable", Test_committable.suite);
      ("nonblocking", Test_nonblocking.suite);
      ("synchrony", Test_synchrony.suite);
      ("skeleton", Test_skeleton.suite);
      ("synthesis", Test_synthesis.suite);
      ("termination-rule", Test_termination_rule.suite);
      ("sim", Test_sim.suite);
      ("metrics", Test_metrics.suite);
      ("engine", Test_engine.suite);
      ("partition", Test_partition.suite);
      ("properties", Test_properties.suite);
      ("quorum", Test_quorum.suite);
      ("presumption", Test_presumption.suite);
      ("render", Test_render.suite);
      ("model-check", Test_model_check.suite);
      ("statespace", Test_statespace.suite);
      ("model-check-quorum", Test_model_check_quorum.suite);
      ("db-quorum", Test_db_quorum.suite);
      ("read-only-termination", Test_read_only_termination.suite);
      ("runtime", Test_runtime.suite);
      ("lock-table", Test_lock_table.suite);
      ("kv", Test_kv.suite);
      ("db", Test_db.suite);
      ("nemesis", Test_nemesis.suite);
      ("failure-plan", Test_failure_plan.suite);
      ("chaos", Test_chaos.suite);
      ("disk", Test_disk.suite);
      ("wal", Test_wal.suite);
      ("durability", Test_durability.suite);
      ("detector", Test_detector.suite);
      ("sweep", Test_sweep.suite);
      ("commit-levers", Test_commit_levers.suite);
      ("paxos", Test_paxos.suite);
      ("backoff", Test_backoff.suite);
      ("explore", Test_explore.suite);
      ("alloc", Test_alloc.suite);
      ("conformance", Test_conformance.suite);
    ]
