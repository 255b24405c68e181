(** [skeen] — command-line front end to the commit-protocol laboratory.

    Subcommands:
    - [analyze]     run the fundamental nonblocking theorem on a protocol
    - [graph]       build the reachable state graph (stats or DOT)
    - [concurrency] print the concurrency-set table
    - [rulebook]    print the backup coordinator's decision table
    - [fsa]         print or DOT-render the per-site FSAs
    - [synthesize]  apply the buffer-state transformation to a 2PC protocol
    - [simulate]    execute a transaction with optional crash injection
    - [chaos]       randomized fault schedules + oracles + shrinking
    - [explore]     coverage-guided fault-space search over a plan corpus
    - [bank]        run the bank workload on the KV store *)

open Cmdliner

let protocol_conv =
  let labels = List.map (fun e -> e.Core.Catalog.label) Core.Catalog.all in
  (* "paxos" is accepted as a synonym of the catalog label "paxos-commit" *)
  Arg.enum (("paxos", "paxos-commit") :: List.map (fun l -> (l, l)) labels)

let protocol_arg =
  Arg.(
    required
    & pos 0 (some protocol_conv) None
    & info [] ~docv:"PROTOCOL"
        ~doc:
          "Protocol: 1pc, central-2pc, decentralized-2pc, central-3pc, decentralized-3pc, \
           paxos-commit.")

let sites_arg =
  Arg.(value & opt int 3 & info [ "n"; "sites" ] ~docv:"N" ~doc:"Number of participating sites.")

let build label n = (Core.Catalog.find label).Core.Catalog.build n

let kv_protocol ~cmd label f =
  match label with
  | "central-2pc" -> Kv.Node.Two_phase
  | "central-3pc" -> Kv.Node.Three_phase
  | "paxos-commit" -> Kv.Node.Paxos f
  | other ->
      Fmt.epr
        "skeen %s --kv: unsupported protocol %s (use central-2pc, central-3pc or paxos-commit)@."
        cmd other;
      exit 2

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run label n =
    let p = build label n in
    let graph = Core.Reachability.build p in
    let report = Core.Nonblocking.analyze graph in
    Fmt.pr "%a@." Core.Nonblocking.pp_report report;
    let sync = Core.Synchrony.check p in
    Fmt.pr "synchronous within one state transition: %b@." sync.Core.Synchrony.synchronous;
    let cm = Core.Committable.compute graph in
    Fmt.pr "committable states: %a@."
      Fmt.(list ~sep:comma string)
      (Core.Committable.committable_ids cm);
    if report.Core.Nonblocking.nonblocking then `Ok () else `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the fundamental nonblocking theorem on a protocol.")
    Term.(ret (const run $ protocol_arg $ sites_arg))

(* ---------------- graph ---------------- *)

let graph_cmd =
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of statistics.") in
  let run label n dot =
    let g = Core.Reachability.build (build label n) in
    if dot then print_string (Core.Render.reachability_to_dot g)
    else Fmt.pr "%a@." Core.Reachability.pp_stats (Core.Reachability.stats g)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Build the reachable state graph of a protocol.")
    Term.(const run $ protocol_arg $ sites_arg $ dot_arg)

(* ---------------- concurrency ---------------- *)

let concurrency_cmd =
  let run label n =
    let g = Core.Reachability.build (build label n) in
    print_string (Core.Render.concurrency_table g)
  in
  Cmd.v
    (Cmd.info "concurrency" ~doc:"Print the concurrency-set table of a protocol.")
    Term.(const run $ protocol_arg $ sites_arg)

(* ---------------- rulebook ---------------- *)

let rulebook_cmd =
  let run label n = Fmt.pr "%a@." Engine.Rulebook.pp (Engine.Rulebook.compile (build label n)) in
  Cmd.v
    (Cmd.info "rulebook" ~doc:"Print the backup coordinator's decision table.")
    Term.(const run $ protocol_arg $ sites_arg)

(* ---------------- fsa ---------------- *)

let fsa_cmd =
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  let site_arg = Arg.(value & opt int 1 & info [ "site" ] ~docv:"S" ~doc:"Site whose FSA to print.") in
  let run label n dot site =
    let a = Core.Protocol.automaton (build label n) site in
    if dot then print_string (Core.Render.automaton_to_dot a) else Fmt.pr "%a@." Core.Automaton.pp a
  in
  Cmd.v
    (Cmd.info "fsa" ~doc:"Print a site's finite state automaton.")
    Term.(const run $ protocol_arg $ sites_arg $ dot_arg $ site_arg)

(* ---------------- synthesize ---------------- *)

let synthesize_cmd =
  let run n =
    let graph = Core.Reachability.build (Core.Catalog.central_2pc n) in
    let { Core.Synthesis.protocol; buffers_added } = Core.Synthesis.buffer_protocol graph in
    Fmt.pr "added buffer states: %a@.@."
      Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
      buffers_added;
    Fmt.pr "%a@." Core.Nonblocking.pp_report (Core.Nonblocking.analyze_protocol protocol)
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Apply the buffer-state transformation to central-site 2PC and verify the result.")
    Term.(const run $ sites_arg)

(* ---------------- simulate ---------------- *)

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics (counters, gauges and latency histograms with p50/p90/p99) \
           as JSON to $(docv).")

let write_metrics_json file json =
  match open_out file with
  | exception Sys_error msg ->
      Fmt.epr "skeen: cannot write metrics: %s@." msg;
      exit 1
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Sim.Json.to_string json);
          output_char oc '\n');
      Fmt.pr "wrote metrics to %s@." file

let simulate_cmd =
  let crash_site = Arg.(value & opt (some int) None & info [ "crash-site" ] ~docv:"S" ~doc:"Crash this site.") in
  let crash_step =
    Arg.(value & opt int 1 & info [ "crash-step" ] ~docv:"K" ~doc:"Crash at the site's K-th transition (0-based).")
  in
  let crash_sent =
    Arg.(
      value
      & opt (some int) None
      & info [ "sent" ] ~docv:"J"
          ~doc:"Crash after logging and sending J messages of the transition (default: before the transition).")
  in
  let recover_at =
    Arg.(value & opt (some float) None & info [ "recover-at" ] ~docv:"T" ~doc:"Recover the crashed site at time T.")
  in
  let no_votes =
    Arg.(value & opt_all int [] & info [ "no-vote" ] ~docv:"S" ~doc:"Site S votes no (repeatable).")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.") in
  let quorum =
    Arg.(
      value & flag
      & info [ "quorum" ]
          ~doc:"Use quorum-based termination (majority) instead of the paper's decision rule.")
  in
  let isolate =
    Arg.(
      value
      & opt (some int) None
      & info [ "isolate" ] ~docv:"S"
          ~doc:
            "Partition site S away from the others from t=1.5 to t=200 with false failure \
             reports — violates the paper's detector assumption.")
  in
  let run label n crash_site crash_step crash_sent recover_at no_votes trace seed quorum isolate
      metrics_json =
    let rb = Engine.Rulebook.compile (build label n) in
    let plan =
      match crash_site with
      | None -> Engine.Failure_plan.none
      | Some site ->
          let mode =
            match crash_sent with
            | None -> Engine.Failure_plan.Before_transition
            | Some j -> Engine.Failure_plan.After_logging j
          in
          Engine.Failure_plan.make
            ~step_crashes:[ { Engine.Failure_plan.site; step = crash_step; mode } ]
            ~recoveries:(match recover_at with Some t -> [ (site, t) ] | None -> [])
            ()
    in
    let votes = List.map (fun s -> (s, Core.Types.No)) no_votes in
    let termination =
      if quorum then Engine.Runtime.Quorum (Engine.Runtime.majority n) else Engine.Runtime.Skeen
    in
    let partition =
      Option.map
        (fun s -> (1.5, 200.0, [ List.filter (fun x -> x <> s) (List.init n (fun i -> i + 1)); [ s ] ]))
        isolate
    in
    let r =
      Engine.Runtime.run
        (Engine.Runtime.config ~votes ~plan ~seed ~tracing:trace ~termination ?partition rb)
    in
    Fmt.pr "%a@." Engine.Runtime.pp_result r;
    if trace then
      List.iter (fun e -> Fmt.pr "%8.2f  %s@." e.Sim.World.at e.Sim.World.what) r.Engine.Runtime.trace;
    Option.iter
      (fun f -> write_metrics_json f (Sim.Metrics.to_json r.Engine.Runtime.run_metrics))
      metrics_json
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute one distributed transaction on the simulator.")
    Term.(
      const run $ protocol_arg $ sites_arg $ crash_site $ crash_step $ crash_sent $ recover_at
      $ no_votes $ trace $ seed $ quorum $ isolate $ metrics_json_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let protocol_opt =
    Arg.(
      required
      & opt (some protocol_conv) None
      & info [ "protocol" ] ~docv:"PROTOCOL"
          ~doc:
            "Protocol: 1pc, central-2pc, decentralized-2pc, central-3pc, decentralized-3pc, \
             paxos-commit (or its synonym paxos).")
  in
  let f_arg =
    Arg.(
      value & opt int 1
      & info [ "f" ] ~docv:"F"
          ~doc:
            "Paxos Commit only: tolerated acceptor failures.  The decision is replicated on \
             2F+1 acceptors; F=0 degenerates to a single-copy coordinator log (2PC-equivalent \
             blocking behaviour).")
  in
  let k_arg =
    Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Maximum concurrent failures to inject.")
  in
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"M" ~doc:"Number of seeds (schedules) to run.")
  in
  let seed_base_arg =
    Arg.(value & opt int 0 & info [ "seed-base" ] ~docv:"S" ~doc:"First seed of the sweep.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Shard the seed sweep across W domains (default 1).  Every seed runs in an isolated \
             simulation instance and per-seed metrics merge in seed order, so the summary and \
             counterexamples are byte-identical whatever W is; only wall-clock changes.")
  in
  let until_arg =
    Arg.(
      value & opt float 1500.0
      & info [ "until" ] ~docv:"T"
          ~doc:"Stall budget: simulation horizon after which an undecided site is a liveness violation.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Replay one seed with tracing: print its generated plan, verdicts and full event trace.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Run one explicit failure plan (the $(b,Failure_plan.to_string) syntax a shrunk \
             counterexample is printed in, e.g. 'crash site=1 at=2; msg nth=4 fault=dup') \
             instead of generating schedules.")
  in
  let partitions_arg =
    Arg.(
      value & flag
      & info [ "partitions" ]
          ~doc:
            "Ablation profile: include partition windows in the schedules.  Under partitions the \
             Skeen rule is expected to split-brain (see experiment E13).")
  in
  let drops_arg =
    Arg.(
      value & opt int 0
      & info [ "drops" ] ~docv:"W"
          ~doc:
            "Ablation profile: relative weight of message-drop faults (default 0 — drops violate \
             the paper's reliable-network assumption).")
  in
  let quorum_arg =
    Arg.(value & flag & info [ "quorum" ] ~doc:"Terminate with the majority-quorum rule.")
  in
  let disk_faults_arg =
    Arg.(
      value & flag
      & info [ "disk-faults" ]
          ~doc:
            "Storage-fault profile: crash incidents may carry a torn or corrupted log tail on the \
             crashing site's disk.  Recovery repairs the log (truncating at the first invalid \
             record) and the durability oracle checks every externally visible action against \
             the repaired log.")
  in
  let lost_flush_arg =
    Arg.(
      value & opt int 0
      & info [ "lost-flush" ] ~docv:"W"
          ~doc:
            "Ablation profile: relative weight of lying-sync faults (default 0 — a sync that \
             reports success without persisting violates the paper's stable-storage axiom, so \
             expect durability violations).  Implies the storage-fault profile.")
  in
  let kv_arg =
    Arg.(
      value & flag
      & info [ "kv" ]
          ~doc:
            "Drive the database harness instead of a bare protocol instance: the same schedules \
             and plans against a bank-transfer workload, judged by the same oracles plus \
             conservation of the bank total (central-2pc, central-3pc or paxos-commit).")
  in
  let detector_arg =
    Arg.(
      value & flag
      & info [ "detector" ]
          ~doc:
            "Replace the failure oracle with timeout-based heartbeat suspicion: sites detect \
             failures from missing heartbeats, may suspect falsely, and fence termination \
             directives by election epoch.")
  in
  let no_fencing_arg =
    Arg.(
      value & flag
      & info [ "no-fencing" ]
          ~doc:
            "Ablation: accept termination directives regardless of epoch.  A deposed-but-alive \
             backup's stale orders are then obeyed — expect atomicity violations (experiment \
             E19).  Implies --detector.")
  in
  let detector_faults_arg =
    Arg.(
      value & flag
      & info [ "detector-faults" ]
          ~doc:
            "Fault profile: add latency spikes, heartbeat-loss bursts and stall (GC-pause) \
             windows to the schedules — faults that provoke false suspicion without killing \
             any site.  Implies --detector.")
  in
  let heartbeat_arg =
    Arg.(
      value & opt float 1.0
      & info [ "heartbeat-period" ] ~docv:"T" ~doc:"Detector heartbeat period (seconds).")
  in
  let suspicion_arg =
    Arg.(
      value & opt float 5.0
      & info [ "suspicion-timeout" ] ~docv:"T"
          ~doc:"Silence after which a peer is suspected (must exceed the heartbeat period).")
  in
  let election_arg =
    Arg.(
      value & opt float 4.0
      & info [ "election-timeout" ] ~docv:"T"
          ~doc:"Objection window a campaigning backup waits before assuming leadership.")
  in
  let presumption_arg =
    Arg.(
      value
      & opt (some (enum [ ("abort", `Abort); ("commit", `Commit) ])) None
      & info [ "presumption" ] ~docv:"abort|commit"
          ~doc:
            "Commit presumption: the covered outcome's decision record is appended but not \
             forced, trading one disk force per transaction for a bounded durability gap \
             the oracles license.")
  in
  let read_only_opt_arg =
    Arg.(
      value & flag
      & info [ "read-only-opt" ]
          ~doc:
            "Read-only participant optimization: read-only participants vote and drop out \
             of the protocol without forcing their log.  On the engine path the \
             highest-numbered participant is marked read-only.")
  in
  let group_commit_arg =
    Arg.(
      value & opt int 0
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "Group commit: coalesce up to N concurrent log forces into one shared disk \
             sync (straggler timer 0.05 s).  0 disables batching.  Only observable with a \
             nonzero $(b,--sync-latency).")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"D"
          ~doc:
            "Coordinator pipelining depth ($(b,--kv) only): admit a new transaction while \
             fewer than D log forces are in flight.  1 serializes admission on disk I/O \
             (the default).")
  in
  let sync_latency_arg =
    Arg.(
      value & opt float 0.0
      & info [ "sync-latency" ] ~docv:"T"
          ~doc:"Simulated disk sync latency in seconds (0 = synchronous forces).")
  in
  let detector_profile base =
    {
      base with
      Sim.Nemesis.p_delay_spike = 0.4;
      spike_extra_min = 1.0;
      spike_extra_max = 3.5;
      p_stall = 0.45;
      p_hb_loss = 0.5;
      detector_window_min = 4.0;
      detector_window_max = 14.0;
    }
  in
  let storage_profile base ~disk_faults ~lost_flush =
    if disk_faults || lost_flush > 0 then
      { base with Sim.Nemesis.p_disk_fault = 0.6; lost_flush_weight = lost_flush }
    else base
  in
  (* --plan goes through the target's family gate before anything runs: a
     clause the selected target cannot execute (e.g. move-crash outside
     3PC, acceptor-crash outside Paxos Commit, any step crash on the
     database) would otherwise be silently ignored and the run would
     vacuously pass. *)
  let parse_plan ~families ~target s =
    match Engine.Failure_plan.of_string s with
    | Error msg ->
        Fmt.epr "skeen chaos: bad --plan: %s@." msg;
        exit 2
    | Ok plan -> (
        match Engine.Explore.unsupported ~families plan with
        | [] -> plan
        | clauses ->
            List.iter
              (fun c -> Fmt.epr "skeen chaos: %s: %s does not execute this clause@." c target)
              clauses;
            exit 2)
  in
  let run label n f k seeds seed_base workers until replay plan_str partitions drops quorum
      disk_faults lost_flush kv detector_flag no_fencing detector_faults heartbeat_period
      suspicion_timeout election_timeout presumption read_only_opt group_commit pipeline_depth
      sync_latency metrics_json =
    let detector = detector_flag || no_fencing || detector_faults in
    let fencing = not no_fencing in
    (* Every numeric flag is checked here, before any target is built or
       any seed runs: bad input gets one line and exit 2, never an
       exception escaping from deep inside a run. *)
    let refuse reason =
      Fmt.epr "skeen chaos: %s@." reason;
      exit 2
    in
    let require ok reason = if not ok then refuse reason in
    require (seeds >= 0) "--seeds must be >= 0";
    require (workers >= 1) "--workers must be >= 1";
    require (n >= 2) "-n must be >= 2";
    require (k >= 0) "-k must be >= 0";
    require
      (label <> "paxos-commit" || (f >= 0 && n >= (2 * f) + 1))
      (Printf.sprintf "paxos-commit with -f %d needs -f >= 0 and -n >= 2f+1" f);
    require (Float.is_finite until && until > 0.0) "--until must be positive and finite";
    require (Float.is_finite sync_latency && sync_latency >= 0.0) "--sync-latency must be >= 0";
    require (group_commit >= 0) "--group-commit must be >= 0";
    require (pipeline_depth >= 1) "--pipeline must be >= 1";
    require (drops >= 0) "--drops must be >= 0";
    require (lost_flush >= 0) "--lost-flush must be >= 0";
    Result.iter_error refuse (Sim.Detector.check_timing ~heartbeat_period ~suspicion_timeout);
    let profile base =
      let p =
        storage_profile ~disk_faults ~lost_flush
          {
            base with
            Sim.Nemesis.p_partition = (if partitions then 0.35 else 0.0);
            drop_weight = drops;
          }
      in
      if detector_faults then detector_profile p else p
    in
    (* One code path for every target: --plan runs one plan once, --replay
       runs one seed's generated plan, otherwise a seed sweep. *)
    let drive (t : _ Engine.Chaos.target) ~families ~pp_result ~run_metrics =
      let plan_text p =
        match Engine.Failure_plan.to_string p with "" -> "(no faults)" | s -> s
      in
      let run_once header plan ~seed =
        let result, violations = t.run ~metrics:None ~tracing:true ~seed plan in
        Fmt.pr "%s %s@." header (plan_text plan);
        Fmt.pr "%a@." pp_result result;
        List.iter (fun v -> Fmt.pr "VIOLATION %a@." Engine.Chaos.pp_violation v) violations;
        List.iter (fun e -> Fmt.pr "%8.2f  %s@." e.Sim.World.at e.Sim.World.what) (t.trace result);
        Option.iter
          (fun f -> write_metrics_json f (Sim.Metrics.to_json (run_metrics result)))
          metrics_json;
        if violations <> [] then exit 1
      in
      match (plan_str, replay) with
      | Some s, _ -> run_once "plan:" (parse_plan ~families ~target:t.name s) ~seed:seed_base
      | None, Some seed ->
          run_once
            (Printf.sprintf "seed %d generates:" seed)
            (Engine.Failure_plan.of_schedule (Engine.Chaos.schedule t ~k ~seed))
            ~seed
      | None, None ->
          let (_, summary), wall =
            Sim.Clock.time (fun () -> Engine.Chaos.sweep_target ~seed_base ~workers t ~k ~seeds)
          in
          Fmt.pr "%a@." Engine.Chaos.pp_summary summary;
          Fmt.pr "%.0f schedules/sec (%.2f s wall)@."
            (if wall > 0.0 then float_of_int seeds /. wall else 0.0)
            wall;
          List.iter
            (fun cx -> Fmt.pr "@.%a@." Engine.Chaos.pp_counterexample cx)
            summary.Engine.Chaos.counterexamples;
          Option.iter
            (fun f -> write_metrics_json f (Sim.Metrics.to_json summary.Engine.Chaos.metrics))
            metrics_json;
          if summary.Engine.Chaos.violations_by_oracle <> [] then exit 1
    in
    let families = Engine.Explore.protocol_families ~protocol:label
    and engine_metrics (r : Engine.Runtime.result) = r.run_metrics in
    if kv then begin
      let protocol = kv_protocol ~cmd:"chaos" label f in
      if election_timeout <> 4.0 then
        Fmt.epr "skeen chaos: --election-timeout applies only to the protocol engine (the \
                 database elects no backup coordinator); ignoring it@.";
      let cfg =
        Kv.Chaos_db.config ~protocol
          ~termination:
            (if quorum then Kv.Node.T_quorum (Engine.Runtime.majority n) else Kv.Node.T_skeen)
          ?presumption:
            (Option.map
               (function `Abort -> Kv.Node.Presume_abort | `Commit -> Kv.Node.Presume_commit)
               presumption)
          ~read_only_opt
          ?group_commit:
            (if group_commit > 0 then Some { Kv.Kv_wal.max_batch = group_commit; max_wait = 0.05 }
             else None)
          ~sync_latency ~pipeline_depth ~n_sites:n ~until ~detector ~fencing ~heartbeat_period
          ~suspicion_timeout ()
      in
      let profile = profile Kv.Chaos_db.default_profile in
      let profile =
        match protocol with
        | Kv.Node.Paxos f -> Kv.Chaos_db.paxos_profile ~f profile
        | Kv.Node.Two_phase | Kv.Node.Three_phase -> profile
      in
      drive (Kv.Chaos_db.target ~profile cfg) ~families:(Kv.Chaos_db.families protocol)
        ~pp_result:Kv.Db.pp_result ~run_metrics:(fun r -> r.Kv.Db.run_metrics)
    end
    else if label = "paxos-commit" then
      drive
        (Engine.Paxos.target
           ~profile:(profile (Engine.Paxos.sweep_profile ~n_sites:n ~f))
           ~until ~n_sites:n ~f ())
        ~families ~pp_result:Engine.Runtime.pp_result ~run_metrics:engine_metrics
    else begin
      if pipeline_depth <> 1 then
        Fmt.epr "skeen chaos: --pipeline applies only to --kv (the bare protocol engine runs one \
                 transaction); ignoring it@.";
      let cfg =
        Engine.Runtime.config ~until
          ~termination:
            (if quorum then Engine.Runtime.Quorum (Engine.Runtime.majority n)
             else Engine.Runtime.Skeen)
          ?presumption:
            (Option.map
               (function
                 | `Abort -> Engine.Runtime.Presume_abort | `Commit -> Engine.Runtime.Presume_commit)
               presumption)
          ?read_only:(if read_only_opt then Some [ n ] else None)
          ?group_commit:
            (if group_commit > 0 then Some { Engine.Wal.max_batch = group_commit; max_wait = 0.05 }
             else None)
          ~sync_latency ~detector ~heartbeat_period ~suspicion_timeout ~election_timeout ~fencing
          (Engine.Rulebook.compile (build label n))
      in
      drive
        (Engine.Chaos.target ~profile:(profile Sim.Nemesis.default_profile) cfg)
        ~families ~pp_result:Engine.Runtime.pp_result ~run_metrics:engine_metrics
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run randomized fault schedules (crashes, recoveries, duplicated/delayed messages; \
          partitions, drops and storage faults as opt-in ablations) against a protocol and judge \
          each run with the atomicity, nonblocking-progress, recovery-convergence and durability \
          oracles.  Violations are shrunk to a minimal replayable failure plan.  Exits 1 if any \
          violation was found.")
    Term.(
      const run $ protocol_opt $ sites_arg $ f_arg $ k_arg $ seeds_arg $ seed_base_arg $ workers_arg
      $ until_arg $ replay_arg $ plan_arg $ partitions_arg $ drops_arg $ quorum_arg $ disk_faults_arg
      $ lost_flush_arg $ kv_arg $ detector_arg $ no_fencing_arg $ detector_faults_arg
      $ heartbeat_arg $ suspicion_arg $ election_arg $ presumption_arg $ read_only_opt_arg
      $ group_commit_arg $ pipeline_arg $ sync_latency_arg $ metrics_json_arg)

(* ---------------- explore ---------------- *)

let explore_cmd =
  let protocol_opt =
    Arg.(
      required
      & opt (some protocol_conv) None
      & info [ "protocol" ] ~docv:"PROTOCOL"
          ~doc:
            "Protocol: central-2pc, decentralized-2pc, central-3pc, decentralized-3pc \
             (engine harness); with $(b,--kv) also paxos-commit.")
  in
  let kv_arg =
    Arg.(
      value & flag
      & info [ "kv" ]
          ~doc:
            "Explore the database harness instead of a bare protocol instance: plans run \
             against the bank-transfer workload under the kv oracles.")
  in
  let budget_arg =
    Arg.(
      value & opt int 256
      & info [ "budget" ] ~docv:"B" ~doc:"Number of plans to execute (mutants or random).")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("guided", `Guided); ("random", `Random) ]) `Guided
      & info [ "mode" ] ~docv:"guided|random"
          ~doc:
            "guided: mutate the novelty-ranked corpus; random: the classic chaos sweep at \
             the same budget (the baseline the bench compares against).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory: existing *.plan files seed the search, and the final corpus \
             (plus bug-*.plan shrunk violations) is written back, one replayable \
             $(b,Failure_plan.to_string) line per file.")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Replay every *.plan in $(b,--corpus) once instead of searching, and report each \
             plan's oracle verdicts — the corpus regression check.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Evaluate candidate plans across W domains.  Candidates are derived and folded \
             sequentially, so the search result is byte-identical whatever W is.")
  in
  let f_arg =
    Arg.(
      value & opt int 1
      & info [ "f" ] ~docv:"F" ~doc:"Paxos Commit only: tolerated acceptor failures.")
  in
  let k_arg =
    Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Maximum concurrent failures to inject.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Root seed of the search stream.")
  in
  let storms_arg =
    Arg.(
      value & flag
      & info [ "storms" ]
          ~doc:
            "Arm crash-recover storms in the random baseline's fault profile (guided \
             mutations can always add storm clauses).")
  in
  let run label n f k budget mode corpus replay workers kv seed storms =
    let storm_profile base =
      if storms then { base with Sim.Nemesis.p_storm = 0.7 } else base
    in
    let harness =
      if kv then
        Kv.Chaos_db.harness
          ~protocol:(kv_protocol ~cmd:"explore" label f)
          ~n_sites:(if n = 3 then 4 else n)
          ~profile:(storm_profile Kv.Chaos_db.default_profile)
          ~k ()
      else if label = "paxos-commit" then begin
        Fmt.epr
          "skeen explore: the engine harness does not cover paxos-commit; use --kv \
           --protocol paxos-commit@.";
        exit 2
      end
      else
        Engine.Explore.engine_harness
          ~profile:(storm_profile Sim.Nemesis.default_profile)
          ~k
          (Engine.Rulebook.compile (build label n))
    in
    if replay then begin
      match corpus with
      | None ->
          Fmt.epr "skeen explore: --replay needs --corpus DIR@.";
          exit 2
      | Some dir ->
          let entries = Engine.Explore.load_corpus ~dir in
          if entries = [] then begin
            Fmt.epr "skeen explore: no *.plan files under %s@." dir;
            exit 2
          end;
          let reports = Engine.Explore.replay ~workers harness (List.map snd entries) in
          let tripped = ref 0 in
          List.iter2
            (fun (name, _) (plan, report) ->
              let vs = report.Engine.Explore.violations in
              if vs <> [] then incr tripped;
              Fmt.pr "%s: %s@.  plan: %s@." name
                (if vs = [] then "clean"
                 else
                   String.concat ", "
                     (List.map (fun (o, d) -> Printf.sprintf "%s (%s)" o d) vs))
                (match Engine.Failure_plan.to_string plan with "" -> "(no faults)" | s -> s))
            entries reports;
          Fmt.pr "@.%d/%d plans tripped an oracle@." !tripped (List.length entries)
    end
    else begin
      let initial =
        match corpus with
        | Some dir -> List.map snd (Engine.Explore.load_corpus ~dir)
        | None -> []
      in
      if initial <> [] then
        Fmt.epr "seeding the search from %d corpus plan(s)@." (List.length initial);
      let progress ~runs ~coverage ~bugs =
        Fmt.epr "  %d/%d runs, %d features, %d distinct bugs@." runs budget coverage bugs
      in
      let result, wall =
        Sim.Clock.time (fun () ->
            Engine.Explore.search ~workers ~seed ~initial ~progress harness ~mode ~budget ())
      in
      Fmt.pr "%s %s: %d runs, %d coverage features, corpus %d, %d violating runs (%.2f s)@."
        result.Engine.Explore.harness_name
        (Engine.Explore.mode_name result.Engine.Explore.mode)
        result.Engine.Explore.runs result.Engine.Explore.coverage
        (List.length result.Engine.Explore.corpus)
        result.Engine.Explore.violating_runs wall;
      List.iter
        (fun (b : Engine.Explore.bug) ->
          Fmt.pr "@.bug (%s, first at run %d): %s@.  shrunk (%d faults, %d shrink runs): %s@."
            b.Engine.Explore.bug_oracle b.Engine.Explore.bug_found_at
            b.Engine.Explore.bug_detail
            (Engine.Failure_plan.fault_count b.Engine.Explore.bug_shrunk)
            b.Engine.Explore.bug_shrink_runs
            (match Engine.Failure_plan.to_string b.Engine.Explore.bug_shrunk with
            | "" -> "(no faults)"
            | s -> s))
        result.Engine.Explore.bugs;
      match corpus with
      | Some dir ->
          Engine.Explore.save_corpus ~dir result;
          Fmt.pr "@.corpus saved to %s@." dir
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Coverage-guided exploration of the fault-schedule space: plans that exercise unseen \
          protocol behaviour join a corpus, mutants of corpus entries (add/remove/retime/\
          retarget a fault, widen a window, add a crash-recover storm, splice two plans) are \
          scheduled next, violations are shrunk to minimal replayable plans.  The corpus \
          persists as *.plan text files for $(b,--replay) or pinned regression tests.")
    Term.(
      const run $ protocol_opt $ sites_arg $ f_arg $ k_arg $ budget_arg $ mode_arg $ corpus_arg
      $ replay_arg $ workers_arg $ kv_arg $ seed_arg $ storms_arg)

(* ---------------- model-check ---------------- *)

let model_check_cmd =
  let crashes_arg =
    Arg.(value & opt int 1 & info [ "k"; "crashes" ] ~docv:"K" ~doc:"Maximum number of crashes.")
  in
  let limit_arg =
    Arg.(value & opt int 4_000_000 & info [ "limit" ] ~docv:"N" ~doc:"State exploration limit.")
  in
  let run label n k limit =
    let rb = Engine.Rulebook.compile (build label n) in
    let r = Engine.Model_check.run { Engine.Model_check.rulebook = rb; max_crashes = k; limit; rule = `Skeen } in
    Fmt.pr "%a@." Engine.Model_check.pp_report r;
    match r.Engine.Model_check.counterexample with
    | Some path ->
        Fmt.pr "counterexample:@.";
        List.iteri (fun i st -> Fmt.pr "%2d: %a@." i Engine.Model_check.pp_st st) path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "model-check"
       ~doc:
         "Exhaustively verify a protocol (with its termination protocol) under up to K crashes: \
          no interleaving may violate atomicity, and for nonblocking protocols every terminal \
          state must have all operational sites decided.")
    Term.(const run $ protocol_arg $ sites_arg $ crashes_arg $ limit_arg)

(* ---------------- check ---------------- *)

let check_cmd =
  let crashes_arg =
    Arg.(value & opt int 1 & info [ "k"; "crashes" ] ~docv:"K" ~doc:"Maximum number of crashes.")
  in
  let limit_arg =
    Arg.(value & opt int 4_000_000 & info [ "limit" ] ~docv:"N" ~doc:"State exploration limit.")
  in
  let bench_arg =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:"Report wall-clock time, states/sec and peak resident states for the run.")
  in
  let run label n k limit bench =
    let rb = Engine.Rulebook.compile (build label n) in
    let cfg = { Engine.Model_check.rulebook = rb; max_crashes = k; limit; rule = `Skeen } in
    let r, wall = Sim.Clock.time (fun () -> Engine.Model_check.run cfg) in
    Fmt.pr "%a@." Engine.Model_check.pp_report r;
    if bench then
      Fmt.pr "wall: %.3f s, %.0f states/sec, peak resident states: %d@." wall
        (if wall > 0.0 then float_of_int r.Engine.Model_check.explored /. wall else 0.0)
        r.Engine.Model_check.explored;
    match r.Engine.Model_check.counterexample with
    | Some path ->
        Fmt.pr "counterexample:@.";
        List.iteri (fun i st -> Fmt.pr "%2d: %a@." i Engine.Model_check.pp_st st) path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively verify a protocol with the interned state-space engine; $(b,--bench) \
          additionally reports wall-clock throughput (states/sec) and peak resident states.")
    Term.(const run $ protocol_arg $ sites_arg $ crashes_arg $ limit_arg $ bench_arg)

(* ---------------- election ---------------- *)

let election_cmd =
  let crash =
    Arg.(
      value & opt_all (pair ~sep:'@' int float) []
      & info [ "crash" ] ~docv:"S@T" ~doc:"Crash site S at time T (repeatable).")
  in
  let recover =
    Arg.(
      value & opt_all (pair ~sep:'@' int float) []
      & info [ "recover" ] ~docv:"S@T" ~doc:"Recover site S at time T (repeatable).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.") in
  let run n crashes recoveries seed =
    let t = Engine.Election.create ~n_sites:n ~seed () in
    ignore (Engine.Election.run t ~crashes ~recoveries ());
    List.iter
      (fun s ->
        Fmt.pr "site %d: leader %a, witnessed %a@." s
          Fmt.(option ~none:(any "none") int)
          (Engine.Election.leader_at t ~site:s)
          Fmt.(list ~sep:comma (pair ~sep:(any "@") int (fmt "%.1f")))
          (List.map (fun (at, l) -> (l, at)) (Engine.Election.leader_history t ~site:s)))
      (List.init n (fun i -> i + 1));
    Fmt.pr "agreement among operational sites: %b@." (Engine.Election.agreement t)
  in
  Cmd.v
    (Cmd.info "election" ~doc:"Run the bully election protocol under a crash schedule.")
    Term.(const run $ sites_arg $ crash $ recover $ seed)

(* ---------------- bank ---------------- *)

let bank_cmd =
  let three_phase =
    Arg.(value & opt bool true & info [ "three-phase" ] ~docv:"BOOL" ~doc:"Use 3PC (true) or 2PC (false).")
  in
  let txns = Arg.(value & opt int 200 & info [ "txns" ] ~docv:"N" ~doc:"Number of transfers.") in
  let crash_site = Arg.(value & opt (some int) None & info [ "crash-site" ] ~docv:"S" ~doc:"Crash site S mid-run.") in
  let crash_at = Arg.(value & opt float 60.0 & info [ "crash-at" ] ~docv:"T" ~doc:"Crash time.") in
  let recover_at = Arg.(value & opt (some float) None & info [ "recover-at" ] ~docv:"T" ~doc:"Recovery time.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload and simulation seed.") in
  let quorum =
    Arg.(value & flag & info [ "quorum" ] ~doc:"Terminate orphaned transactions by majority quorum.")
  in
  let isolate =
    Arg.(
      value
      & opt (some int) None
      & info [ "isolate" ] ~docv:"S" ~doc:"Partition site S away from t=40 to t=160.")
  in
  let presumption =
    Arg.(
      value
      & opt (some (enum [ ("abort", `Abort); ("commit", `Commit) ])) None
      & info [ "presumption" ] ~docv:"abort|commit"
          ~doc:"Commit presumption (skip forcing the covered outcome's decision record).")
  in
  let read_only_opt =
    Arg.(
      value & flag
      & info [ "read-only-opt" ]
          ~doc:"Read-only participants vote and drop out without forcing their log.")
  in
  let group_commit =
    Arg.(
      value & opt int 0
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "Coalesce up to N concurrent log forces into one shared sync (straggler timer \
             0.05 s); 0 disables.  Only observable with a nonzero $(b,--sync-latency).")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"D"
          ~doc:"Coordinator pipelining depth: admit while fewer than D forces are in flight.")
  in
  let sync_latency =
    Arg.(
      value & opt float 0.0
      & info [ "sync-latency" ] ~docv:"T"
          ~doc:"Simulated disk sync latency in seconds (0 = synchronous forces).")
  in
  let run n three_phase txns crash_site crash_at recover_at seed quorum isolate presumption
      read_only_opt group_commit pipeline_depth sync_latency metrics_json =
    let accounts = 32 and initial_balance = 100 in
    let rng = Sim.Rng.create ~seed in
    let wl = Kv.Workload.bank rng ~n_txns:txns ~accounts ~arrival_rate:1.0 in
    let presumption =
      match presumption with
      | None -> Kv.Node.No_presumption
      | Some `Abort -> Kv.Node.Presume_abort
      | Some `Commit -> Kv.Node.Presume_commit
    in
    let group_commit =
      if group_commit > 0 then Some { Kv.Kv_wal.max_batch = group_commit; max_wait = 0.05 }
      else None
    in
    let cfg =
      Kv.Db.config ~n_sites:n
        ~protocol:(if three_phase then Kv.Node.Three_phase else Kv.Node.Two_phase)
        ~termination:(if quorum then Kv.Node.T_quorum ((n / 2) + 1) else Kv.Node.T_skeen)
        ~presumption ~read_only_opt ?group_commit ~pipeline_depth ~sync_latency ~seed
        ~crashes:(match crash_site with Some s -> [ (s, crash_at) ] | None -> [])
        ~recoveries:
          (match (crash_site, recover_at) with Some s, Some t -> [ (s, t) ] | _ -> [])
        ~partitions:
          (match isolate with
          | Some s ->
              [ (40.0, 160.0, [ List.filter (fun x -> x <> s) (List.init n (fun i -> i + 1)); [ s ] ]) ]
          | None -> [])
        ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance)
        ()
    in
    let r = Kv.Db.run cfg wl in
    Fmt.pr "%a@." Kv.Db.pp_result r;
    Fmt.pr "bank total: expected %d, measured %d@."
      (Kv.Workload.bank_total ~accounts ~initial_balance)
      r.Kv.Db.storage_totals;
    Option.iter (fun f -> write_metrics_json f (Sim.Metrics.to_json r.Kv.Db.run_metrics)) metrics_json
  in
  Cmd.v
    (Cmd.info "bank" ~doc:"Run the bank-transfer workload on the distributed KV store.")
    Term.(
      const run $ sites_arg $ three_phase $ txns $ crash_site $ crash_at $ recover_at $ seed
      $ quorum $ isolate $ presumption $ read_only_opt $ group_commit $ pipeline $ sync_latency
      $ metrics_json_arg)

let () =
  let doc = "Nonblocking commit protocols (Skeen, SIGMOD 1981): analysis and simulation." in
  (* cmdliner renders one-character names as short options only; accept the
     long spellings --n and --k as synonyms of -n and -k *)
  let argv =
    Array.map (function "--n" -> "-n" | "--k" -> "-k" | "--f" -> "-f" | s -> s) Sys.argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group (Cmd.info "skeen" ~doc)
          [
            analyze_cmd;
            graph_cmd;
            concurrency_cmd;
            rulebook_cmd;
            fsa_cmd;
            synthesize_cmd;
            simulate_cmd;
            chaos_cmd;
            explore_cmd;
            model_check_cmd;
            check_cmd;
            election_cmd;
            bank_cmd;
          ]))
