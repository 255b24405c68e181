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
    - [model-check] exhaustive state-space verification ([--bench] times it)
    - [bank]        run the bank workload on the KV store *)

open Cmdliner

(* Subcommands check their flags before anything runs: bad input gets one
   line and exit 2, never an exception escaping from deep inside a run. *)
let refuse cmd reason =
  Fmt.epr "skeen %s: %s@." cmd reason;
  exit 2

let require cmd ok reason = if not ok then refuse cmd reason

let is_time t = Float.is_finite t && t >= 0.0

(* [flag] names sites, each of which must be one of the run's [n]. *)
let require_sites cmd ~n flag sites =
  require cmd
    (List.for_all (fun s -> s >= 1 && s <= n) sites)
    (Printf.sprintf "%s must be a site in 1..%d" flag n)

(* A plan naming a site outside 1..n would die inside the run. *)
let plan_sites_error ~n plan =
  Option.map
    (fun s -> Printf.sprintf "site %d is not in 1..%d" s n)
    (List.find_opt (fun s -> s < 1 || s > n) (Engine.Failure_plan.sites plan))

(* A single run's faults from its flags: [crash] at the crash site with
   its optional recovery, and the [--isolate] partition. *)
let flag_plan ~n ~crash_site ~crash ~recover_at ~isolate ~from_t ~until_t =
  let cut s = [ List.filter (( <> ) s) (List.init n succ); [ s ] ] in
  Option.fold crash_site ~none:[] ~some:(fun site ->
      crash site :: Option.to_list (Option.map (fun at -> Sim.Nemesis.Recover { site; at }) recover_at))
  @ Option.to_list (Option.map (fun s -> Sim.Nemesis.Partition { from_t; until_t; groups = cut s }) isolate)

(* ---------------- shared flags ---------------- *)

(* A flag that means the same thing in several subcommands is defined once
   below.  Its term takes the subcommand's name and checks the value as the
   command line is read, so every subcommand refuses it the same way. *)
let checked term check = Term.(const (fun v -> check v; v) $ term)

let protocol_conv =
  let labels = List.map (fun e -> e.Core.Catalog.label) Core.Catalog.all in
  (* "paxos" is accepted as a synonym of the catalog label "paxos-commit" *)
  Arg.enum (("paxos", "paxos-commit") :: List.map (fun l -> (l, l)) labels)

let sites_opt =
  Arg.(
    value
    & opt (some' ~none:3 int) None
    & info [ "n"; "sites" ] ~docv:"N" ~doc:"Number of participating sites.")

let sites_arg = Term.(const (Option.value ~default:3) $ sites_opt)

(* A catalog protocol's FSAs exist for 2..max_sites sites. *)
let build cmd label n =
  require cmd (n >= 2) "-n must be >= 2";
  require cmd (n <= Core.Catalog.max_sites)
    (Printf.sprintf "-n must be <= %d" Core.Catalog.max_sites);
  (Core.Catalog.find label).Core.Catalog.build n

(* The positional protocol of the analysis and simulation commands, built
   for -n sites. *)
let protocol cmd =
  let label =
    Arg.(
      required
      & pos 0 (some protocol_conv) None
      & info [] ~docv:"PROTOCOL"
          ~doc:
            "Protocol: 1pc, central-2pc, decentralized-2pc, central-3pc, decentralized-3pc, \
             paxos-commit.")
  in
  Term.(const (build cmd) $ label $ sites_arg)

(* What chaos and explore drive. *)
type target =
  | Engine_protocol of string * Core.Protocol.t  (** a catalog protocol on the engine *)
  | Engine_paxos of { n : int; f : int }  (** Paxos Commit on the engine *)
  | Database of { protocol : Kv.Node.protocol; n : int }  (** the kv database *)

(* --protocol, -n, -f and --kv together; [kv_sites] is the database's site
   count when -n is absent. *)
let target ?(kv_sites = 3) cmd =
  let label =
    Arg.(
      required
      & opt (some protocol_conv) None
      & info [ "protocol" ] ~docv:"PROTOCOL"
          ~doc:
            "Protocol: 1pc, central-2pc, decentralized-2pc, central-3pc, decentralized-3pc, \
             paxos-commit (or its synonym paxos).  With $(b,--kv): central-2pc, central-3pc \
             or paxos-commit.")
  in
  let f =
    Arg.(
      value & opt int 1
      & info [ "f" ] ~docv:"F"
          ~doc:
            "Paxos Commit only: tolerated acceptor failures.  The decision is replicated on \
             2F+1 acceptors; F=0 degenerates to a single-copy coordinator log (2PC-equivalent \
             blocking behaviour).")
  in
  let kv =
    Arg.(
      value & flag
      & info [ "kv" ]
          ~doc:
            "Drive the database harness instead of a bare protocol instance: the same schedules \
             and plans against a bank-transfer workload, judged by the same oracles plus \
             conservation of the bank total.")
  in
  let resolve label n f kv =
    let n = Option.value n ~default:(if kv then kv_sites else 3) in
    require cmd (n >= 2) "-n must be >= 2";
    let paxos_f () =
      require cmd
        (f >= 0 && n >= (2 * f) + 1)
        (Printf.sprintf "paxos-commit with -f %d needs -f >= 0 and -n >= 2f+1" f);
      f
    in
    match (kv, label) with
    | true, "central-2pc" -> Database { protocol = Kv.Node.Two_phase; n }
    | true, "central-3pc" -> Database { protocol = Kv.Node.Three_phase; n }
    | true, "paxos-commit" -> Database { protocol = Kv.Node.Paxos (paxos_f ()); n }
    | true, other ->
        refuse (cmd ^ " --kv")
          (Printf.sprintf
             "unsupported protocol %s (use central-2pc, central-3pc or paxos-commit)" other)
    | false, "paxos-commit" -> Engine_paxos { n; f = paxos_f () }
    | false, label -> Engine_protocol (label, build cmd label n)
  in
  Term.(const resolve $ label $ sites_opt $ f $ kv)

let k_arg cmd =
  checked
    Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Maximum concurrent failures to inject.")
    (fun k -> require cmd (k >= 0) "-k must be >= 0")

let workers_arg cmd =
  checked
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Spread the runs across W domains (default 1).  Every run is an isolated \
             simulation instance and results fold in a fixed order, so the output is \
             byte-identical whatever W is; only wall-clock changes.")
    (fun w -> require cmd (w >= 1) "--workers must be >= 1")

let seed_arg ?(docv = "SEED") ?(default = 1) doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv ~doc)

(* --crash-site and --isolate: an optional site, one of the run's [n]. *)
let site_opt_arg name cmd ~n ~doc =
  let site = Arg.(value & opt (some int) None & info [ name ] ~docv:"S" ~doc) in
  let check n s =
    require_sites cmd ~n ("--" ^ name) (Option.to_list s);
    s
  in
  Term.(const check $ n $ site)

let recover_at_arg cmd =
  checked
    Arg.(
      value
      & opt (some float) None
      & info [ "recover-at" ] ~docv:"T" ~doc:"Recover the crashed site at time T.")
    (fun t ->
      require cmd (Option.fold ~none:true ~some:is_time t) "--recover-at must be finite and >= 0")

let quorum_arg =
  Arg.(
    value & flag
    & info [ "quorum" ]
        ~doc:
          "Terminate orphaned transactions with the majority-quorum rule instead of the \
           paper's decision rule.")

(* The commit levers both harnesses take. *)
type levers = {
  termination : Engine.Runtime.termination_rule;
  presumption : Engine.Runtime.presumption;
  read_only_opt : bool;
  group_commit : Engine.Wal.group_commit option;
  pipeline_depth : int;
  sync_latency : float;
}

(* --quorum, --presumption, --read-only-opt, --group-commit, --pipeline and
   --sync-latency. *)
let levers_arg cmd =
  let presumption =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("abort", Engine.Runtime.Presume_abort);
                  ("commit", Engine.Runtime.Presume_commit);
                ]))
          None
      & info [ "presumption" ] ~docv:"abort|commit"
          ~doc:
            "Commit presumption: the covered outcome's decision record is appended but not \
             forced, trading one disk force per transaction for a bounded durability gap \
             the oracles license.")
  in
  let read_only_opt =
    Arg.(
      value & flag
      & info [ "read-only-opt" ]
          ~doc:
            "Read-only participant optimization: read-only participants vote and drop out \
             of the protocol without forcing their log.  On the protocol engine the \
             highest-numbered participant is marked read-only.")
  in
  let group_commit =
    Arg.(
      value & opt int 0
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "Group commit: coalesce up to N concurrent log forces into one shared disk \
             sync (straggler timer 0.05 s).  0 disables batching.  Only observable with a \
             nonzero $(b,--sync-latency).")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"D"
          ~doc:
            "Coordinator pipelining depth on the database: admit a new transaction while \
             fewer than D log forces are in flight.  1 serializes admission on disk I/O \
             (the default).")
  in
  let sync_latency =
    Arg.(
      value & opt float 0.0
      & info [ "sync-latency" ] ~docv:"T"
          ~doc:"Simulated disk sync latency in seconds (0 = synchronous forces).")
  in
  let make quorum presumption read_only_opt group_commit pipeline_depth sync_latency =
    let require = require cmd in
    require (Float.is_finite sync_latency && sync_latency >= 0.0) "--sync-latency must be >= 0";
    require (group_commit >= 0) "--group-commit must be >= 0";
    require (pipeline_depth >= 1) "--pipeline must be >= 1";
    {
      termination = (if quorum then Engine.Runtime.Quorum else Engine.Runtime.Skeen);
      presumption = Option.value presumption ~default:Engine.Runtime.No_presumption;
      read_only_opt;
      group_commit =
        (if group_commit > 0 then Some { Engine.Wal.max_batch = group_commit; max_wait = 0.05 }
         else None);
      pipeline_depth;
      sync_latency;
    }
  in
  Term.(
    const make $ quorum_arg $ presumption $ read_only_opt $ group_commit $ pipeline
    $ sync_latency)

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

let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run p =
    let graph = Core.Reachability.build p in
    Fmt.pr "%a@." Core.Nonblocking.pp_report (Core.Nonblocking.analyze graph);
    let sync = Core.Synchrony.check p in
    Fmt.pr "synchronous within one state transition: %b@." sync.Core.Synchrony.synchronous;
    let cm = Core.Committable.compute graph in
    Fmt.pr "committable states: %a@."
      Fmt.(box (list ~sep:comma string))
      (Core.Committable.committable_ids cm)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the fundamental nonblocking theorem on a protocol.")
    Term.(const run $ protocol "analyze")

(* ---------------- graph ---------------- *)

let graph_cmd =
  let run p dot =
    let g = Core.Reachability.build p in
    if dot then print_string (Core.Render.reachability_to_dot g)
    else Fmt.pr "%a@." Core.Reachability.pp_stats (Core.Reachability.stats g)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Build the reachable state graph of a protocol.")
    Term.(const run $ protocol "graph" $ dot_arg)

(* ---------------- concurrency ---------------- *)

let concurrency_cmd =
  let run p = print_string (Core.Render.concurrency_table (Core.Reachability.build p)) in
  Cmd.v
    (Cmd.info "concurrency" ~doc:"Print the concurrency-set table of a protocol.")
    Term.(const run $ protocol "concurrency")

(* ---------------- rulebook ---------------- *)

let rulebook_cmd =
  let run p = Fmt.pr "%a@." Engine.Rulebook.pp (Engine.Rulebook.compile p) in
  Cmd.v
    (Cmd.info "rulebook" ~doc:"Print the backup coordinator's decision table.")
    Term.(const run $ protocol "rulebook")

(* ---------------- fsa ---------------- *)

let fsa_cmd =
  let site_arg = Arg.(value & opt int 1 & info [ "site" ] ~docv:"S" ~doc:"Site whose FSA to print.") in
  let run p dot site =
    require_sites "fsa" ~n:(Core.Protocol.n_sites p) "--site" [ site ];
    let a = Core.Protocol.automaton p site in
    if dot then print_string (Core.Render.automaton_to_dot a) else Fmt.pr "%a@." Core.Automaton.pp a
  in
  Cmd.v
    (Cmd.info "fsa" ~doc:"Print a site's finite state automaton.")
    Term.(const run $ protocol "fsa" $ dot_arg $ site_arg)

(* ---------------- synthesize ---------------- *)

let synthesize_cmd =
  let run n =
    let { Core.Synthesis.protocol; buffers_added } =
      Core.Synthesis.buffer_protocol (build "synthesize" "central-2pc" n)
    in
    Fmt.pr "added buffer states: %a@.@."
      Fmt.(box (list ~sep:comma (pair ~sep:(any ":") int string)))
      buffers_added;
    Fmt.pr "%a@." Core.Nonblocking.pp_report (Core.Nonblocking.analyze_protocol protocol)
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Apply the buffer-state transformation to central-site 2PC and verify the result.")
    Term.(const run $ sites_arg)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let cmd = "simulate" in
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
  let no_votes =
    Arg.(value & opt_all int [] & info [ "no-vote" ] ~docv:"S" ~doc:"Site S votes no (repeatable).")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.") in
  let run p crash_site crash_step crash_sent recover_at no_votes trace seed quorum isolate
      metrics_json =
    let n = Core.Protocol.n_sites p in
    require cmd (crash_step >= 0) "--crash-step must be >= 0";
    require cmd (Option.fold ~none:true ~some:(fun j -> j >= 0) crash_sent) "--sent must be >= 0";
    require_sites cmd ~n "--no-vote" no_votes;
    let rb = Engine.Rulebook.compile p in
    let mode =
      match crash_sent with
      | None -> Sim.Nemesis.Before_transition
      | Some j -> Sim.Nemesis.After_logging j
    in
    let plan =
      flag_plan ~n ~crash_site ~recover_at ~isolate ~from_t:1.5 ~until_t:200.0 ~crash:(fun site ->
          Sim.Nemesis.Step_crash { site; step = crash_step; mode })
    in
    let votes = List.map (fun s -> (s, Core.Types.No)) no_votes in
    let termination =
      if quorum then Engine.Runtime.Quorum else Engine.Runtime.Skeen
    in
    let r =
      Engine.Runtime.run (Engine.Runtime.config ~votes ~plan ~seed ~tracing:trace ~termination rb)
    in
    Fmt.pr "%a@." Engine.Runtime.pp_result r;
    if trace then
      List.iter (fun e -> Fmt.pr "%8.2f  %s@." e.Sim.World.at e.Sim.World.what) r.Engine.Runtime.trace;
    Option.iter
      (fun f -> write_metrics_json f (Sim.Metrics.to_json r.Engine.Runtime.run_metrics))
      metrics_json
  in
  Cmd.v
    (Cmd.info cmd ~doc:"Execute one distributed transaction on the simulator.")
    Term.(
      const run $ protocol cmd
      $ site_opt_arg "crash-site" cmd ~n:sites_arg
          ~doc:"Crash site S at its $(b,--crash-step)-th transition."
      $ crash_step $ crash_sent $ recover_at_arg cmd $ no_votes $ trace
      $ seed_arg "Simulation seed." $ quorum_arg
      $ site_opt_arg "isolate" cmd ~n:sites_arg
          ~doc:
            "Partition site S away from the others from t=1.5 to t=200 with false failure \
             reports — violates the paper's detector assumption."
      $ metrics_json_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let cmd = "chaos" in
  let require = require cmd in
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"M" ~doc:"Number of seeds (schedules) to run.")
  in
  let seed_base_arg =
    Arg.(value & opt int 0 & info [ "seed-base" ] ~docv:"S" ~doc:"First seed of the sweep.")
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
  (* --plan goes through the target's family gate before anything runs: a
     clause the selected target cannot execute (e.g. move-crash outside
     3PC, acceptor-crash outside Paxos Commit, any step crash on the
     database) would otherwise be silently ignored and the run would
     vacuously pass. *)
  let parse_plan ~families ~target ~n s =
    match Engine.Failure_plan.of_string s with
    | Error msg -> refuse cmd ("bad --plan: " ^ msg)
    | Ok plan -> (
        Option.iter (fun msg -> refuse cmd ("bad --plan: " ^ msg)) (plan_sites_error ~n plan);
        match Engine.Explore.unsupported ~families plan with
        | [] -> plan
        | clauses ->
            List.iter
              (fun c -> Fmt.epr "skeen chaos: %s: %s does not execute this clause@." c target)
              clauses;
            exit 2)
  in
  let run seeds workers target k until levers drops lost_flush seed_base replay plan_str
      partitions disk_faults detector_flag no_fencing detector_faults heartbeat_period
      suspicion_timeout election_timeout metrics_json =
    let detector = detector_flag || no_fencing || detector_faults in
    let fencing = not no_fencing in
    Result.iter_error (refuse cmd)
      (Sim.Detector.check_timing ~heartbeat_period ~suspicion_timeout);
    let profile base =
      let p =
        {
          base with
          Sim.Nemesis.p_partition = (if partitions then 0.35 else 0.0);
          drop_weight = drops;
        }
      in
      let p =
        if disk_faults || lost_flush > 0 then
          { p with Sim.Nemesis.p_disk_fault = 0.6; lost_flush_weight = lost_flush }
        else p
      in
      if detector_faults then Sim.Nemesis.detector_faults p else p
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
      | Some s, _ ->
          run_once "plan:"
            (parse_plan ~families ~target:t.name ~n:t.Engine.Chaos.n_sites s)
            ~seed:seed_base
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
    let engine_metrics (r : Engine.Runtime.result) = r.run_metrics in
    let { termination; presumption; read_only_opt; group_commit; pipeline_depth; sync_latency } =
      levers
    in
    let ignoring flag scope =
      Fmt.epr "skeen chaos: %s applies only to %s; ignoring it@." flag scope
    in
    let pipeline_scope = "--kv (the bare protocol engine runs one transaction)" in
    match target with
    | Database { protocol; n } ->
        if election_timeout <> 4.0 then
          ignoring "--election-timeout"
            "the protocol engine (the database elects its backup by rank, with no campaign)";
        let cfg =
          Kv.Chaos_db.config ~protocol ~termination ~presumption ~read_only_opt ?group_commit
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
    | Engine_paxos { n; f } ->
        List.iter
          (fun (set, flag) ->
            if set then
              ignoring flag
                "the catalog protocols and --kv (the engine's Paxos Commit takes no commit levers)")
          [
            (termination <> Engine.Runtime.Skeen, "--quorum");
            (presumption <> Engine.Runtime.No_presumption, "--presumption");
            (read_only_opt, "--read-only-opt");
            (group_commit <> None, "--group-commit");
            (sync_latency <> 0.0, "--sync-latency");
          ];
        if pipeline_depth <> 1 then ignoring "--pipeline" pipeline_scope;
        List.iter
          (fun (set, flag, scope) ->
            if set then ignoring flag (scope ^ " (the engine's Paxos Commit has no detector mode)"))
          [
            (detector_flag, "--detector", "the catalog protocols and --kv");
            (no_fencing, "--no-fencing", "the catalog protocols and --kv");
            (heartbeat_period <> 1.0, "--heartbeat-period", "the catalog protocols and --kv");
            (suspicion_timeout <> 5.0, "--suspicion-timeout", "the catalog protocols and --kv");
            (election_timeout <> 4.0, "--election-timeout", "the catalog protocols");
          ];
        drive
          (Engine.Paxos.target
             ~profile:(profile (Engine.Paxos.sweep_profile ~n_sites:n ~f))
             ~until ~n_sites:n ~f ())
          ~families:(Engine.Explore.protocol_families ~protocol:"paxos-commit")
          ~pp_result:Engine.Runtime.pp_result ~run_metrics:engine_metrics
    | Engine_protocol (label, p) ->
        if pipeline_depth <> 1 then ignoring "--pipeline" pipeline_scope;
        let cfg =
          Engine.Runtime.config ~until ~termination ~presumption
            ?read_only:(if read_only_opt then Some [ Core.Protocol.n_sites p ] else None)
            ?group_commit ~sync_latency ~detector ~heartbeat_period ~suspicion_timeout
            ~election_timeout ~fencing (Engine.Rulebook.compile p)
        in
        drive
          (Engine.Chaos.target ~profile:(profile Sim.Nemesis.default_profile) cfg)
          ~families:(Engine.Explore.protocol_families ~protocol:label)
          ~pp_result:Engine.Runtime.pp_result ~run_metrics:engine_metrics
  in
  Cmd.v
    (Cmd.info cmd
       ~doc:
         "Run randomized fault schedules (crashes, recoveries, duplicated/delayed messages; \
          partitions, drops and storage faults as opt-in ablations) against a protocol and judge \
          each run with the atomicity, nonblocking-progress, recovery-convergence and durability \
          oracles.  Violations are shrunk to a minimal replayable failure plan.  Exits 1 if any \
          violation was found.")
    Term.(
      const run
      $ checked seeds_arg (fun s -> require (s >= 0) "--seeds must be >= 0")
      $ workers_arg cmd $ target cmd $ k_arg cmd
      $ checked until_arg (fun t ->
            require (Float.is_finite t && t > 0.0) "--until must be positive and finite")
      $ levers_arg cmd
      $ checked drops_arg (fun w -> require (w >= 0) "--drops must be >= 0")
      $ checked lost_flush_arg (fun w -> require (w >= 0) "--lost-flush must be >= 0")
      $ seed_base_arg $ replay_arg $ plan_arg $ partitions_arg $ disk_faults_arg $ detector_arg
      $ no_fencing_arg $ detector_faults_arg $ heartbeat_arg $ suspicion_arg $ election_arg
      $ metrics_json_arg)

(* ---------------- explore ---------------- *)

let explore_cmd =
  let cmd = "explore" in
  let budget_arg =
    checked
      Arg.(
        value & opt int 256
        & info [ "budget" ] ~docv:"B" ~doc:"Number of plans to execute (mutants or random).")
      (fun b -> require cmd (b >= 0) "--budget must be >= 0")
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
  let storms_arg =
    Arg.(
      value & flag
      & info [ "storms" ]
          ~doc:
            "Arm crash-recover storms in the random baseline's fault profile (guided \
             mutations can always add storm clauses).")
  in
  let run target k budget mode corpus replay workers seed storms =
    let storm_profile base =
      if storms then { base with Sim.Nemesis.p_storm = 0.7 } else base
    in
    let harness =
      match target with
      | Database { protocol; n } ->
          Kv.Chaos_db.harness ~protocol ~n_sites:n
            ~profile:(storm_profile Kv.Chaos_db.default_profile)
            ~k ()
      | Engine_paxos _ ->
          refuse cmd
            "the engine harness does not cover paxos-commit; use --kv --protocol paxos-commit"
      | Engine_protocol (_, p) ->
          Engine.Explore.engine_harness
            ~profile:(storm_profile Sim.Nemesis.default_profile)
            ~k (Engine.Rulebook.compile p)
    in
    let load_corpus dir =
      let entries =
        try Engine.Explore.load_corpus ~dir
        with Engine.Failure_plan.Parse_error msg -> refuse cmd msg
      in
      List.iter
        (fun (name, plan) ->
          Option.iter
            (fun msg -> refuse cmd (Printf.sprintf "%s/%s: %s" dir name msg))
            (plan_sites_error ~n:harness.Engine.Explore.n_sites plan))
        entries;
      entries
    in
    if replay then begin
      match corpus with
      | None -> refuse cmd "--replay needs --corpus DIR"
      | Some dir ->
          let entries = load_corpus dir in
          if entries = [] then refuse cmd (Printf.sprintf "no *.plan files under %s" dir);
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
        | Some dir -> List.map snd (load_corpus dir)
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
    (Cmd.info cmd
       ~doc:
         "Coverage-guided exploration of the fault-schedule space: plans that exercise unseen \
          protocol behaviour join a corpus, mutants of corpus entries (add/remove/retime/\
          retarget a fault, widen a window, add a crash-recover storm, splice two plans) are \
          scheduled next, violations are shrunk to minimal replayable plans.  The corpus \
          persists as *.plan text files for $(b,--replay) or pinned regression tests.  With \
          $(b,--kv) and no $(b,-n) the database runs 4 sites.")
    Term.(
      const run $ target ~kv_sites:4 cmd $ k_arg cmd $ budget_arg $ mode_arg $ corpus_arg
      $ replay_arg $ workers_arg cmd
      $ seed_arg ~docv:"S" ~default:0 "Root seed of the search stream."
      $ storms_arg)

(* ---------------- model-check ---------------- *)

(* Check the flags, explore (running out of states is reported, not
   raised), print the report; [--bench] adds the wall-time line. *)
let model_check_cmd =
  let cmd = "model-check" in
  let crashes_arg =
    Arg.(value & opt int 1 & info [ "k"; "crashes" ] ~docv:"K" ~doc:"Maximum number of crashes.")
  in
  let limit_arg =
    Arg.(value & opt int 4_000_000 & info [ "limit" ] ~docv:"N" ~doc:"State exploration limit.")
  in
  let bench_arg =
    Arg.(
      value & flag
      & info [ "bench" ] ~doc:"Report wall-clock time, states/sec and the peak major heap for the run.")
  in
  let run p k limit bench =
    require cmd (k >= 0) "--crashes must be >= 0";
    require cmd (limit >= 1) "--limit must be >= 1";
    let rb = Engine.Rulebook.compile p in
    let cfg = { Engine.Model_check.rulebook = rb; max_crashes = k; limit; rule = `Skeen } in
    let r, wall =
      Sim.Clock.time (fun () ->
          try Engine.Model_check.run cfg
          with Failure _ ->
            Fmt.epr "skeen %s: more than %d states; raise --limit to explore further@." cmd limit;
            exit 1)
    in
    Fmt.pr "%a@." Engine.Model_check.pp_report r;
    if bench then
      Fmt.pr "wall: %.3f s, %.0f states/sec, peak major heap: %.1f MB@." wall
        (if wall > 0.0 then float_of_int r.Engine.Model_check.explored /. wall else 0.0)
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    match r.Engine.Model_check.counterexample with
    | Some path ->
        Fmt.pr "counterexample:@.";
        List.iteri (fun i st -> Fmt.pr "%2d: %a@." i Engine.Model_check.pp_st st) path
    | None -> ()
  in
  Cmd.v
    (Cmd.info cmd
       ~doc:
         "Exhaustively verify a protocol (with its termination protocol) under up to K crashes \
          with the interned state-space engine: no interleaving may violate atomicity, and for \
          nonblocking protocols every terminal state must have all operational sites decided.  \
          $(b,--bench) additionally reports wall-clock throughput (states/sec) and the peak \
          major heap (the process's top heap size).")
    Term.(const run $ protocol cmd $ crashes_arg $ limit_arg $ bench_arg)

(* ---------------- bank ---------------- *)

let bank_cmd =
  let cmd = "bank" in
  let three_phase =
    Arg.(value & opt bool true & info [ "three-phase" ] ~docv:"BOOL" ~doc:"Use 3PC (true) or 2PC (false).")
  in
  let txns = Arg.(value & opt int 200 & info [ "txns" ] ~docv:"N" ~doc:"Number of transfers.") in
  let crash_at = Arg.(value & opt float 60.0 & info [ "crash-at" ] ~docv:"T" ~doc:"Crash time.") in
  let run txns n three_phase crash_site crash_at recover_at isolate levers seed metrics_json =
    let accounts = 32 and initial_balance = 100 in
    let rng = Sim.Rng.create ~seed in
    let wl = Kv.Workload.bank rng ~n_txns:txns ~accounts ~arrival_rate:1.0 in
    let { termination; presumption; read_only_opt; group_commit; pipeline_depth; sync_latency } =
      levers
    in
    let cfg =
      Kv.Db.config ~n_sites:n
        ~protocol:(if three_phase then Kv.Node.Three_phase else Kv.Node.Two_phase)
        ~termination ~presumption ~read_only_opt ?group_commit ~pipeline_depth ~sync_latency ~seed
        ~plan:
          (flag_plan ~n ~crash_site ~recover_at ~isolate ~from_t:40.0 ~until_t:160.0
             ~crash:(fun site -> Sim.Nemesis.Crash { site; at = crash_at }))
        ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance)
        ()
    in
    let r = Kv.Db.run cfg wl in
    Fmt.pr "%a@." Kv.Db.pp_result r;
    Fmt.pr "lock-conflict aborts: %d deadlock, %d lock-wait timeout@." r.Kv.Db.deadlock_aborts
      r.Kv.Db.lock_timeouts;
    Fmt.pr "bank total: expected %d, measured %d@."
      (Kv.Workload.bank_total ~accounts ~initial_balance)
      r.Kv.Db.storage_totals;
    Option.iter (fun f -> write_metrics_json f (Sim.Metrics.to_json r.Kv.Db.run_metrics)) metrics_json
  in
  Cmd.v
    (Cmd.info cmd ~doc:"Run the bank-transfer workload on the distributed KV store.")
    Term.(
      const run
      $ checked txns (fun t -> require cmd (t >= 0) "--txns must be >= 0")
      $ checked sites_arg (fun n -> require cmd (n >= 1) "-n must be >= 1")
      $ three_phase
      $ site_opt_arg "crash-site" cmd ~n:sites_arg ~doc:"Crash site S mid-run, at $(b,--crash-at)."
      $ checked crash_at (fun t -> require cmd (is_time t) "--crash-at must be finite and >= 0")
      $ recover_at_arg cmd
      $ site_opt_arg "isolate" cmd ~n:sites_arg ~doc:"Partition site S away from t=40 to t=160."
      $ levers_arg cmd $ seed_arg "Workload and simulation seed." $ metrics_json_arg)

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
            bank_cmd;
          ]))
