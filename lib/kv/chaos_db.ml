(** The database harness as a chaos target: the same nemesis schedules
    the protocol engine uses ({!Sim.Nemesis}), installed on a {!Db} run of
    the bank-transfer workload and judged by end-to-end oracles.  Seed
    sweeps, shrinking and the oracle vocabulary are {!Engine.Chaos}'s.

    The step- and backup-pinned crash kinds are protocol-engine notions
    with no meaning on a multi-transaction database, so the default
    profile generates timed crashes only; message-level faults (duplicate
    / extra delay, drops opt-in) apply unchanged.

    Every run is a pure function of [(protocol, n_sites, k, seed)]: the
    seed derives both the workload and the schedule through split
    {!Sim.Rng} streams. *)

module Chaos = Engine.Chaos
module FP = Engine.Failure_plan

type oracle = Chaos.oracle =
  | Atomicity
  | Progress
  | Recovery_convergence
  | Durability
  | Split_brain
  | Conservation

type violation = Chaos.violation = { oracle : oracle; detail : string }

let oracle_name = Chaos.oracle_name
let pp_violation = Chaos.pp_violation

(* Timed faults only: the engine interprets step-pinned crashes, the
   database cannot.  A longer horizon and send window than the protocol
   profile, because a database run spans many transactions. *)
let default_profile =
  {
    Sim.Nemesis.default_profile with
    Sim.Nemesis.p_step_crash = 0.0;
    p_backup_crash = 0.0;
    horizon = 40.0;
    recover_delay_min = 10.0;
    recover_delay_max = 80.0;
    max_msg_faults = 4;
    send_window = 150;
    delay_max = 10.0;
  }

(* Aim faults at the replicated-coordinator state: the database puts the
   2f+1 acceptors on the lowest-numbered sites. *)
let paxos_profile ~f base =
  {
    base with
    Sim.Nemesis.p_acceptor_crash = 0.5;
    acceptor_sites = List.init ((2 * f) + 1) (fun i -> i + 1);
    max_acceptor_crashes = f;
    p_lease_fault = 0.3;
  }

let accounts = 8
let initial_balance = 100
let n_txns = 10

let workload_of ~seed =
  let rng = Sim.Rng.split (Sim.Rng.create ~seed) in
  Workload.bank rng ~n_txns ~accounts ~arrival_rate:0.4

(* Judged against the run's timed crashes and recoveries, acceptor
   crashes and every storm's crash/recover pairs included. *)
let violations (cfg : Db.config) (r : Db.result) =
  let crashes = Sim.Nemesis.crash_times cfg.plan in
  let recoveries = Sim.Nemesis.recovery_times cfg.plan in
  let crashed = List.map fst crashes in
  (* A site is down at the end iff its last crash postdates its last
     recovery — membership tests alone would count a crash/recover/crash
     site as "back" and mis-arm the conservation oracle. *)
  let down_at_end =
    let last events site =
      List.fold_left (fun a (s, at) -> if s = site then Float.max a at else a) neg_infinity events
    in
    List.filter
      (fun s -> last crashes s > last recoveries s)
      (List.sort_uniq compare crashed)
  in
  (* Paxos Commit promises liveness only up to f acceptor failures: a
     schedule that leaves a majority of the 2f+1 acceptors down at the end
     is beyond the fault model, and blocking there is legitimate (safety
     oracles still apply in full). *)
  let beyond_paxos_f =
    match cfg.protocol with
    | Node.Two_phase | Node.Three_phase -> false
    | Node.Paxos f ->
        let acceptors = List.init ((2 * f) + 1) (fun i -> i + 1) in
        List.length (List.filter (fun s -> List.mem s down_at_end) acceptors) > f
  in
  (* A transaction whose whole participant set crashed at some point is a
     total failure: the paper's termination and recovery protocols
     explicitly do not cover it, so a survivor legitimately stays in doubt
     (and its writes legitimately stay unapplied). *)
  let total_failure participants =
    participants <> [] && List.for_all (fun p -> List.mem p crashed) participants
  in
  let atomicity =
    let missing =
      List.filter (fun (_, _, participants) -> not (total_failure participants)) r.Db.missing_applied
    in
    if r.Db.outcome_contradiction then
      [ { oracle = Atomicity; detail = "a transaction has both commit and abort records" } ]
    else
      match missing with
      | [] -> []
      | (txn, site, _) :: _ ->
          [
            {
              oracle = Atomicity;
              detail =
                Fmt.str "%d committed write set(s) unapplied, e.g. txn %d at site %d"
                  (List.length missing) txn site;
            };
          ]
  in
  (* Nonblocking progress: no operational site may end the run holding
     locks in doubt — unless its transaction's participant set totally
     failed. *)
  let blocked =
    if beyond_paxos_f then []
    else List.filter (fun (_, _, participants) -> not (total_failure participants)) r.Db.in_doubt
  in
  let progress =
    match blocked with
    | [] -> []
    | (site, txn, _) :: _ ->
        [
          {
            oracle = Progress;
            detail =
              Fmt.str "%d in-doubt participant(s) at quiescence, e.g. txn %d at site %d"
                (List.length blocked) txn site;
          };
        ]
  in
  (* Conservation of the bank total: meaningful only once every site is
     back up and no buffered writes are parked in doubt. *)
  let conservation =
    if down_at_end <> [] || r.Db.in_doubt <> [] then []
    else
      let expected = Workload.bank_total ~accounts ~initial_balance in
      if r.Db.storage_totals = expected then []
      else
        [
          {
            oracle = Conservation;
            detail = Fmt.str "bank total %d, expected %d" r.Db.storage_totals expected;
          };
        ]
  in
  (* Durability: what left a site must be justified by its repaired
     stable log — regardless of crashes, recoveries or partitions. *)
  let durability =
    match r.Db.durability_breaches with
    | [] -> []
    | (site, txn, what) :: _ ->
        [
          {
            oracle = Durability;
            detail =
              Fmt.str "%d unjustified external action(s), e.g. txn %d at site %d: %s"
                (List.length r.Db.durability_breaches) txn site what;
          };
        ]
  in
  (* Split-brain: two distinct sites sharing a (txn, epoch) pair means
     two backups believed they owned the same election round. *)
  let split_brain =
    Chaos.split_brain
      ~epoch:(fun (txn, _, e) -> (txn, e))
      ~site:(fun (_, site, _) -> site)
      ~detail:(fun (txn, site, e) ->
        Fmt.str "epoch %d of txn %d claimed by two sites, e.g. site %d" e txn site)
      r.Db.directive_epochs
    |> Option.to_list
  in
  atomicity @ progress @ conservation @ durability @ split_brain

(* The run's behavioural signature for the coverage-guided explorer:
   per-transaction fates, bucketed outcome/conflict/election counters
   and oracle near-miss flags, all read post hoc from the finished
   {!Db.result} — no new runtime counters, so pinned metrics stay
   byte-identical.  Deterministic in the run. *)
let fingerprint_of (r : Db.result) =
  let open Sim.Coverage in
  let fate_str = function
    | Db.Fate_committed -> "committed"
    | Db.Fate_aborted -> "aborted"
    | Db.Fate_pending -> "pending"
  in
  List.map (fun (txn, fate) -> feat (Printf.sprintf "fate%d" txn) (fate_str fate)) r.Db.fates
  @ [
      feat "committed" (bucket r.Db.committed);
      feat "aborted" (bucket r.Db.aborted);
      feat "pending" (bucket r.Db.pending);
      feat "deadlock-aborts" (bucket (r.Db.deadlock_aborts + r.Db.lock_timeouts));
      feat "in-doubt" (bucket (List.length r.Db.in_doubt));
      feat "missing-applied" (bucket (List.length r.Db.missing_applied));
      feat "contradiction" (string_of_bool r.Db.outcome_contradiction);
      feat "breaches" (bucket (List.length r.Db.durability_breaches));
      feat "epochs" (bucket (List.length r.Db.directive_epochs));
      feat "epoch-sites"
        (bucket
           (List.length
              (List.sort_uniq compare (List.map (fun (_, s, _) -> s) r.Db.directive_epochs))));
      feat "blocked-time" (bucket (int_of_float r.Db.blocked_time));
    ]
  @ List.map (fun (name, v) -> feat name (bucket v)) (Sim.Metrics.counters r.Db.run_metrics)

(* One Db.config per public call: the schedule's faults and the run's
   seed and tracing are set per run. *)
let config ?(protocol = Node.Three_phase) ?(termination = Node.Skeen) ?presumption
    ?read_only_opt ?group_commit ?sync_latency ?pipeline_depth ?(n_sites = 4) ?(until = 3000.0)
    ?(durable_wal = true) ?detector ?fencing ?heartbeat_period ?suspicion_timeout () =
  Db.config ~n_sites ~protocol ~termination ?presumption ?read_only_opt ?group_commit
    ?sync_latency ?pipeline_depth ~until ~durable_wal ?detector ?fencing ?heartbeat_period
    ?suspicion_timeout ~initial_data:(Workload.bank_initial ~accounts ~initial_balance)
    ()

let judge (cfg : Db.config) ~tracing ~seed plan =
  let cfg = { cfg with seed; tracing; plan } in
  let r = Db.run cfg (workload_of ~seed) in
  (r, violations cfg r)

type run_outcome = {
  seed : int;
  schedule : Sim.Nemesis.schedule;
  result : Db.result;
  violations : violation list;
}

let name = function
  | Node.Two_phase -> "kv-2pc"
  | Node.Three_phase -> "kv-3pc"
  | Node.Paxos f -> Printf.sprintf "kv-paxos-f%d" f

let l_chaos_runs = Sim.Metrics.label "chaos_runs"

(* Phase 1 runs the generated schedule as drawn; the shrinker and the
   explorer see it in clause order ({!Engine.Failure_plan.of_schedule}). *)
let target ?(profile = default_profile) (cfg : Db.config) : (run_outcome, Db.result) Chaos.target =
  {
    name = name cfg.protocol;
    n_sites = cfg.n_sites;
    profile;
    nemesis_rng =
      (fun seed ->
        let root = Sim.Rng.create ~seed in
        ignore (Sim.Rng.split root) (* the workload stream, consumed by [workload_of] *);
        Sim.Rng.split root);
    run_seed =
      (fun ~metrics ~seed schedule ->
        let result, violations = judge cfg ~tracing:false ~seed schedule in
        (match metrics with
        | Some m ->
            Sim.Metrics.bump m l_chaos_runs;
            Sim.Metrics.merge m result.Db.run_metrics
        | None -> ());
        { seed; schedule; result; violations });
    verdict = (fun o -> o.violations);
    plan_of = (fun o -> FP.of_schedule o.schedule);
    run = (fun ~metrics:_ ~tracing ~seed plan -> judge cfg ~tracing ~seed plan);
    trace = (fun r -> r.Db.trace);
  }

(* The calls below build one config each, from the options their callers
   set. *)
let run_schedule ?n_sites ~seed schedule = judge (config ?n_sites ()) ~tracing:false ~seed schedule

let run_one ?protocol ?presumption ?read_only_opt ?sync_latency ?pipeline_depth ?n_sites
    ?durable_wal ~k ~seed () =
  Chaos.run_seed
    (target
       (config ?protocol ?presumption ?read_only_opt ?sync_latency ?pipeline_depth ?n_sites
          ?durable_wal ()))
    ~k ~seed

let shrink ?protocol ?n_sites ~seed ~oracle schedule =
  Chaos.shrink_target (target (config ?protocol ?n_sites ())) ~seed ~oracle schedule

type summary = {
  protocol : Node.protocol;
  n_sites : int;
  k : int;
  seeds_run : int;
  failing : (int * violation list * Sim.Nemesis.schedule) list;
  violations_by_oracle : (oracle * int) list;
  metrics : Sim.Metrics.t;
}

let sweep ?profile ?protocol ?presumption ?read_only_opt ?group_commit ?sync_latency
    ?pipeline_depth ?n_sites ?durable_wal ?detector ?seed_base ?workers ~k ~seeds () =
  let cfg =
    config ?protocol ?presumption ?read_only_opt ?group_commit ?sync_latency ?pipeline_depth
      ?n_sites ?durable_wal ?detector ()
  in
  let failing, s =
    Chaos.sweep_target ?seed_base ~max_counterexamples:3 ?workers (target ?profile cfg) ~k ~seeds
  in
  let shrunk (o : run_outcome) =
    match List.find_opt (fun (cx : Chaos.counterexample) -> cx.cx_seed = o.seed) s.Chaos.counterexamples with
    | Some cx -> cx.cx_plan
    | None -> o.schedule
  in
  {
    protocol = cfg.protocol;
    n_sites = cfg.n_sites;
    k;
    seeds_run = seeds;
    failing = List.map (fun (seed, o) -> (seed, o.violations, shrunk o)) failing;
    violations_by_oracle = s.Chaos.violations_by_oracle;
    metrics = s.Chaos.metrics;
  }

let families protocol =
  Engine.Explore.
    [ Timed_crashes; Recoveries; Msg_faults; Delay_spikes; Stalls; Hb_losses; Storms ]
  @
  match protocol with
  | Node.Paxos _ -> [ Engine.Explore.Acceptor_crashes; Engine.Explore.Lease_faults ]
  | Node.Two_phase | Node.Three_phase -> []

let harness ~protocol ?n_sites ?profile ?(k = 1) () =
  Engine.Explore.of_target
    (target ?profile (config ~protocol ?n_sites ()))
    ~fingerprint:fingerprint_of ~families:(families protocol) ~k
