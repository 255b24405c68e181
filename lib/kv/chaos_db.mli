(** The database harness as an {!Engine.Chaos} target: {!Sim.Nemesis}
    schedules lowered onto a {!Db} bank-transfer run, judged by
    end-to-end oracles — atomicity (outcome logs agree, committed writes
    applied), conservation (the bank total is invariant once every site
    is back and nothing is in doubt), nonblocking progress (no
    operational site ends the run holding locks in doubt unless its
    transaction's whole participant set crashed), durability (every yes
    vote and announced outcome must be justified by the announcing site's
    repaired stable log) and split brain.  Sweeps and shrinking are the
    shared harness's, and a plan is the schedule in clause order
    ({!Engine.Failure_plan.of_schedule}).  Deterministic in
    [(protocol, n_sites, k, seed)]. *)

type oracle = Engine.Chaos.oracle =
  | Atomicity
  | Progress
  | Recovery_convergence  (** never raised here *)
  | Durability
  | Split_brain
  | Conservation

type violation = Engine.Chaos.violation = { oracle : oracle; detail : string }

val oracle_name : oracle -> string
val pp_violation : Format.formatter -> violation -> unit

val default_profile : Sim.Nemesis.profile
(** Timed crashes, recoveries and message faults only: step- and
    backup-pinned crashes are protocol-engine notions the database cannot
    interpret. *)

val paxos_profile : f:int -> Sim.Nemesis.profile -> Sim.Nemesis.profile
(** [base] with acceptor crashes (capped at [f]) aimed at the [2f+1]
    lowest-numbered sites, where the database puts its acceptors, and
    lease faults — the database counterpart of
    {!Engine.Paxos.sweep_profile}. *)

val fingerprint_of : Db.result -> Sim.Coverage.feature list
(** The run's behavioural signature for the coverage-guided explorer
    ({!Engine.Explore}): per-transaction fates, bucketed outcome /
    conflict / election counters ({!Sim.Coverage.bucket}) and oracle
    near-miss flags, read post hoc from the result — pinned metrics stay
    byte-identical.  Deterministic in the run. *)

val config :
  ?protocol:Node.protocol ->
  ?termination:Node.termination ->
  ?presumption:Node.presumption ->
  ?read_only_opt:bool ->
  ?group_commit:Kv_wal.group_commit ->
  ?sync_latency:float ->
  ?pipeline_depth:int ->
  ?n_sites:int ->
  ?until:float ->
  ?durable_wal:bool ->
  ?detector:bool ->
  ?fencing:bool ->
  ?heartbeat_period:float ->
  ?suspicion_timeout:float ->
  unit ->
  Db.config
(** The chaos runs' {!Db.config}: 3PC on 4 sites, a 3000.0 stall budget,
    the durable WAL and the bank's initial data.  The detector knobs
    default as in {!Db.config}.  Faults, seed and tracing are set per
    run. *)

type run_outcome = {
  seed : int;
  schedule : Sim.Nemesis.schedule;
  result : Db.result;
  violations : violation list;
}

val target :
  ?profile:Sim.Nemesis.profile -> Db.config -> (run_outcome, Db.result) Engine.Chaos.target
(** The database under [config].  A seed draws its schedule from
    [profile] (default {!default_profile}) on the second split of its
    root rng — the first feeds the workload — and phase 1 runs that
    schedule directly, counting [chaos_runs] and merging every run's
    {!Db.result}[.run_metrics]. *)

val families : Node.protocol -> Engine.Explore.family list
(** The clause families the database executes: timed crashes,
    recoveries, message faults, detector windows and storms, plus
    acceptor crashes and lease faults under Paxos Commit. *)

val harness :
  protocol:Node.protocol ->
  ?n_sites:int ->
  ?profile:Sim.Nemesis.profile ->
  ?k:int ->
  unit ->
  Engine.Explore.harness
(** The database harness for {!Engine.Explore} over {!target}: the
    [`Random] baseline is exactly the classic kv chaos sweep. *)

(** {1 Shorthands}

    Each builds one {!config} from the options its callers set. *)

val run_schedule : ?n_sites:int -> seed:int -> Sim.Nemesis.schedule -> Db.result * violation list
(** Execute one explicit schedule (e.g. a pinned counterexample) against
    the seed's workload and judge it. *)

val run_one :
  ?protocol:Node.protocol ->
  ?presumption:Node.presumption ->
  ?read_only_opt:bool ->
  ?sync_latency:float ->
  ?pipeline_depth:int ->
  ?n_sites:int ->
  ?durable_wal:bool ->
  k:int ->
  seed:int ->
  unit ->
  run_outcome
(** Generate the seed's schedule and execute it.  Deterministic. *)

val shrink :
  ?protocol:Node.protocol ->
  ?n_sites:int ->
  seed:int ->
  oracle:oracle ->
  Sim.Nemesis.schedule ->
  Sim.Nemesis.schedule * int
(** {!Engine.Chaos.shrink_target} on the schedule: the minimal plan, in
    clause order ({!Engine.Failure_plan.of_schedule}), and the number of
    re-runs spent. *)

type summary = {
  protocol : Node.protocol;
  n_sites : int;
  k : int;
  seeds_run : int;
  failing : (int * violation list * Sim.Nemesis.schedule) list;
      (** (seed, violations, schedule) per failing seed, in seed order; a
          seed with a counterexample carries its shrunk schedule *)
  violations_by_oracle : (oracle * int) list;  (** sorted *)
  metrics : Sim.Metrics.t;
      (** per-seed registries (chaos_runs / violations_* / shrink_runs
          counters plus every {!Db.result}.run_metrics) merged in seed
          order — worker-count independent *)
}

val sweep :
  ?profile:Sim.Nemesis.profile ->
  ?protocol:Node.protocol ->
  ?presumption:Node.presumption ->
  ?read_only_opt:bool ->
  ?group_commit:Kv_wal.group_commit ->
  ?sync_latency:float ->
  ?pipeline_depth:int ->
  ?n_sites:int ->
  ?durable_wal:bool ->
  ?detector:bool ->
  ?seed_base:int ->
  ?workers:int ->
  k:int ->
  seeds:int ->
  unit ->
  summary
(** {!Engine.Chaos.sweep_target} on {!target}, shrinking at most three
    violations. *)
