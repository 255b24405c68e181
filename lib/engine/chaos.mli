(** The chaos harness: randomized fault schedules, consistency oracles,
    seed sweeps and counterexample shrinking, for every system under test.

    A {!target} is one system — the protocol engine ({!target}), Paxos
    Commit ({!Paxos.target}) or the kv database ([Kv.Chaos_db.target]) —
    reduced to two functions: run and judge the schedule a seed draws, and
    run and judge one explicit {!Failure_plan.t}.  Everything else exists
    once, here: the oracle vocabulary, the split-brain epoch check, the
    two-phase seed sweep ({!sweep_target}) and the greedy plan shrinker
    ({!shrink_target}).

    On the engine every run is a pure function of [(protocol, n, k, seed)]:
    the seed drives {!Sim.Nemesis.generate} through a {!Sim.Rng.split}
    stream, the schedule lowers to a {!Failure_plan.t} via
    {!Failure_plan.of_schedule}, one protocol instance executes it, and
    five oracles judge the quiesced history — atomicity (crashed sites
    judged by their WAL), nonblocking progress under ≤ k concurrent
    failures (the [until] horizon is the stall budget), recovery
    convergence, durability (what the world observed from a site must be
    derivable from its durable log after crash + repair) and split brain.
    Violations are greedily shrunk to a minimal plan that
    {!Failure_plan.to_string} renders ready to paste into a regression
    test. *)

type oracle =
  | Atomicity
  | Progress
  | Recovery_convergence
  | Durability
  | Split_brain
  | Conservation  (** the database's bank total; never raised by the engine *)

val pp_oracle : Format.formatter -> oracle -> unit
val equal_oracle : oracle -> oracle -> bool
val oracle_name : oracle -> string

val oracle_of_name : string -> oracle option
(** Inverse of {!oracle_name}. *)

type violation = { oracle : oracle; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type run_outcome = {
  seed : int;
  plan : Failure_plan.t;
  result : Runtime.result;
  violations : violation list;
}

type counterexample = {
  cx_seed : int;
  cx_violation : violation;
  cx_plan : Failure_plan.t;  (** shrunk to a local minimum *)
  cx_original_faults : int;
  cx_shrunk_faults : int;
  cx_shrink_runs : int;  (** re-executions spent shrinking *)
  cx_trace : Sim.World.trace_entry list;  (** trace of the minimal plan's run *)
}

type summary = {
  protocol : string;
  n_sites : int;
  k : int;
  seeds_run : int;
  counterexamples : counterexample list;
  violations_by_oracle : (oracle * int) list;
  metrics : Sim.Metrics.t;
      (** chaos_runs / shrink_runs / violations_* counters,
          schedule_faults histogram.  A sweep reads no clock per seed; the
          perf ledger's [chaos.oracles_us] row times the oracles. *)
}

val violations_of :
  ?metrics:Sim.Metrics.t ->
  ?presumption:Runtime.presumption ->
  ?read_only:Core.Types.site list ->
  Runtime.result ->
  violation list
(** Run the five engine oracles on a finished run.  [metrics] is
    accepted and not written: the oracles read no clock, and a caller
    that wants their cost times the call from outside.  [Split_brain]
    checks no election epoch in [result.directive_epochs] is claimed by
    two distinct sites.
    [presumption] licenses exactly one durability gap: an announced
    covered outcome whose appended-not-forced [Decided] record the crash
    took.  [read_only] sites are exempt from the progress, recovery and
    durability oracles (their log is volatile by design and they are
    excluded from termination). *)

val split_brain :
  epoch:('a -> 'k) ->
  site:('a -> Core.Types.site) ->
  detail:('a -> string) ->
  'a list ->
  violation option
(** The split-brain oracle over any list of epoch claims: a [Split_brain]
    violation, described by [detail] of the first offending claim, when
    one epoch key is claimed by two distinct sites. *)

val fingerprint_of : Runtime.result -> Sim.Coverage.feature list
(** The run's behavioural signature for the coverage-guided explorer
    ({!Explore}): per-site-class protocol-state edges walked by the
    stable log (read post hoc from the WAL store — the runtime's metrics
    stay untouched), terminal outcomes, bucketed detector/election
    activity ({!Sim.Coverage.bucket}) and oracle near-miss flags, in no
    particular order.  Deterministic in the run; builds no string. *)

(** {1 Targets} *)

type ('o, 'r) target = {
  name : string;
  n_sites : int;
  profile : Sim.Nemesis.profile;  (** what a seed's schedule is drawn from *)
  nemesis_rng : int -> Sim.Rng.t;  (** the seed's schedule stream *)
  run_seed : metrics:Sim.Metrics.t option -> seed:int -> Sim.Nemesis.schedule -> 'o;
      (** phase 1 of a sweep: run and judge the seed's schedule, counting
          into [metrics] *)
  verdict : 'o -> violation list;
  plan_of : 'o -> Failure_plan.t;  (** the seed's faults, as the shrinker sees them *)
  run :
    metrics:Sim.Metrics.t option -> tracing:bool -> seed:int -> Failure_plan.t -> 'r * violation list;
      (** run and judge one explicit plan *)
  trace : 'r -> Sim.World.trace_entry list;
}
(** One system under test.  ['o] is its per-seed outcome, ['r] its run
    result. *)

val stall_budget : float
(** The default [until] horizon of engine chaos runs (1500.0).  A run
    stops earlier at quiescence, which in detector mode includes the
    instant its detector settles ({!Sim.World.run}). *)

val plan_target :
  name:string ->
  n_sites:int ->
  profile:Sim.Nemesis.profile ->
  (metrics:Sim.Metrics.t option ->
  tracing:bool ->
  seed:int ->
  Failure_plan.t ->
  Runtime.result * violation list) ->
  (run_outcome, Runtime.result) target
(** A target whose seeds lower to a plan before they run (the engine and
    Paxos Commit): the schedule comes from the first {!Sim.Rng.split} of
    the seed's root rng, and phase 1 counts [chaos_runs] and the
    [schedule_faults] histogram. *)

val target : ?profile:Sim.Nemesis.profile -> Runtime.config -> (run_outcome, Runtime.result) target
(** The protocol engine under [config] (its [plan], [seed] and [tracing]
    are set per run) and the five oracles.  [profile] defaults to
    {!Sim.Nemesis.default_profile}. *)

val schedule : ('o, 'r) target -> k:int -> seed:int -> Sim.Nemesis.schedule
(** The schedule seed [seed] draws.  Deterministic. *)

val run_seed : ?metrics:Sim.Metrics.t -> ('o, 'r) target -> k:int -> seed:int -> 'o
(** Draw the seed's schedule and run it. *)

val shrink_target :
  ?metrics:Sim.Metrics.t ->
  ('o, 'r) target ->
  seed:int ->
  oracle:oracle ->
  Failure_plan.t ->
  Failure_plan.t * int
(** Greedy minimisation: drop single faults (or one wave of a storm) to a
    fixpoint, then round fault times, keeping any candidate that still
    trips [oracle] under the same seed.  Returns the minimal plan and the
    number of re-runs spent. *)

val sweep_target :
  ?seed_base:int ->
  ?max_counterexamples:int ->
  ?workers:int ->
  ('o, 'r) target ->
  k:int ->
  seeds:int ->
  (int * 'o) list * summary
(** Run seeds [seed_base .. seed_base + seeds - 1] and shrink (and trace)
    at most [max_counterexamples] violations (default 5).  Returns the
    violating seeds with their outcomes, in seed order, and the summary.
    Every seed counts [violations_<oracle>]; [violations_by_oracle] is
    sorted.

    A sweep costs one run per seed and keeps none of it: a passing
    seed's outcome is dropped as soon as it is judged, and each seed's
    metrics registry is {!Sim.Metrics.merge}d into the summary's in seed
    order as soon as every earlier seed has been ({!Sim.Sweep.sweep}).

    [workers] (default 1) shards the seed range across OCaml domains:
    each seed runs in a fully isolated World/Metrics/Rng instance, so the
    summary — counterexamples included — and the deterministic
    projection of [metrics] ({!Sim.Metrics.to_json} [~drop_wall:true])
    are byte-identical whatever the worker count.  Only [wall_]-prefixed
    timing histograms vary run to run.  Shrinking runs in a sequential
    seed-ordered phase after every seed has run. *)

(** {1 The engine}

    Shorthands over {!target}: each builds one {!Runtime.config} with
    [until = stall_budget] and the options its callers set.  Anything
    else goes through {!target} and a config of one's own. *)

val run_plan :
  ?tracing:bool ->
  ?late_force:bool ->
  ?detector:bool ->
  ?fencing:bool ->
  Rulebook.t ->
  plan:Failure_plan.t ->
  seed:int ->
  unit ->
  Runtime.result * violation list
(** Execute one explicit plan (e.g. a pasted counterexample) and judge
    it.  [late_force] (default false) runs the mis-placed-force-point
    ablation the durability oracle must catch. *)

val run_one :
  ?metrics:Sim.Metrics.t ->
  ?profile:Sim.Nemesis.profile ->
  ?presumption:Runtime.presumption ->
  ?read_only:Core.Types.site list ->
  ?sync_latency:float ->
  ?late_force:bool ->
  ?detector:bool ->
  ?suspicion_timeout:float ->
  Rulebook.t ->
  k:int ->
  seed:int ->
  unit ->
  run_outcome
(** {!run_seed}: generate the seed's schedule and execute it. *)

val shrink :
  ?metrics:Sim.Metrics.t ->
  ?late_force:bool ->
  ?detector:bool ->
  ?fencing:bool ->
  Rulebook.t ->
  seed:int ->
  oracle:oracle ->
  Failure_plan.t ->
  Failure_plan.t * int
(** {!shrink_target} on the engine. *)

val sweep :
  ?profile:Sim.Nemesis.profile ->
  ?presumption:Runtime.presumption ->
  ?read_only:Core.Types.site list ->
  ?group_commit:Wal.group_commit ->
  ?sync_latency:float ->
  ?detector:bool ->
  ?seed_base:int ->
  ?max_counterexamples:int ->
  ?workers:int ->
  Rulebook.t ->
  k:int ->
  seeds:int ->
  unit ->
  summary
(** {!sweep_target} on the engine. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_summary : Format.formatter -> summary -> unit
