(** The distributed database harness: n sites, hash-partitioned keys,
    concurrent transactions committed with 2PC or the paper's nonblocking
    3PC, under timed crash/recovery schedules — experiment E12's
    instrument. *)

type config = {
  n_sites : int;
  protocol : Node.protocol;
  presumption : Node.presumption;
  termination : Node.termination;
  read_only_opt : bool;
  seed : int;
  lock_wait_timeout : float;
  tracing : bool;
  until : float;
  plan : Sim.Nemesis.schedule;
      (** the run's faults, installed by {!Sim.Nemesis.install}.  Step
          and backup crashes are protocol-engine notions and are ignored
          here.  A lease fault tells every node its coordinator leases
          lapsed, so Paxos standby acceptors open higher-ballot recovery
          rounds for in-flight transactions; under 2PC/3PC it is a
          no-op. *)
  durable_wal : bool;
      (** log through simulated disks: appends are volatile until the
          node's next sync, crashes lose the unsynced tail, and recovery
          replays the repaired durable image.  [false] is the PR-3
          in-memory log, kept as the benchmark baseline. *)
  group_commit : Kv_wal.group_commit option;
      (** coalesce concurrent WAL forces on one site into shared syncs
          (ticket-based; callbacks fire after the covering barrier) *)
  sync_latency : float;
      (** simulated seconds per WAL sync.  0.0 (default): syncs are
          instantaneous, every force completes synchronously, and all
          prior runs replay byte-identically. *)
  pipeline_depth : int;
      (** coordinator pipelining: admit a client transaction while fewer
          than this many WAL forces are in flight at the coordinator;
          the rest queue.  Vacuous at 0.0 sync latency. *)
  initial_data : (string * int) list;
  detector : bool;
      (** [true]: replace the oracle failure reports with the timeout-based
          {!Sim.Detector}; termination directives are fenced by election
          epochs instead of sender identity.  [false] (the default) keeps
          the oracle; every pre-detector run replays unchanged. *)
  fencing : bool;  (** [false]: the split-brain ablation — accept any epoch *)
  heartbeat_period : float;
  suspicion_timeout : float;
}

val config :
  ?n_sites:int ->
  ?protocol:Node.protocol ->
  ?presumption:Node.presumption ->
  ?termination:Node.termination ->
  ?read_only_opt:bool ->
  ?seed:int ->
  ?lock_wait_timeout:float ->
  ?tracing:bool ->
  ?until:float ->
  ?plan:Sim.Nemesis.schedule ->
  ?durable_wal:bool ->
  ?group_commit:Kv_wal.group_commit ->
  ?sync_latency:float ->
  ?pipeline_depth:int ->
  ?initial_data:(string * int) list ->
  ?detector:bool ->
  ?fencing:bool ->
  ?heartbeat_period:float ->
  ?suspicion_timeout:float ->
  unit ->
  config
(** Raises [Invalid_argument "Db.config: ..."] on [n_sites < 1],
    [pipeline_depth < 1] or a negative or non-finite [sync_latency]. *)

type txn_fate = Fate_committed | Fate_aborted | Fate_pending

val pp_txn_fate : Format.formatter -> txn_fate -> unit
val equal_txn_fate : txn_fate -> txn_fate -> bool

(** What a run did and the end-of-run judgement of it.  The judgement
    fields ([atomicity_ok], [outcome_contradiction], [missing_applied],
    [durability_breaches], [fates]) are read from one per-site,
    per-transaction report of flags, on top of the simulation: one sort
    of the workload by txn id, one walk of each site's log, applied
    journal and sticky tables into the report, and one pass over its
    sites × txns slots.  They do not grow with txns × log length. *)
type result = {
  committed : int;
  aborted : int;
  pending : int;  (** submitted but unresolved at the end (blocked or lost) *)
  deadlock_aborts : int;  (** victims of a detected wait-for cycle *)
  lock_timeouts : int;
      (** aborted after waiting [lock_wait_timeout] for a lock — how
          cycles spanning sites resolve, but also plain long waits *)
  duration : float;
  throughput : float;
  mean_latency : float option;
  blocked_time : float;
      (** cumulative lock-holding time of transactions blocked by a dead
          coordinator — the operational cost of a blocking protocol *)
  messages_sent : int;
  wal_forces : int;  (** total WAL forces across all sites *)
  forces_per_commit : float;
      (** [wal_forces / committed] — the lever benches and sweeps read:
          presumption, the read-only optimization and group commit all
          push it down (0.0 when nothing committed) *)
  atomicity_ok : bool;
      (** outcomes agree across all logs and committed writes are applied
          at every operational participant *)
  outcome_contradiction : bool;
      (** some transaction has both a commit and an abort record across the
          stable logs — the unconditional half of [atomicity_ok] *)
  missing_applied : (int * Core.Types.site * Core.Types.site list) list;
      (** (txn, site, participants): a committed transaction's writes not
          applied at an operational participant — the other half of
          [atomicity_ok], separated out because a total participant-set
          failure legitimately strands a recovered site in doubt *)
  in_doubt : (Core.Types.site * int * Core.Types.site list) list;
      (** (site, txn, participants) still prepared or precommitted at an
          operational site when the run ended — locks held, outcome
          unknown.  Nonempty means blocking (or a total participant-set
          failure the termination protocol does not cover). *)
  durability_breaches : (Core.Types.site * int * string) list;
      (** (site, txn, what): an externally visible action the repaired
          stable log cannot justify — a yes vote on the wire with no
          prepared record surviving, or an announced outcome the log
          resolved the other way.  Always empty under the paper's force
          discipline; nonempty only when the stable-storage axiom itself
          is broken (lying sync) *)
  fates : (int * txn_fate) list;
  directive_epochs : (int * Core.Types.site * int) list;
      (** every termination-leadership assumption of the run, in order:
          (txn, site, epoch) when the site began issuing directives for
          the transaction.  The split-brain oracle checks no (txn, epoch)
          pair is shared by two distinct sites. *)
  storage_totals : int;
  trace : Sim.World.trace_entry list;  (** empty unless [tracing] *)
  run_metrics : Sim.Metrics.t;
      (** the run's metrics registry, timer-drained and no longer written
          to: counters, gauges and latency histograms — commit latency and
          its lock-wait/vote/decision phase split, blocked durations.
          Nothing is snapshotted per run; export with
          {!Sim.Metrics.to_json} or read with {!Sim.Metrics.counters} on
          demand, and sweeps {!Sim.Metrics.merge} it. *)
}

val run : config -> (float * Txn.t) list -> result
(** Executes the workload ((arrival time, transaction) pairs).
    Deterministic in the seed.  Where a txn id repeats, the judgement
    reads the first listed transaction with that id. *)

val pp_result : Format.formatter -> result -> unit
