(** The protocol runtime: executes any catalog {!Core.Protocol.t} on the
    simulator — one FSA interpreter per site — together with the paper's
    termination protocol (election + two-phase backup protocol) and
    recovery protocol.  The termination protocol's rules are
    {!Termination}'s, which the runtime drives with sends, log forces,
    timers and traces; every failure-time decision comes from the
    compiled {!Rulebook}.

    The interpreter executes the rulebook's int-coded tables (the
    [codes] of {!Rulebook.t}): a site's state is a state code, its inbox a
    count per message code, and a step fires the first transition of
    [codes.trans] for the current code (compiled in
    {!Core.Automaton.transitions_from} order) that the inbox enables and
    the site's planned vote allows.  Kinds, verdicts and final states are
    array reads.  State names appear only at the edges — log records,
    termination messages, reports' [final_state] and traces — so logs,
    traces and reports are those of the string interpreter it replaced.

    Election ({!Termination.eligible}): the backup coordinator is the
    smallest-id site that is not read-only, not reported down, and has not
    crashed during this transaction (recovered sites run the recovery
    protocol).  Under the timeout detector the election falls back to
    current suspicion when every site is tainted, and a candidate leads
    only if no better-ranked site objects within [election_timeout].
    Cascading failures re-run the election automatically. *)

(** How a backup coordinator decides: the paper's rule, or quorum
    termination over a majority of the sites.  The rules themselves live
    in {!Termination}; the runtime drives them. *)
type termination_rule = Termination.rule = Skeen | Quorum

(** The classic commit-protocol presumptions, promoted from the database
    layer: the covered outcome's [Decided] record is appended but not
    forced.  Scoped to force-vs-append only — answering inquiries by
    presumption is unsound in this single-transaction model (a site that
    has not yet voted is indistinguishable from one that forgot a
    covered outcome, and the cohort may still commit). *)
type presumption = No_presumption | Presume_abort | Presume_commit

type config = {
  rulebook : Rulebook.t;
  votes : (Core.Types.site * Core.Types.vote) list;  (** default: everyone votes yes *)
  plan : Failure_plan.t;
      (** the run's faults; a [Partition] clause runs it under a network
          partition, violating the paper's reliable-detector assumption *)
  seed : int;
  tracing : bool;
  until : float;
      (** the run's horizon; undecided sites retry their outcome queries
          (with capped, jittered backoff) until it, not until a counter
          runs out *)
  termination : termination_rule;
  presumption : presumption;
      (** append rather than force the covered outcome's [Decided] record *)
  read_only : Core.Types.site list;
      (** read-only participants: run the FSA normally (votes and acks
          still flow) but never sync, and are excluded from backup
          leadership, termination moves and quorum counts (a volatile
          prepared state must not widen a commit quorum).  They still
          learn outcomes from phase 2 broadcasts. *)
  group_commit : Wal.group_commit option;
      (** coalesce concurrent WAL forces into shared syncs — API parity
          with the database layer; with one transaction a site has at
          most one force in flight, so this is a correctness lever here,
          not a throughput one *)
  sync_latency : float;
      (** simulated seconds per WAL sync (0.0: synchronous forces,
          byte-identical replay of every prior run); {!config} rejects a
          negative or non-finite latency with [Invalid_argument] *)
  durable_wal : bool;
      (** [false]: the PR 3 in-memory log (sync free, crash lossless) —
          kept as the benchmark baseline *)
  late_force : bool;
      (** deliberately mis-place the transition force point (append, send,
          then sync) — a test-only ablation the durability oracle must
          catch *)
  detector : bool;
      (** [true]: replace the oracle failure reports with the
          timeout-based {!Sim.Detector} (heartbeats over real sends,
          revocable suspicion, bully election with epochs).  [false] (the
          default) keeps the paper's reliable-detector oracle; every
          pre-detector run replays unchanged. *)
  heartbeat_period : float;  (** detector mode: heartbeat broadcast period *)
  suspicion_timeout : float;  (** detector mode: silence before suspicion *)
  election_timeout : float;
      (** detector mode: how long a candidate waits for a better-ranked
          site to object to its [Elect] before leading *)
  fencing : bool;
      (** [false]: accept every termination directive regardless of epoch —
          the ablation that must reproduce a split-brain, mirroring
          [late_force].  Default [true]. *)
}

val config :
  ?votes:(Core.Types.site * Core.Types.vote) list ->
  ?plan:Failure_plan.t ->
  ?seed:int ->
  ?tracing:bool ->
  ?until:float ->
  ?termination:termination_rule ->
  ?presumption:presumption ->
  ?read_only:Core.Types.site list ->
  ?group_commit:Wal.group_commit ->
  ?sync_latency:float ->
  ?durable_wal:bool ->
  ?late_force:bool ->
  ?detector:bool ->
  ?heartbeat_period:float ->
  ?suspicion_timeout:float ->
  ?election_timeout:float ->
  ?fencing:bool ->
  Rulebook.t ->
  config

type site_report = {
  site : Core.Types.site;
  outcome : Core.Types.outcome option;
  wal_outcome : Core.Types.outcome option;
      (** the decision forced to this site's stable log — a [Decided]
          record, or a final state the log reached before a crash cut the
          announcements short.  Crashed sites are judged by this. *)
  final_state : string;
  operational : bool;  (** alive when the run ended *)
  ever_crashed : bool;
  decided_at : float option;
  sent_yes : bool;
      (** a yes-vote transition's message reached the wire — sticky across
          crashes, unlike the log: the durability oracle compares what the
          world observed against what the durable log can justify *)
  announced : Core.Types.outcome option;
      (** an outcome this site actually announced to a peer — sticky for
          the same reason *)
}

type result = {
  reports : site_report list;
  messages_sent : int;
  messages_delivered : int;
  duration : float;  (** latest decision time among deciding sites *)
  global_outcome : Core.Types.outcome option;
  consistent : bool;  (** no mix of commit and abort across all logs *)
  blocked_operational : int;
      (** operational never-crashed sites left undecided — nonzero only
          for blocking protocols or total-failure scenarios *)
  all_operational_decided : bool;
  store : Wal.Store.t;  (** every site's stable log, for post-hoc oracles *)
  directive_epochs : (Core.Types.site * int) list;
      (** every leadership assumption of the run, in order: (site, epoch)
          when the site began issuing directives.  The split-brain oracle
          checks no epoch is shared by two distinct sites. *)
  trace : Sim.World.trace_entry list;
  run_metrics : Sim.Metrics.t;
      (** the run's metrics registry, timer-drained and no longer written
          to: counters, gauges and latency histograms — decision latency,
          messages-to-decision, WAL appends, termination rounds, event
          counts and queue-depth high-water mark.  Nothing is snapshotted
          per run; export with {!Sim.Metrics.to_json} or read with
          {!Sim.Metrics.counters} on demand, and sweeps
          {!Sim.Metrics.merge} it. *)
}

val run : config -> result
(** Executes one distributed transaction under the configured protocol,
    votes and failure plan.  Deterministic in the seed. *)

val pp_result : Format.formatter -> result -> unit
