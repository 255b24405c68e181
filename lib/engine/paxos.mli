(** Paxos Commit (Gray & Lamport) on the engine harness: one Paxos
    consensus instance per participant vote, replicated across [2f+1]
    acceptor sites, so the transaction manager is no longer a single
    point of blocking.

    Site 1 is the transaction manager (TM) and leader at ballot 0; every
    site is a resource manager (RM) holding one vote.  Acceptors are the
    [2f+1] highest-numbered sites ([{1}] when [f = 0] — the degenerate
    2PC configuration, where the TM's own log is the only replica).  An
    RM's yes vote is a ballot-0 phase-2a message for its own instance,
    sent directly to the acceptors; an instance is chosen once [f+1]
    acceptors have accepted, and the transaction commits iff every
    instance chooses Prepared.

    Recovery: when the current leader is reported failed (or a leader
    lease expires while it is alive), the lowest-numbered live standby
    among TM-and-acceptors opens phase 1 at a higher ballot.  Ballots
    are election epochs ({!Termination.epoch}) from round 1, so
    they are globally unique per site and land in
    [Runtime.result.directive_epochs] for the split-brain oracle.  The
    new leader adopts the highest-ballot accepted value of each
    instance from any [f+1] phase-1b replies and proposes Aborted for
    free instances — the paper-faithful nonblocking guarantee up to [f]
    acceptor failures.

    Produces an ordinary {!Runtime.result}, so every chaos oracle in
    {!Chaos} applies unchanged. *)

type config = {
  n_sites : int;
  f : int;  (** tolerated acceptor failures; acceptor set has [2f+1] sites *)
  votes : (Core.Types.site * Core.Types.vote) list;  (** default: everyone votes yes *)
  plan : Failure_plan.t;
  seed : int;
  tracing : bool;
  until : float;
}

val config :
  ?votes:(Core.Types.site * Core.Types.vote) list ->
  ?plan:Failure_plan.t ->
  ?seed:int ->
  ?tracing:bool ->
  ?until:float ->
  n_sites:int ->
  f:int ->
  unit ->
  config
(** Raises [Invalid_argument] unless [2 <= n_sites] and
    [0 <= f && (f = 0 || 2*f + 1 <= n_sites)]. *)

val acceptors : n_sites:int -> f:int -> Core.Types.site list
(** The acceptor set: [{1}] when [f = 0], else the [2f+1]
    highest-numbered sites. *)

val run : config -> Runtime.result
(** Execute one distributed transaction under Paxos Commit.
    Deterministic in the seed.  Plan clauses honored: step crashes
    (pinned to a site's vote transitions), timed crashes and recoveries,
    acceptor crashes, lease faults, decide crashes (leader crashes after
    [k] Outcome sends), partitions, message faults, disk faults, delay
    spikes, stalls, storms.  Move crashes name a 3PC termination phase that
    does not exist here and are ignored — the CLI rejects them up front
    via {!Failure_plan.unsupported_clauses}. *)

val violations : cfg:config -> Runtime.result -> Chaos.violation list
(** The five {!Chaos} oracles, with one Paxos-specific exemption:
    progress violations are waived when more than [f] acceptors are down
    at the end of the run — beyond the fault model the protocol promises
    liveness for.  Safety oracles apply unconditionally. *)

val sweep_profile : n_sites:int -> f:int -> Sim.Nemesis.profile
(** The default chaos profile for Paxos sweeps: the correctness profile
    plus acceptor crashes (capped at [f]) and lease faults; backup-phase
    crashes (a termination-protocol notion) are off. *)

val target :
  ?profile:Sim.Nemesis.profile ->
  ?until:float ->
  n_sites:int ->
  f:int ->
  unit ->
  (Chaos.run_outcome, Runtime.result) Chaos.target
(** Paxos Commit as a {!Chaos} target: seeds draw from [profile]
    (default {!sweep_profile}) and run under {!violations}; [until]
    defaults to {!Chaos.stall_budget}.  Sweep it with
    {!Chaos.sweep_target}, shrink with {!Chaos.shrink_target}. *)
