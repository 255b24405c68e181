(** One database site: a resource manager (shard) for the keys it owns and
    a transaction manager (coordinator) for the transactions submitted to
    it.  {!Db} wires nodes into a world; this interface exposes the
    handler surface plus the observability counters the harness reads. *)

(** [Paxos f] is Paxos Commit (Gray & Lamport) at the decision level: 2PC
    vote collection, but the outcome is chosen by a majority of the 2f+1
    acceptors (the lowest-numbered sites), so any f acceptor crashes —
    including the coordinator's — leave the decision recoverable. *)
type protocol = Two_phase | Three_phase | Paxos of int

val pp_protocol : Format.formatter -> protocol -> unit
val show_protocol : protocol -> string
val equal_protocol : protocol -> protocol -> bool

(** The protocol engine's commit presumptions
    ({!Engine.Runtime.presumption}), re-exported so both harnesses take
    one lever vocabulary.  On the database the covered outcome is
    forgotten by the coordinator immediately and participants skip its
    final acknowledgement; inquiries are answered by presumption. *)
type presumption = Engine.Runtime.presumption = No_presumption | Presume_abort | Presume_commit

val pp_presumption : Format.formatter -> presumption -> unit
val show_presumption : presumption -> string
val equal_presumption : presumption -> presumption -> bool

(** The protocol engine's termination rules
    ({!Engine.Termination.rule}), re-exported.  How orphaned
    transactions are terminated when their coordinator dies under 3PC:
    [Skeen] decides from the backup's own transaction state (the paper's
    rule — live but partition-unsafe); [Quorum] polls reachable
    participants and applies {!Engine.Termination.quorum} over a majority
    of the [n_sites] sites, with monotone moves (never demoting a
    precommit). *)
type termination = Engine.Runtime.termination_rule = Skeen | Quorum

type p_status = P_working | P_prepared | P_precommitted | P_done of bool

val pp_p_status : Format.formatter -> p_status -> unit
val equal_p_status : p_status -> p_status -> bool

type p_txn = {
  txn : int;
  coordinator : Core.Types.site;
  participants : Core.Types.site list;
  mutable pending_ops : Txn.op list;
  mutable held : (string * Lock_table.mode) list;
  mutable writes : (string * int) list;
  mutable status : p_status;
  mutable blocked_since : float option;  (** prepared with a dead 2PC coordinator *)
}

type c_status = C_collecting | C_precommitting | C_decided of bool

type c_txn = {
  c_id : int;
  mutable c_participants : Core.Types.site list;
  mutable awaiting_votes : Core.Types.site list;
  mutable awaiting_acks : Core.Types.site list;
  mutable c_status : c_status;
  submitted_at : float;
  mutable votes_in_at : float option;  (** when the last vote arrived (phase split) *)
  mutable pax_accepts : Core.Types.site list;
      (** Paxos: acceptors that accepted this coordinator's proposal *)
}

(** A standby acceptor leading Paxos recovery for one transaction. *)
type pax_rec = {
  pr_ballot : int;
  pr_participants : Core.Types.site list;
  mutable pr_promises : (Core.Types.site * (int * bool) option) list;
  mutable pr_accepts : Core.Types.site list;
  mutable pr_phase2 : bool;
  mutable pr_commit : bool;
}

type t = {
  site : Core.Types.site;
  n_sites : int;
  round0 : int;
      (** the ballot this site coordinates under: its round-0 epoch,
          {!Engine.Termination.epoch} [~site (-1)] *)
  protocol : protocol;
  presumption : presumption;
  termination : termination;
  read_only_opt : bool;
  storage : Storage.t;  (** stable: survives crashes *)
  wal : Kv_wal.t;  (** stable: survives crashes *)
  mutable locks : Lock_table.t;  (** volatile *)
  p_txns : (int, p_txn) Hashtbl.t;  (** volatile *)
  c_txns : (int, c_txn) Hashtbl.t;  (** volatile *)
  rounds : (int, Engine.Termination.phase * int) Hashtbl.t;
      (** volatile: the termination round led here, with its epoch *)
  pax_recoveries : (int, pax_rec) Hashtbl.t;  (** volatile: Paxos recovery rounds led here *)
  ro_done : (int, unit) Hashtbl.t;
      (** volatile: read-only participations already completed, so a
          duplicated Prepare cannot re-open them (and then force-log a
          spurious abort on a lock-wait timeout) *)
  sent_yes_txns : (int, unit) Hashtbl.t;
      (** transactions whose yes vote this site put on the wire —
          deliberately sticky across crashes (the world cannot un-see a
          message): the durability oracle compares it against what the
          repaired stable log can justify *)
  announced_outcomes : (int, bool) Hashtbl.t;
      (** outcomes this site actually announced to a peer — sticky for
          the same reason *)
  mutable down_view : Core.Types.site list;
  mutable tainted : Core.Types.site list;
  mutable ever_crashed : bool;
  detector : bool;
      (** failure reports come from the timeout {!Sim.Detector}, not the
          oracle: suspicion is revocable, so sender-taint is no longer a
          sound staleness test — epoch fencing replaces it *)
  fencing : bool;  (** [false]: the split-brain ablation (detector mode) *)
  epoch_seen : (int, int) Hashtbl.t;
      (** per transaction: highest election epoch
          ({!Engine.Termination.epoch}) obeyed (absent = -1).  Not reset
          on restart. *)
  mutable directive_epochs : (int * int) list;
      (** reverse-chronological (txn, epoch) at each termination this
          site led — feed for the split-brain oracle *)
  pipeline_depth : int;
      (** coordinator pipelining bound: admit a new client transaction
          only while fewer than this many WAL forces are in flight.
          Vacuous with synchronous forces (levers off). *)
  admission_q : (Txn.t * float) Queue.t;
      (** volatile: client transactions awaiting admission, with arrival
          times so queueing shows up in commit latency *)
  lock_wait_timeout : float;
  query_rng : Sim.Rng.t;
  mutable query_budget : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deadlock_aborts : int;  (** victims of a detected wait-for cycle *)
  mutable lock_timeouts : int;  (** aborted after waiting [lock_wait_timeout] for a lock *)
  mutable latencies : float list;
  mutable blocked_time : float;  (** cumulative blocked-lock-holding time *)
}

val create :
  ?presumption:presumption ->
  ?termination:termination ->
  ?read_only_opt:bool ->
  ?pipeline_depth:int ->
  ?query_rng:Sim.Rng.t ->
  ?detector:bool ->
  ?fencing:bool ->
  site:Core.Types.site ->
  n_sites:int ->
  protocol:protocol ->
  storage:Storage.t ->
  wal:Kv_wal.t ->
  lock_wait_timeout:float ->
  unit ->
  t

val on_message : t -> Kv_msg.t Sim.World.ctx -> src:Core.Types.site -> Kv_msg.t -> unit
val on_peer_down : t -> Kv_msg.t Sim.World.ctx -> Core.Types.site -> unit
val on_peer_up : t -> Kv_msg.t Sim.World.ctx -> Core.Types.site -> unit

val on_restart : t -> Kv_msg.t Sim.World.ctx -> unit
(** Crash recovery: rebuild volatile state from the stable log,
    re-establishing the locks of in-doubt transactions before accepting
    new work, and resolve them by presumption or inquiry. *)

val install_grant_hook : t -> Kv_msg.t Sim.World.ctx -> unit
(** Wire the lock table's grant callback so parked transactions resume;
    must be called at start and after every restart. *)

val drain_admissions : t -> Kv_msg.t Sim.World.ctx -> unit
(** Admit queued client transactions while the pipelining gate has room;
    wire it as the WAL batcher's [on_drain] hook so completed forces
    refill the pipeline. *)
