(** One database site: a resource manager (shard) for the keys it owns and
    a transaction manager (coordinator) for the transactions submitted to
    it.  The commit path can run as classical central-site 2PC or as the
    paper's nonblocking central-site 3PC; the difference under failures is
    the point of experiment E12.

    Under 2PC, a participant that voted yes and then loses its coordinator
    {e blocks}: it must hold its locks until the coordinator recovers, and
    every transaction that touches those keys queues behind it.  Under
    3PC, the surviving participants elect a backup coordinator which
    runs {!Engine.Termination}'s rounds: move every operational
    participant to its own state, collect acknowledgements, then announce
    the compiled rulebook's verdict on that state (prepared → abort,
    precommitted → commit) — so cascading backup failures stay safe. *)

type protocol = Two_phase | Three_phase | Paxos of int
[@@deriving show { with_path = false }, eq]
(** [Paxos f] is Paxos Commit (Gray & Lamport) at the decision level: the
    coordinator runs 2PC's vote collection, but the commit/abort decision
    is chosen by a Paxos instance over the [2f+1] lowest-numbered sites
    acting as acceptors, so any [f] failures leave a majority that
    remembers it.  A blocked prepared participant does not wait for the
    coordinator to recover (2PC) or elect a backup from its own state
    (3PC): it nudges a standby acceptor, which completes the instance at a
    higher ballot — adopting any accepted outcome, else aborting.
    [Paxos 0] is the degenerate single-acceptor form, behaviourally 2PC
    with the decision forced on the acceptor's log. *)

(* The protocol engine's lever types, re-exported: both harnesses take one
   vocabulary. *)
type presumption = Engine.Runtime.presumption = No_presumption | Presume_abort | Presume_commit
[@@deriving show { with_path = false }, eq]

type termination = Engine.Runtime.termination_rule = Skeen | Quorum

type p_status = P_working | P_prepared | P_precommitted | P_done of bool
[@@deriving show { with_path = false }, eq]

type p_txn = {
  txn : int;
  coordinator : Core.Types.site;
  participants : Core.Types.site list;
  mutable pending_ops : Txn.op list;  (** ops whose locks are not yet held *)
  mutable held : (string * Lock_table.mode) list;
  mutable writes : (string * int) list;
  mutable status : p_status;
  mutable blocked_since : float option;  (** prepared with a dead 2PC coordinator *)
}

type c_status = C_collecting | C_precommitting | C_decided of bool
[@@deriving show { with_path = false }, eq]

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
      (** phase 1b replies: acceptor, highest accepted (ballot, outcome) *)
  mutable pr_accepts : Core.Types.site list;  (** phase 2b replies *)
  mutable pr_phase2 : bool;
  mutable pr_commit : bool;  (** the adopted (or free-instance Abort) value *)
}

type t = {
  site : Core.Types.site;
  n_sites : int;
  round0 : int;  (** the ballot this site coordinates under *)
  protocol : protocol;
  presumption : presumption;
  termination : termination;
  read_only_opt : bool;
      (** participants that only read vote read-only, release their locks
          at once, and drop out of phase 2 *)
  storage : Storage.t;  (** stable: survives crashes *)
  wal : Kv_wal.t;  (** stable: survives crashes *)
  mutable locks : Lock_table.t;  (** volatile *)
  p_txns : (int, p_txn) Hashtbl.t;  (** volatile *)
  c_txns : (int, c_txn) Hashtbl.t;  (** volatile *)
  rounds : (int, Engine.Termination.phase * int) Hashtbl.t;
      (** volatile: the termination round this site leads as backup
          coordinator, with the epoch its directives carry *)
  pax_recoveries : (int, pax_rec) Hashtbl.t;  (** volatile: Paxos recovery rounds led here *)
  ro_done : (int, unit) Hashtbl.t;
      (** volatile: transactions this site completed as a read-only
          participant.  The p_txn is removed at vote time, so without this
          tombstone a duplicated Prepare would re-open the transaction —
          and a lock-wait timeout on the re-opened copy force-logs an
          abort outcome for a transaction the cohort may have committed.
          Volatile is enough: a crash bumps the site's generation, which
          already kills every pre-crash duplicate in flight. *)
  sent_yes_txns : (int, unit) Hashtbl.t;
      (** transactions whose yes vote this site put on the wire —
          deliberately sticky across crashes (the world cannot un-see a
          message): the durability oracle compares it against what the
          repaired stable log can justify *)
  announced_outcomes : (int, bool) Hashtbl.t;
      (** outcomes this site actually announced to a peer — sticky for
          the same reason *)
  mutable down_view : Core.Types.site list;
  mutable tainted : Core.Types.site list;  (** peers known to have crashed this run *)
  mutable ever_crashed : bool;
  detector : bool;
      (** failure reports come from the timeout {!Sim.Detector}, not the
          oracle: suspicion is revocable, so sender-taint is no longer a
          sound staleness test — epoch fencing replaces it *)
  fencing : bool;  (** [false]: the split-brain ablation (detector mode) *)
  epoch_seen : (int, int) Hashtbl.t;
      (** per transaction: highest election epoch
          ({!Engine.Termination.epoch}) obeyed (absent = -1).  Not reset
          on restart: a recovered site keeps fencing stale orders. *)
  mutable directive_epochs : (int * int) list;
      (** reverse-chronological (txn, epoch) at each termination this
          site led — feed for the split-brain oracle *)
  pipeline_depth : int;
      (** coordinator pipelining bound: admit a new client transaction
          only while fewer than this many WAL forces are in flight at
          this site.  Vacuous (always admits) when forces complete
          synchronously — with sync latency or group commit armed it is
          the window of transactions overlapping their commit forces. *)
  admission_q : (Txn.t * float) Queue.t;
      (** volatile: client transactions awaiting admission (with their
          arrival time, so queueing shows up in commit latency) *)
  lock_wait_timeout : float;
  query_rng : Sim.Rng.t;  (** jitter stream for the query backoff *)
  mutable query_budget : int;
  (* observability *)
  mutable committed : int;  (** transactions this site coordinated to commit *)
  mutable aborted : int;
  mutable deadlock_aborts : int;  (** victims of a detected wait-for cycle *)
  mutable lock_timeouts : int;  (** aborted after waiting [lock_wait_timeout] for a lock *)
  mutable latencies : float list;
  mutable blocked_time : float;  (** cumulative blocked-lock-holding time *)
}

(* Outcome queries back off from [query_interval] to [query_backoff_cap]
   (jittered, {!Sim.Backoff}); a site's [query_budget] rounds bound all of
   its in-doubt transactions together. *)
let query_interval = 10.0
let query_backoff_cap = 60.0
let query_budget = 200

let create ?(presumption = No_presumption) ?(termination = Skeen) ?(read_only_opt = false)
    ?(pipeline_depth = 1) ?query_rng ?(detector = false) ?(fencing = true) ~site ~n_sites
    ~protocol ~storage ~wal ~lock_wait_timeout () =
  if pipeline_depth < 1 then invalid_arg "Node.create: pipeline_depth must be >= 1";
  (match protocol with
  | Paxos f when f < 0 -> invalid_arg "Node.create: Paxos f must be >= 0"
  | Paxos f when (2 * f) + 1 > n_sites ->
      invalid_arg
        (Printf.sprintf "Node.create: Paxos f=%d needs 2f+1=%d acceptors but only %d sites" f
           ((2 * f) + 1) n_sites)
  | _ -> ());
  {
    site;
    n_sites;
    round0 = Engine.Termination.epoch ~n_sites ~site (-1);
    protocol;
    presumption;
    termination;
    read_only_opt;
    storage;
    wal;
    locks = Lock_table.create ();
    p_txns = Hashtbl.create 32;
    c_txns = Hashtbl.create 32;
    rounds = Hashtbl.create 8;
    pax_recoveries = Hashtbl.create 8;
    ro_done = Hashtbl.create 8;
    sent_yes_txns = Hashtbl.create 8;
    announced_outcomes = Hashtbl.create 8;
    down_view = [];
    tainted = [];
    ever_crashed = false;
    detector;
    fencing;
    epoch_seen = Hashtbl.create 32;
    directive_epochs = [];
    pipeline_depth;
    admission_q = Queue.create ();
    lock_wait_timeout;
    query_rng =
      (match query_rng with Some r -> r | None -> Sim.Rng.create ~seed:(site * 7919));
    query_budget;
    committed = 0;
    aborted = 0;
    deadlock_aborts = 0;
    lock_timeouts = 0;
    latencies = [];
    blocked_time = 0.0;
  }

(* an outcome is about to leave this site: record it in the sticky
   announcement table the durability oracle checks post-hoc.  [add], not
   [replace]: if a site ever announces both outcomes, both bindings must
   survive so the contradiction cannot mask itself *)
let note_announce node ~txn ~commit =
  if not (List.mem commit (Hashtbl.find_all node.announced_outcomes txn)) then
    Hashtbl.add node.announced_outcomes txn commit

module T = Engine.Termination

(* ---- election epochs (see the [epoch_seen] field doc) ---- *)

let epoch_of node ~txn = Option.value ~default:(-1) (Hashtbl.find_opt node.epoch_seen txn)

let bump_epoch node ~txn e =
  if e > epoch_of node ~txn then Hashtbl.replace node.epoch_seen txn e

(* Claim for [txn] the least epoch of this site's allotment from [round]
   on that is above [above] ({!T.epoch}): obey it, and record it for the
   split-brain oracle. *)
let claim_epoch ?round node ~txn above =
  let e = T.epoch ?round ~n_sites:node.n_sites ~site:node.site above in
  bump_epoch node ~txn e;
  node.directive_epochs <- (txn, e) :: node.directive_epochs;
  e

(* A termination's epoch: in oracle mode plain rank ([site - 1], round 0)
   — a deposed backup is dead there, and rank order is exactly the
   deterministic election; under the detector, above everything this
   site has obeyed for [txn]. *)
let elect_epoch node ~txn = claim_epoch node ~txn (if node.detector then epoch_of node ~txn else -1)

(* ---- Paxos Commit: acceptor set and ballots ---- *)

let pax_f node = match node.protocol with Paxos f -> f | Two_phase | Three_phase -> 0

(* every site can coordinate, so the acceptor set is pinned to the
   2f+1 lowest-numbered sites regardless of which site leads *)
let acceptors node = List.init ((2 * pax_f node) + 1) (fun i -> i + 1)

(* A standby leader's ballot: the epoch encoding from round 1, so it
   always outranks every coordinator's round-0 ballot (site - 1 <= n - 1)
   — that is what obliges it to run phase 1 and adopt any accepted value
   before proposing.  Claiming it makes consecutive ballots from this site
   strictly increase. *)
let pax_elect_ballot node ~txn = claim_epoch ~round:1 node ~txn (epoch_of node ~txn)

let now ctx = Sim.World.now ctx.Sim.World.world
let metrics ctx = Sim.World.metrics ctx.Sim.World.world
let metric ctx l = Sim.Metrics.bump (metrics ctx) l
let observe ctx l v = Sim.Metrics.sample (metrics ctx) l v

let l_lock_waits = Sim.Metrics.label "lock_waits"
let l_lock_timeouts = Sim.Metrics.label "lock_timeouts"
let l_deadlocks = Sim.Metrics.label "deadlocks"
let l_read_only_votes = Sim.Metrics.label "read_only_votes"
let l_duplicate_prepare_ignored = Sim.Metrics.label "duplicate_prepare_ignored"
let l_orphan_prepare_refused = Sim.Metrics.label "orphan_prepare_refused"
let l_refused_participant_down = Sim.Metrics.label "refused_participant_down"
let l_pipeline_queued = Sim.Metrics.label "pipeline_queued"
let l_paxos_recoveries = Sim.Metrics.label "paxos_recoveries"
let l_terminations = Sim.Metrics.label "terminations"
let l_quorum_blocked = Sim.Metrics.label "quorum_blocked"
let l_blocked_paxos = Sim.Metrics.label "blocked_paxos"
let l_blocked_2pc = Sim.Metrics.label "blocked_2pc"
let l_stale_termination_ignored = Sim.Metrics.label "stale_termination_ignored"
let l_epoch_rejected_directives = Sim.Metrics.label "epoch_rejected_directives"
let l_pax_rejected = Sim.Metrics.label "pax_rejected"
let l_kv_blocked_duration = Sim.Metrics.label "kv_blocked_duration"
let l_kv_decision_phase = Sim.Metrics.label "kv_decision_phase"
let l_kv_vote_phase = Sim.Metrics.label "kv_vote_phase"
let l_kv_lock_wait = Sim.Metrics.label "kv_lock_wait"
let l_commit_latency = Sim.Metrics.label "commit_latency"
let l_abort_latency = Sim.Metrics.label "abort_latency"

(* A participant's status as a state code of {!Kv_msg.row}, the form the
   termination rules and messages take. *)
let code_of_status =
  let code id = Option.get (Core.Intern.state_code Kv_msg.rulebook.Engine.Rulebook.codes id) in
  let q = code "q" and w = code "w" and p = code "p" and c = code "c" and a = code "a" in
  function
  | P_working -> q
  | P_prepared -> w
  | P_precommitted -> p
  | P_done commit -> if commit then c else a

(* the buffer state: a move there is 3PC's precommit *)
let precommitted = code_of_status P_precommitted

(* ------------------------------------------------------------------ *)
(* participant (resource manager) side                                 *)
(* ------------------------------------------------------------------ *)

let release node (p : p_txn) =
  Lock_table.release_all node.locks ~txn:p.txn;
  p.held <- []

let buffered_value node (p : p_txn) key =
  match List.assoc_opt key p.writes with
  | Some v -> v
  | None -> Storage.get_or node.storage key ~default:0

let note_unblocked node ctx (p : p_txn) =
  match p.blocked_since with
  | Some t0 ->
      node.blocked_time <- node.blocked_time +. (now ctx -. t0);
      observe ctx l_kv_blocked_duration (now ctx -. t0);
      p.blocked_since <- None
  | None -> ()

(* Local abort before voting: the unilateral abort right.  [notify] sends
   the no vote to the coordinator. *)
let p_abort_unvoted node ctx (p : p_txn) ~notify =
  match p.status with
  | P_working ->
      Sim.Metrics.timer_discard (metrics ctx) l_kv_lock_wait ~key:p.txn;
      (* status flips before the force so the abort cannot re-enter while
         the record is in flight; locks stay held until it is durable *)
      p.status <- P_done false;
      (* forced before the no vote leaves: the vote is this abort's first
         externally visible consequence *)
      Kv_wal.force_k node.wal
        (Kv_wal.P_outcome { txn = p.txn; commit = false })
        (fun () ->
          release node p;
          if notify then
            Sim.World.send ctx ~dst:p.coordinator (Kv_msg.Vote { txn = p.txn; vote = `No }))
  | P_prepared | P_precommitted | P_done _ -> ()

(** Apply and log the outcome.  [announce] runs once the outcome record
    is durable on this log — outward outcome broadcasts (a backup
    coordinator's, a termination's) go through it so no peer can see an
    outcome a crash could still take back. *)
let p_finish ?announce node ctx (p : p_txn) ~commit =
  match p.status with
  | P_done _ -> (
      match announce with Some k -> Kv_wal.after_durable node.wal k | None -> ())
  | P_working | P_prepared | P_precommitted ->
      p.status <- P_done commit;
      if commit then Storage.apply node.storage ~txn:p.txn p.writes;
      Kv_wal.force_k node.wal
        (Kv_wal.P_outcome { txn = p.txn; commit })
        (fun () ->
          (match announce with Some k -> k () | None -> ());
          note_unblocked node ctx p;
          release node p;
          (* the presumed side needs no acknowledgement: the coordinator has
             already forgotten the transaction *)
          let presumed =
            match node.presumption with
            | No_presumption -> false
            | Presume_abort -> not commit
            | Presume_commit -> commit
          in
          if not presumed then Sim.World.send ctx ~dst:p.coordinator (Kv_msg.Done { txn = p.txn }))

(* Continue acquiring locks for p's remaining ops; once all are held, force
   the prepared record and vote yes. *)
let rec p_continue node ctx (p : p_txn) =
  match p.pending_ops with
  | op :: rest -> (
      let key = Txn.key_of_op op and mode = Txn.lock_mode op in
      match Lock_table.acquire node.locks ~txn:p.txn ~key ~mode with
      | Lock_table.Granted ->
          if (not (List.mem_assoc key p.held)) || mode = Lock_table.Exclusive then
            p.held <- (key, mode) :: List.remove_assoc key p.held;
          (match op with
          | Txn.Get _ -> ()
          | Txn.Put (k, v) -> p.writes <- (k, v) :: List.remove_assoc k p.writes
          | Txn.Add (k, d) ->
              let v = buffered_value node p k + d in
              p.writes <- (k, v) :: List.remove_assoc k p.writes);
          p.pending_ops <- rest;
          p_continue node ctx p
      | Lock_table.Waiting ->
          (* Parked; the lock table's grant callback resumes us.  The timer
             bounds the wait: deadlock cycles spanning several sites escape
             the local detector and resolve by timeout. *)
          metric ctx l_lock_waits;
          let txn = p.txn in
          ignore
            (Sim.World.set_timer ctx ~delay:node.lock_wait_timeout (fun () ->
                 match Hashtbl.find_opt node.p_txns txn with
                 | Some p when p.status = P_working && p.pending_ops <> [] ->
                     metric ctx l_lock_timeouts;
                     node.lock_timeouts <- node.lock_timeouts + 1;
                     p_abort_unvoted node ctx p ~notify:true
                 | _ -> ()))
      | Lock_table.Deadlock _cycle ->
          metric ctx l_deadlocks;
          node.deadlock_aborts <- node.deadlock_aborts + 1;
          p_abort_unvoted node ctx p ~notify:true)
  | [] ->
      if p.status = P_working then
        if node.read_only_opt && p.writes = [] then begin
          (* Read-only participant: done at vote time — release the read
             locks and drop out of phase 2 (nothing to log: there is
             nothing to redo or undo here).  Crucially it leaves the
             transaction entirely: were it to stay as a "done" participant
             it could be elected backup coordinator and announce a commit
             outcome it never actually learned. *)
          metric ctx l_read_only_votes;
          Sim.Metrics.timer_stop (metrics ctx) l_kv_lock_wait ~key:p.txn ~at:(now ctx);
          release node p;
          Hashtbl.remove node.p_txns p.txn;
          Hashtbl.replace node.ro_done p.txn ();
          Sim.World.send ctx ~dst:p.coordinator (Kv_msg.Vote { txn = p.txn; vote = `Read_only })
        end
        else begin
          Sim.Metrics.timer_stop (metrics ctx) l_kv_lock_wait ~key:p.txn ~at:(now ctx);
          p.status <- P_prepared;
          (* THE force point of the commit path: the prepared record must
             be stable before the yes vote leaves — a crash between them
             is a different (and correctly handled) state than one after *)
          Kv_wal.force_k node.wal
            (Kv_wal.P_prepared
               {
                 txn = p.txn;
                 coordinator = p.coordinator;
                 participants = p.participants;
                 writes = p.writes;
                 locks = p.held;
               })
            (fun () ->
              Hashtbl.replace node.sent_yes_txns p.txn ();
              Sim.World.send ctx ~dst:p.coordinator (Kv_msg.Vote { txn = p.txn; vote = `Yes }))
        end

let on_prepare node ctx ~src ~txn ~ops ~participants =
  if Hashtbl.mem node.ro_done txn then metric ctx l_duplicate_prepare_ignored
  else if not (Hashtbl.mem node.p_txns txn) then begin
    let p =
      {
        txn;
        coordinator = src;
        participants;
        pending_ops = ops;
        held = [];
        writes = [];
        status = P_working;
        blocked_since = None;
      }
    in
    Hashtbl.replace node.p_txns txn p;
    (* lock-wait phase: from the prepare's arrival to this participant's
       vote (stopped in [p_continue], discarded on unilateral abort) *)
    Sim.Metrics.timer_start (metrics ctx) l_kv_lock_wait ~key:txn ~at:(now ctx);
    if List.mem src node.down_view then begin
      (* A chaos-delayed Prepare can outlive its coordinator.  The
         failure notification for [src] has already fired, so nothing
         will ever re-examine this transaction — voting yes now would
         hold locks for an outcome nobody can announce.  Refuse: abort
         unilaterally and answer no (a dead coordinator drops the vote;
         a falsely-suspected live one aborts the transaction). *)
      metric ctx l_orphan_prepare_refused;
      p_abort_unvoted node ctx p ~notify:true
    end
    else p_continue node ctx p
  end

(* ------------------------------------------------------------------ *)
(* coordinator (transaction manager) side                              *)
(* ------------------------------------------------------------------ *)

let c_announce node ctx (c : c_txn) ~commit =
  match c.c_status with
  | C_decided _ -> ()  (* a pending decision force already owns this transaction *)
  | C_collecting | C_precommitting ->
      c.c_status <- C_decided commit;
      (* forced before the outcome broadcast below *)
      Kv_wal.force_k node.wal
        (Kv_wal.C_decided { txn = c.c_id; commit })
        (fun () ->
          if commit then node.committed <- node.committed + 1
          else node.aborted <- node.aborted + 1;
          node.latencies <- (now ctx -. c.submitted_at) :: node.latencies;
          observe ctx
            (if commit then l_commit_latency else l_abort_latency)
            (now ctx -. c.submitted_at);
          (* decision phase: from the last vote's arrival to the outcome
             broadcast (covers 3PC's precommit round; ~0 under 2PC) *)
          (match c.votes_in_at with
          | Some t0 -> observe ctx l_kv_decision_phase (now ctx -. t0)
          | None -> ());
          if c.c_participants <> [] then note_announce node ~txn:c.c_id ~commit;
          List.iter
            (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Outcome { txn = c.c_id; commit }))
            c.c_participants;
          (* the presumed side is forgotten at once: no acknowledgements
             expected, no retained coordinator state (inquiries are
             answered from the log) *)
          let presumed =
            match node.presumption with
            | No_presumption -> false
            | Presume_abort -> not commit
            | Presume_commit -> commit
          in
          if presumed then begin
            Hashtbl.remove node.c_txns c.c_id;
            Kv_wal.force_k node.wal (Kv_wal.C_finished { txn = c.c_id }) (fun () -> ())
          end)

(* Paxos Commit: all votes were yes — propose Commit to the acceptors at
   the coordinator's round-0 ballot.  The C_precommitted record is forced
   BEFORE the proposal leaves: a coordinator that crashes afterwards must
   classify as in-precommit and query at recovery, never presume abort
   against an outcome a recovery leader may have driven to Commit. *)
(* The accept round retries under [query_budget], like {!query_round}: a
   crashed-and-recovered acceptor (or a dropped 2a/2b) must not strand a
   live coordinator in C_precommitting forever.  Re-sent accepts are
   idempotent at the acceptors; a PaxReject ends the loop by removing the
   c_txn. *)
let rec pax_accept_round node ctx ~txn ~attempt =
  match Hashtbl.find_opt node.c_txns txn with
  | Some c when c.c_status = C_precommitting ->
      let ballot = node.round0 in
      List.iter
        (fun dst ->
          Sim.World.send ctx ~dst
            (Kv_msg.PaxAccept { txn; ballot; commit = true; participants = c.c_participants }))
        (acceptors node);
      if node.query_budget > 0 then begin
        node.query_budget <- node.query_budget - 1;
        let delay =
          Sim.Backoff.delay ~rng:node.query_rng ~interval:query_interval
            ~cap:query_backoff_cap ~attempt
        in
        ignore
          (Sim.World.set_timer ctx ~delay (fun () ->
               pax_accept_round node ctx ~txn ~attempt:(attempt + 1)))
      end
  | _ -> ()

let pax_propose node ctx (c : c_txn) =
  match c.c_status with
  | C_decided _ -> ()
  | C_collecting | C_precommitting ->
      c.c_status <- C_precommitting;
      Kv_wal.force_k node.wal
        (Kv_wal.C_precommitted { txn = c.c_id })
        (fun () ->
          (* the round-0 authority of the epoch encoding *)
          bump_epoch node ~txn:c.c_id node.round0;
          pax_accept_round node ctx ~txn:c.c_id ~attempt:0)

let c_all_votes_in node ctx (c : c_txn) =
  c.votes_in_at <- Some (now ctx);
  (* vote phase: from submission to the last yes vote *)
  observe ctx l_kv_vote_phase (now ctx -. c.submitted_at);
  match node.protocol with
  | Two_phase -> c_announce node ctx c ~commit:true
  | Paxos _ ->
      if c.c_participants = [] then
        (* every participant was read-only: no locks held anywhere, no
           recovery possible — nothing to replicate *)
        c_announce node ctx c ~commit:true
      else pax_propose node ctx c
  | Three_phase ->
      if c.c_participants = [] then
        (* every participant was read-only: nothing to precommit *)
        c_announce node ctx c ~commit:true
      else begin
        (* The buffer phase: log it, then move every participant to
           prepared-to-commit.  A participant that voted yes and has since
           been detected down must be skipped here: it cannot ack, and its
           failure notification already fired (while we were still
           collecting votes), so nothing would ever prune it from the ack
           wait — it learns the outcome at recovery instead. *)
        let up = List.filter (fun s -> not (List.mem s node.down_view)) c.c_participants in
        c.c_status <- C_precommitting;
        c.awaiting_acks <- up;
        (* forced before the precommit round: a recovered coordinator must
           know a backup may have terminated this transaction either way *)
        Kv_wal.force_k node.wal
          (Kv_wal.C_precommitted { txn = c.c_id })
          (fun () ->
            (* the live coordinator's round-0 authority *)
            let epoch = node.round0 in
            bump_epoch node ~txn:c.c_id epoch;
            List.iter
              (fun dst ->
                Sim.World.send ctx ~dst (Kv_msg.Move { txn = c.c_id; target = precommitted; epoch }))
              up;
            if up = [] then c_announce node ctx c ~commit:true)
      end

let on_client_begin ?submitted_at node ctx (txn : Txn.t) =
  let submitted_at = match submitted_at with Some t -> t | None -> now ctx in
  let involved = Txn.participants ~n_sites:node.n_sites txn in
  (* Under the read-only optimization, sites that only read will drop out
     at vote time; they are therefore excluded from the {e termination}
     participant list up front (every site knows the write-participants
     from the Prepare), so no survivor ever waits for a read-only site to
     act as backup coordinator. *)
  let participants =
    if node.read_only_opt then
      List.filter
        (fun s ->
          Txn.ops_for ~n_sites:node.n_sites txn ~site:s
          |> List.exists (function Txn.Put _ | Txn.Add _ -> true | Txn.Get _ -> false))
        involved
    else involved
  in
  if List.exists (fun s -> List.mem s node.down_view) involved then begin
    (* a participant is known to be down: refuse outright (abort without
       engaging the commit protocol) — one sync covers both records *)
    Kv_wal.append node.wal
      (Kv_wal.C_begin { txn = txn.Txn.id; participants; three_phase = node.protocol = Three_phase });
    Kv_wal.force_k node.wal
      (Kv_wal.C_decided { txn = txn.Txn.id; commit = false })
      (fun () ->
        node.aborted <- node.aborted + 1;
        node.latencies <- 0.0 :: node.latencies;
        metric ctx l_refused_participant_down)
  end
  else
  let c =
    {
      c_id = txn.Txn.id;
      c_participants = participants;
      (* every involved site must vote, read-only ones included *)
      awaiting_votes = involved;
      awaiting_acks = [];
      c_status = C_collecting;
      submitted_at;
      votes_in_at = None;
      pax_accepts = [];
    }
  in
  Hashtbl.replace node.c_txns txn.Txn.id c;
  (* forced before the prepares go out *)
  Kv_wal.force_k node.wal
    (Kv_wal.C_begin { txn = txn.Txn.id; participants; three_phase = node.protocol = Three_phase })
    (fun () ->
      List.iter
        (fun dst ->
          Sim.World.send ctx ~dst
            (Kv_msg.Prepare
               {
                 txn = txn.Txn.id;
                 ops = Txn.ops_for ~n_sites:node.n_sites txn ~site:dst;
                 participants;
               }))
        involved)

(* Coordinator pipelining: a client transaction is admitted only while
   fewer than [pipeline_depth] WAL forces are in flight here; the rest
   queue and drain as forces complete (the batcher's on_drain hook).
   Vacuous when forces are synchronous — the gate never sees a pending
   force, so levers-off behaviour is unchanged. *)
let drain_admissions node ctx =
  while
    (not (Queue.is_empty node.admission_q))
    && Kv_wal.pending_forces node.wal < node.pipeline_depth
  do
    let txn, arrived = Queue.pop node.admission_q in
    on_client_begin ~submitted_at:arrived node ctx txn
  done

let admit_client node ctx (txn : Txn.t) =
  if
    Kv_wal.pending_forces node.wal >= node.pipeline_depth
    || not (Queue.is_empty node.admission_q)
  then begin
    metric ctx l_pipeline_queued;
    Queue.push (txn, now ctx) node.admission_q
  end
  else on_client_begin node ctx txn

let status_of node ~txn : bool option =
  (* what this site knows about txn's outcome, from stable state *)
  match Kv_wal.classify_coordinator node.wal ~txn with
  | Kv_wal.C_resolved { commit; _ } -> Some commit
  | _ -> (
      match Kv_wal.classify_participant node.wal ~txn with
      | Kv_wal.P_resolved commit -> Some commit
      | _ -> None)

let on_vote node ctx ~src ~txn ~vote =
  match Hashtbl.find_opt node.c_txns txn with
  | None -> (
      (* The transaction is gone from volatile state (decided and
         forgotten).  A vote can still arrive — a chaos-delayed Prepare
         prepares its participant after the decision — and that
         participant now holds locks awaiting an outcome that was
         announced before it voted.  Answer from the log. *)
      Kv_wal.after_durable node.wal (fun () ->
          match status_of node ~txn with
          | Some commit ->
              note_announce node ~txn ~commit;
              Sim.World.send ctx ~dst:src (Kv_msg.Outcome { txn; commit })
          | None -> ()))
  | Some c -> (
      match c.c_status with
      | C_decided commit ->
          (* late or duplicated vote after the decision: the voter is a
             prepared participant that missed the announcement — repeat it
             (once the decision record is safely on stable storage) *)
          Kv_wal.after_durable node.wal (fun () ->
              note_announce node ~txn ~commit;
              Sim.World.send ctx ~dst:src (Kv_msg.Outcome { txn; commit }))
      | C_precommitting -> ()
      | C_collecting -> (
          match vote with
          | `Yes ->
              c.awaiting_votes <- List.filter (fun s -> s <> src) c.awaiting_votes;
              if c.awaiting_votes = [] then c_all_votes_in node ctx c
          | `Read_only ->
              (* already released and done: no outcome for this site *)
              c.awaiting_votes <- List.filter (fun s -> s <> src) c.awaiting_votes;
              c.c_participants <- List.filter (fun s -> s <> src) c.c_participants;
              if c.awaiting_votes = [] then c_all_votes_in node ctx c
          | `No -> c_announce node ctx c ~commit:false))

(* ------------------------------------------------------------------ *)
(* termination protocol (3PC) and blocking (2PC)                       *)
(* ------------------------------------------------------------------ *)

(* Periodic outcome query for in-doubt transactions: a blocked 2PC
   participant asking its (hopefully recovering) coordinator, or a
   recovered site asking its peers.  Retries back off exponentially
   (capped, jittered — {!Sim.Backoff}) so a long outage is not hammered
   at a fixed rate; [query_budget] stays as the outer bound across all
   of this site's in-doubt transactions. *)
let rec query_round ?(on_round = fun () -> ()) node ctx ~txn ~targets ~attempt =
  let unresolved () =
    match Hashtbl.find_opt node.p_txns txn with
    | Some p -> (match p.status with P_done _ -> false | _ -> true)
    | None -> (
        match Kv_wal.classify_coordinator node.wal ~txn with
        | Kv_wal.C_in_precommit _ -> not (Hashtbl.mem node.c_txns txn)
        | _ -> false)
  in
  if unresolved () && node.query_budget > 0 then begin
    node.query_budget <- node.query_budget - 1;
    on_round ();
    List.iter (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Status_req { txn })) targets;
    let delay =
      Sim.Backoff.delay ~rng:node.query_rng ~interval:query_interval
        ~cap:query_backoff_cap ~attempt
    in
    ignore
      (Sim.World.set_timer ctx ~delay (fun () ->
           query_round ~on_round node ctx ~txn ~targets ~attempt:(attempt + 1)))
  end

let query_loop node ctx ~txn ~targets = query_round node ctx ~txn ~targets ~attempt:0

let elector node =
  { T.self = node.site; crashed = node.ever_crashed; down = node.down_view; tainted = node.tainted }

let reachable_others node (p : p_txn) =
  let e = elector node in
  List.filter (fun s -> s <> node.site && T.trusted e s) p.participants

(* The backup election: lowest operational, never-crashed participant.
   Under the detector taint is hearsay and an all-tainted participant set
   would deadlock the transaction, so it falls back to current suspicion;
   epoch fencing keeps the extra candidates safe. *)
let eligible_backup ?alive node (p : p_txn) =
  T.eligible ?alive ~fallback:node.detector (elector node) p.participants

(* ---- Paxos Commit recovery (the replicated-coordinator path) ---- *)

(* The standby-leader election: lowest operational acceptor.  Taint, this
   site's own crash included, is only a preference: promises are
   WAL-durable ([A_promised]) and directives ballot-fenced, so a recovered
   acceptor leads safely, and a veto would deadlock any schedule that
   touches every acceptor once.  [exclude] skips a site (the still-alive
   coordinator, under a lease fault); 0 excludes nobody. *)
let eligible_acceptor node ~exclude =
  let tainted = if node.ever_crashed then node.site :: node.tainted else node.tainted in
  T.eligible ~fallback:true
    { (elector node) with crashed = false; tainted }
    (List.filter (fun s -> s <> exclude) (acceptors node))

(* A recovery leader's decision: logged coordinator-style (C_begin first,
   so classification and restart re-announcement work), forced before the
   outcome leaves. *)
let pax_leader_decide node ctx ~txn ~participants ~commit =
  (match Kv_wal.classify_coordinator node.wal ~txn with
  | Kv_wal.C_unknown ->
      Kv_wal.append node.wal (Kv_wal.C_begin { txn; participants; three_phase = true })
  | _ -> ());
  Kv_wal.force_k node.wal
    (Kv_wal.C_decided { txn; commit })
    (fun () ->
      if List.exists (fun s -> s <> node.site) participants then note_announce node ~txn ~commit;
      List.iter
        (fun dst -> if dst <> node.site then Sim.World.send ctx ~dst (Kv_msg.Outcome { txn; commit }))
        participants;
      match Hashtbl.find_opt node.p_txns txn with
      | Some p -> p_finish node ctx p ~commit
      | None -> ())

(** Lead Paxos recovery for [txn]: phase 1a at a fresh round->=1 ballot to
    every acceptor; on f+1 promises adopt the highest-ballot accepted
    outcome (a wholly free instance aborts) and run phase 2a.  Answers
    directly when this site's log already resolves the transaction. *)
let start_pax_recovery node ctx ~txn ~participants =
  Kv_wal.after_durable node.wal (fun () ->
      match status_of node ~txn with
      | Some commit ->
          (* already resolved here: re-announce (the asker missed it) *)
          if List.exists (fun s -> s <> node.site) participants then
            note_announce node ~txn ~commit;
          List.iter
            (fun dst ->
              if dst <> node.site then Sim.World.send ctx ~dst (Kv_msg.Outcome { txn; commit }))
            participants;
          (match Hashtbl.find_opt node.p_txns txn with
          | Some p -> p_finish node ctx p ~commit
          | None -> ())
      | None -> (
          match Hashtbl.find_opt node.pax_recoveries txn with
          | Some pr ->
              (* already leading: re-drive the pending phase at the same
                 ballot — the first broadcast may have hit a dead majority
                 and a nudge means someone believes acceptors are back.
                 Re-sent 1a/2a messages are idempotent at the acceptors. *)
              List.iter
                (fun dst ->
                  Sim.World.send ctx ~dst
                    (if pr.pr_phase2 then
                       Kv_msg.PaxAccept
                         {
                           txn;
                           ballot = pr.pr_ballot;
                           commit = pr.pr_commit;
                           participants = pr.pr_participants;
                         }
                     else Kv_msg.PaxP1a { txn; ballot = pr.pr_ballot }))
                (acceptors node)
          | None ->
              metric ctx l_paxos_recoveries;
              let ballot = pax_elect_ballot node ~txn in
              Hashtbl.replace node.pax_recoveries txn
                {
                  pr_ballot = ballot;
                  pr_participants = participants;
                  pr_promises = [];
                  pr_accepts = [];
                  pr_phase2 = false;
                  pr_commit = false;
                };
              List.iter
                (fun dst -> Sim.World.send ctx ~dst (Kv_msg.PaxP1a { txn; ballot }))
                (acceptors node)))

(* A blocked prepared participant under Paxos: nudge a standby acceptor
   into leading recovery, and keep nudging on every query round — the
   first leader may itself die mid-recovery, and re-election is just
   another nudge at whoever is now the lowest live acceptor. *)
let pax_initiate node ctx (p : p_txn) ~exclude =
  if p.blocked_since = None then p.blocked_since <- Some (now ctx);
  let nudge () =
    match eligible_acceptor node ~exclude with
    | Some a when a = node.site ->
        start_pax_recovery node ctx ~txn:p.txn ~participants:p.participants
    | Some a ->
        Sim.World.send ctx ~dst:a (Kv_msg.PaxRecover { txn = p.txn; participants = p.participants })
    | None -> ()
  in
  let targets =
    (p.coordinator :: acceptors node) @ p.participants
    |> List.filter (fun s -> s <> node.site)
    |> List.sort_uniq compare
  in
  nudge ();
  query_round ~on_round:nudge node ctx ~txn:p.txn ~targets ~attempt:0

(* ---- the backup coordinator: Engine.Termination's rounds ---- *)

(* What this site would report of [txn] to a poll, from volatile state
   while it is a participant and from its log after. *)
let local_code node ~txn =
  code_of_status
    (match Hashtbl.find_opt node.p_txns txn with
    | Some p -> p.status
    | None -> (
        match Kv_wal.classify_participant node.wal ~txn with
        | Kv_wal.P_resolved o -> P_done o
        | Kv_wal.P_in_doubt { precommitted; _ } ->
            if precommitted then P_precommitted else P_prepared
        | Kv_wal.P_unknown -> P_working))

let finish_orphan node ctx (p : p_txn) ~commit =
  p_finish node ctx p ~commit ~announce:(fun () ->
      if List.exists (fun dst -> dst <> node.site) p.participants then
        note_announce node ~txn:p.txn ~commit;
      List.iter
        (fun dst ->
          if dst <> node.site then Sim.World.send ctx ~dst (Kv_msg.Outcome { txn = p.txn; commit }))
        p.participants)

(* Send a round's directives, then close it if nothing is awaited. *)
let rec start_round node ctx ~txn ~epoch phase =
  Hashtbl.replace node.rounds txn (phase, epoch);
  (match phase with
  | T.Moving { target; awaiting } ->
      List.iter (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Move { txn; target; epoch })) awaiting
  | T.Polling { awaiting; _ } ->
      List.iter (fun dst -> Sim.World.send ctx ~dst (Kv_msg.PState_req { txn; epoch })) awaiting);
  settle node ctx ~txn

(* Close the round in flight once nothing it awaits is left: phase 1 ends
   in the verdict on the state the backup moved everyone to, a poll in the
   quorum rule's. *)
and settle node ctx ~txn =
  let rb = Kv_msg.rulebook and row = Kv_msg.row in
  match (Hashtbl.find_opt node.rounds txn, Hashtbl.find_opt node.p_txns txn) with
  | Some (T.Moving { target; awaiting }, _), p -> (
      match T.close_phase1 rb ~site:row ~code:target ~awaiting ~failed:(fun _ -> false) with
      | None -> ()
      | Some verdict -> (
          Hashtbl.remove node.rounds txn;
          match (verdict, p) with
          | Engine.Rulebook.Decide o, Some p ->
              finish_orphan node ctx p ~commit:(o = Core.Types.Committed)
          | Engine.Rulebook.Blocked, Some p -> query_loop node ctx ~txn ~targets:p.participants
          | _, None -> ()))
  | Some (T.Polling { awaiting = []; reps }, epoch), Some p -> (
      Hashtbl.remove node.rounds txn;
      let kinds =
        List.map (fun (_, code) -> Core.Intern.kind_of rb.Engine.Rulebook.codes ~site:row ~code) reps
      in
      match T.quorum ~n_sites:node.n_sites ~buffer:rb.Engine.Rulebook.buffer_code.(row - 1) kinds with
      | T.Seen o -> finish_orphan node ctx p ~commit:(o = Core.Types.Committed)
      | T.Unprepared _ -> finish_orphan node ctx p ~commit:false
      | T.Move_up (target, _) ->
          (* move the reachable prepared participants up, then commit *)
          let prepared = code_of_status P_prepared in
          let awaiting =
            List.filter_map (fun (s, c) -> if s <> node.site && c = prepared then Some s else None) reps
          in
          let move_others () = start_round node ctx ~txn ~epoch (T.Moving { target; awaiting }) in
          if p.status = P_prepared then begin
            p.status <- P_precommitted;
            Kv_wal.force_k node.wal (Kv_wal.P_precommitted { txn }) move_others
          end
          else move_others ()
      | T.No_buffer | T.Short _ ->
          (* below quorum either way: wait for recoveries/healing; the query
             loop doubles as the retry channel *)
          metric ctx l_quorum_blocked;
          query_loop node ctx ~txn ~targets:p.participants)
  | _ -> ()

(* A site the round awaits acked, reported, or was reported down. *)
let drop_awaited node ctx ~txn site =
  match Hashtbl.find_opt node.rounds txn with
  | Some (phase, epoch) ->
      Hashtbl.replace node.rounds txn (T.drop phase site, epoch);
      settle node ctx ~txn
  | None -> ()

(** The backup coordinator's action for one orphaned transaction, by
    {!Engine.Termination.open_round} over the participant row of
    {!Kv_msg.rulebook}.  A final backup announces its outcome (phase 1
    omitted).  Under [Skeen] it moves every reachable participant to its
    own state and decides by that state's verdict on the acks; under
    [Quorum] it polls their states for the quorum rule. *)
let run_termination node ctx (p : p_txn) =
  if not (Hashtbl.mem node.rounds p.txn) then begin
    metric ctx l_terminations;
    let others = reachable_others node p in
    let outcome =
      match p.status with
      | P_done commit -> Some (if commit then Core.Types.Committed else Core.Types.Aborted)
      | P_working | P_prepared | P_precommitted -> None
    in
    match
      T.open_round ~row:Kv_msg.row node.termination Kv_msg.rulebook ~site:node.site
        ~code:(code_of_status p.status) ~outcome ~participants:others
    with
    | T.Announce o ->
        (* announce once the outcome record — possibly still in a pending
           batch — is durable *)
        let commit = o = Core.Types.Committed in
        if others <> [] then
          Kv_wal.after_durable node.wal (fun () ->
              note_announce node ~txn:p.txn ~commit;
              List.iter
                (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Outcome { txn = p.txn; commit }))
                others)
    | T.Start phase -> start_round node ctx ~txn:p.txn ~epoch:(elect_epoch node ~txn:p.txn) phase
    | T.Blocked -> query_loop node ctx ~txn:p.txn ~targets:p.participants
  end

(* Called when this site learns that [failed] crashed: handle every
   transaction whose progress depended on it. *)
let on_peer_down node ctx failed =
  let fresh = not (List.mem failed node.tainted) in
  if not (List.mem failed node.down_view) then node.down_view <- failed :: node.down_view;
  if fresh then node.tainted <- failed :: node.tainted;
  (* Coordinator side: a crashed participant means a missing vote (abort),
     a missing precommit ack (skip it), or a missing done (ignore). *)
  Hashtbl.iter
    (fun _ c ->
      if List.mem failed c.c_participants || List.mem failed c.awaiting_votes then
        match (c.c_status, node.protocol) with
        | C_collecting, _ when List.mem failed c.awaiting_votes ->
            c_announce node ctx c ~commit:false
        | C_precommitting, Paxos _ ->
            (* awaiting acceptor majorities, not participant acks: with at
               most f acceptors down the remaining f+1 still answer *)
            ()
        | C_precommitting, _ ->
            c.awaiting_acks <- List.filter (fun s -> s <> failed) c.awaiting_acks;
            if c.awaiting_acks = [] then c_announce node ctx c ~commit:true
        | (C_collecting | C_decided _), _ -> ())
    node.c_txns;
  (* Backup side: rounds awaiting the crashed site, phase 1 moves before
     the participant side and quorum polls after it. *)
  let drop_failed ~moving =
    Hashtbl.iter
      (fun txn (phase, _) ->
        match phase with
        | T.Moving { awaiting; _ } when moving && List.mem failed awaiting ->
            drop_awaited node ctx ~txn failed
        | T.Polling { awaiting; _ } when (not moving) && List.mem failed awaiting ->
            drop_awaited node ctx ~txn failed
        | T.Moving _ | T.Polling _ -> ())
      node.rounds
  in
  drop_failed ~moving:true;
  (* Elect the backup: deterministic given the reliable failure detector.
     A final backup announces its outcome directly (phase 1 omitted). *)
  let elect (p : p_txn) =
    match eligible_backup node p with
    | Some backup when backup = node.site -> run_termination node ctx p
    | Some _ -> ()
    | None ->
        (* every participant crashed at least once: fall back to querying
           (total-failure case) *)
        query_loop node ctx ~txn:p.txn ~targets:p.participants
  in
  (* Participant side: orphaned transactions (their coordinator died), and
     3PC ones whose coordinator was already down when their backup died. *)
  Hashtbl.iter
    (fun _ p ->
      if p.coordinator = failed then
        match p.status with
        | P_working ->
            (* before the vote: unilateral abort, release immediately *)
            p_abort_unvoted node ctx p ~notify:false
        | P_prepared | P_precommitted | P_done _ -> (
            match node.protocol with
            | Paxos _ -> (
                match p.status with
                | P_done _ -> ()
                | _ ->
                    (* the replicated coordinator: no blocking, no local
                       decision rule — a standby acceptor completes the
                       Paxos instance at a higher ballot *)
                    metric ctx l_blocked_paxos;
                    pax_initiate node ctx p ~exclude:0)
            | Two_phase -> (
                match p.status with
                | P_done _ -> ()
                | _ ->
                    (* The blocking case: locks stay held.  Cooperative
                       termination: query the peers too — one of them may
                       have received the outcome before the coordinator
                       died; if none did, we stay blocked until the
                       coordinator recovers. *)
                    metric ctx l_blocked_2pc;
                    if p.blocked_since = None then p.blocked_since <- Some (now ctx);
                    let targets =
                      p.coordinator :: List.filter (fun s -> s <> node.site) p.participants
                      |> List.sort_uniq compare
                    in
                    query_loop node ctx ~txn:p.txn ~targets)
            | Three_phase -> elect p)
      else if
        node.protocol = Three_phase && fresh
        && (p.status = P_prepared || p.status = P_precommitted)
        && List.mem p.coordinator node.down_view
        && eligible_backup ~alive:failed node p = Some failed
      then elect p)
    node.p_txns;
  drop_failed ~moving:false

let on_peer_up node ctx recovered =
  node.down_view <- List.filter (fun s -> s <> recovered) node.down_view;
  (* a recovered acceptor may have restored the Paxos majority: re-nudge
     recovery for every transaction still blocked here (the parked
     leader re-drives its pending phase on the nudge) *)
  (match node.protocol with
  | Paxos _ ->
      Hashtbl.iter
        (fun _ (p : p_txn) ->
          match p.status with
          | (P_prepared | P_precommitted) when p.blocked_since <> None -> (
              match eligible_acceptor node ~exclude:0 with
              | Some a when a = node.site ->
                  start_pax_recovery node ctx ~txn:p.txn ~participants:p.participants
              | Some a ->
                  Sim.World.send ctx ~dst:a
                    (Kv_msg.PaxRecover { txn = p.txn; participants = p.participants })
              | None -> ())
          | _ -> ())
        node.p_txns
  | Two_phase | Three_phase -> ());
  (* under quorum termination a healed partition may have restored the
     quorum: re-poll every still-orphaned transaction *)
  match node.termination with
  | Quorum ->
      Hashtbl.iter
        (fun _ (p : p_txn) ->
          match p.status with
          | (P_prepared | P_precommitted) when List.mem p.coordinator node.tainted -> (
              match (Hashtbl.find_opt node.rounds p.txn, eligible_backup node p) with
              | Some (T.Moving _, _), _ -> ()
              | _, Some backup when backup = node.site ->
                  Hashtbl.remove node.rounds p.txn;
                  run_termination node ctx p
              | _ -> ())
          | _ -> ())
        node.p_txns
  | Skeen -> ()

(* ------------------------------------------------------------------ *)
(* recovery                                                             *)
(* ------------------------------------------------------------------ *)

(** Crash recovery: rebuild volatile state from the stable log.

    Participant transactions: in-doubt entries re-establish their locks
    before any new work is accepted, then query the coordinator for the
    outcome; unlogged transactions aborted implicitly (before the commit
    point).  Coordinated transactions: decided-but-unfinished outcomes are
    re-announced; undecided 2PC/collecting-state transactions are aborted
    (presumed abort — no participant can have learned an outcome); a 3PC
    transaction that had reached its buffer phase may have been terminated
    either way by a backup, so the recovered coordinator must ask. *)
let on_restart node ctx =
  node.ever_crashed <- true;
  node.locks <- Lock_table.create ();
  Queue.clear node.admission_q;
  Hashtbl.reset node.p_txns;
  Hashtbl.reset node.c_txns;
  Hashtbl.reset node.rounds;
  Hashtbl.reset node.pax_recoveries;
  Hashtbl.reset node.ro_done;
  (* participant side *)
  List.iter
    (fun txn ->
      match Kv_wal.classify_participant node.wal ~txn with
      | Kv_wal.P_unknown | Kv_wal.P_resolved _ -> ()
      | Kv_wal.P_in_doubt { coordinator; participants; writes; locks; precommitted } ->
          List.iter
            (fun (key, mode) -> Lock_table.force_grant node.locks ~txn ~key ~mode)
            locks;
          let p =
            {
              txn;
              coordinator;
              participants;
              pending_ops = [];
              held = locks;
              writes;
              status = (if precommitted then P_precommitted else P_prepared);
              blocked_since = None;
            }
          in
          Hashtbl.replace node.p_txns txn p)
    (Kv_wal.participated_txns node.wal);
  (* coordinator side *)
  List.iter
    (fun txn ->
      match Kv_wal.classify_coordinator node.wal ~txn with
      | Kv_wal.C_unknown -> ()
      | Kv_wal.C_resolved { finished = true; _ } -> ()
      | Kv_wal.C_resolved { participants; commit; finished = false } ->
          if participants <> [] then note_announce node ~txn ~commit;
          List.iter
            (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Outcome { txn; commit }))
            participants
      | Kv_wal.C_collecting { participants; _ } ->
          (* presumed abort: no outcome can have been announced *)
          Kv_wal.force_k node.wal
            (Kv_wal.C_decided { txn; commit = false })
            (fun () ->
              node.aborted <- node.aborted + 1;
              if participants <> [] then note_announce node ~txn ~commit:false;
              List.iter
                (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Outcome { txn; commit = false }))
                participants)
      | Kv_wal.C_in_precommit { participants } -> (
          (* a backup may have committed or aborted it: ask.  Under Paxos
             the decision may also never have been chosen at all (the
             accept round died with this coordinator), so asking is not
             enough — keep nudging a standby acceptor into completing
             the instance. *)
          let targets = List.filter (fun s -> s <> node.site) participants in
          match node.protocol with
          | Paxos _ ->
              let nudge () =
                match eligible_acceptor node ~exclude:0 with
                | Some a when a = node.site -> start_pax_recovery node ctx ~txn ~participants
                | Some a ->
                    Sim.World.send ctx ~dst:a (Kv_msg.PaxRecover { txn; participants })
                | None -> ()
              in
              nudge ();
              query_round ~on_round:nudge node ctx ~txn ~targets ~attempt:0
          | Two_phase | Three_phase -> query_loop node ctx ~txn ~targets))
    (Kv_wal.coordinated_txns node.wal);
  (* the in-doubt participant entries: ask around (under Paxos, also
     nudge recovery — the coordinator may be dead with nobody leading) *)
  Hashtbl.iter
    (fun txn (p : p_txn) ->
      match p.status with
      | P_prepared | P_precommitted -> (
          match node.protocol with
          | Paxos _ -> pax_initiate node ctx p ~exclude:0
          | Two_phase | Three_phase ->
              let everyone =
                List.filter (fun s -> s <> node.site) (List.init node.n_sites (fun i -> i + 1))
              in
              query_loop node ctx ~txn ~targets:everyone)
      | P_working | P_done _ -> ())
    node.p_txns

(* ------------------------------------------------------------------ *)
(* message dispatch                                                     *)
(* ------------------------------------------------------------------ *)

(* A state move is stale when its issuer no longer owns the transaction.
   Under the oracle that is sender-identity: a directive from a crashed
   site was in flight when the sender died, and the live backup now owns
   the transaction's state — adopting it could re-promote a participant
   the backup demoted.  Under the detector the sender may be alive and
   merely deposed, so identity is not enough: the directive's election
   epoch must be no older than the newest this participant has obeyed. *)
let stale_directive node ~src ~txn ~epoch =
  if node.detector then node.fencing && epoch < epoch_of node ~txn
  else List.mem src node.tainted

let fence_directive node ctx ~src ~txn =
  metric ctx l_stale_termination_ignored;
  if node.detector then begin
    metric ctx l_epoch_rejected_directives;
    (* tell the deposed backup so it stands down instead of retrying *)
    Sim.World.send ctx ~dst:src (Kv_msg.Epoch_reject { txn; epoch = epoch_of node ~txn })
  end

let on_message node ctx ~src (msg : Kv_msg.t) =
  match msg with
  | Kv_msg.Client_begin txn -> admit_client node ctx txn
  | Kv_msg.Prepare { txn; ops; participants } -> on_prepare node ctx ~src ~txn ~ops ~participants
  | Kv_msg.Vote { txn; vote } -> on_vote node ctx ~src ~txn ~vote
  | Kv_msg.Move { txn; epoch; _ } when stale_directive node ~src ~txn ~epoch ->
      fence_directive node ctx ~src ~txn
  | Kv_msg.Move { txn; target; epoch } -> (
      bump_epoch node ~txn epoch;
      let ack () = Sim.World.send ctx ~dst:src (Kv_msg.Move_ack { txn; target }) in
      match Hashtbl.find_opt node.p_txns txn with
      | Some p when target = precommitted -> (
          (* the buffer phase, or termination phase 1 on the commit side *)
          match p.status with
          | P_prepared ->
              p.status <- P_precommitted;
              (* forced before the ack: a recovered backup must find the
                 buffer state it was told about *)
              Kv_wal.force_k node.wal (Kv_wal.P_precommitted { txn }) ack
          | P_precommitted | P_done true ->
              (* duplicate: the ack must still not outrun the record it
                 vouches for (it may sit in a pending batch) *)
              Kv_wal.after_durable node.wal ack
          | P_working | P_done false -> ())
      | Some p -> (
          (* termination phase 1, abort side: move down to prepared,
             surrendering a precommit if we held one *)
          match p.status with
          | P_precommitted ->
              p.status <- P_prepared;
              ack ()
          | P_working | P_prepared | P_done false -> ack ()
          | P_done true -> ())
      | None -> if target <> precommitted then ack ())
  | Kv_msg.Move_ack { txn; target } -> (
      (* the coordinator collecting its precommit acks, or a backup
         coordinator in termination phase 1 *)
      (match Hashtbl.find_opt node.c_txns txn with
      | Some c when c.c_status = C_precommitting && target = precommitted ->
          c.awaiting_acks <- List.filter (fun s -> s <> src) c.awaiting_acks;
          if c.awaiting_acks = [] then c_announce node ctx c ~commit:true
      | Some _ | None -> ());
      match Hashtbl.find_opt node.rounds txn with
      | Some (T.Moving m, _) when m.target = target -> drop_awaited node ctx ~txn src
      | Some _ | None -> ())
  | Kv_msg.Outcome { txn; commit } -> (
      match Hashtbl.find_opt node.p_txns txn with
      | Some p -> p_finish node ctx p ~commit
      | None ->
          (* nothing prepared here (e.g. recovered before voting): a commit
             outcome is impossible without our yes vote *)
          ())
  | Kv_msg.Done { txn } -> (
      match Hashtbl.find_opt node.c_txns txn with
      | Some c -> (
          match c.c_status with
          | C_decided _ ->
              (* removed before the force so a second Done cannot log a
                 duplicate record while this one is in flight.  Forced not
                 for safety (losing it only causes idempotent outcome
                 re-sends at recovery) but for determinism: the durable
                 image must equal the volatile log at every crash point,
                 so fault-free runs replay byte-identically *)
              Hashtbl.remove node.c_txns txn;
              Kv_wal.force_k node.wal (Kv_wal.C_finished { txn }) (fun () -> ())
          | C_collecting | C_precommitting -> ())
      | None -> ())
  | Kv_msg.Status_req { txn } ->
      (* answered from stable state, once pending forces have landed: a
         decision sitting in an open batch must not be exposed before a
         crash can no longer take it back *)
      Kv_wal.after_durable node.wal (fun () ->
          let outcome = status_of node ~txn in
          (match outcome with Some commit -> note_announce node ~txn ~commit | None -> ());
          Sim.World.send ctx ~dst:src (Kv_msg.Status_rep { txn; outcome }))
  | Kv_msg.PState_req { txn; epoch }
    when node.detector && node.fencing && epoch < epoch_of node ~txn ->
      (* a poll is read-only, so it was never identity-checked under the
         oracle; in detector mode fencing it stops a deposed backup from
         gathering a quorum it would then act on *)
      fence_directive node ctx ~src ~txn
  | Kv_msg.PState_req { txn; epoch } ->
      if node.detector then bump_epoch node ~txn epoch;
      (* the reply feeds a quorum count: a volatile precommit whose record
         is still in a pending batch must not be reported until it is
         durable, or a crash could shrink a counted commit quorum *)
      Kv_wal.after_durable node.wal (fun () ->
          Sim.World.send ctx ~dst:src (Kv_msg.PState_rep { txn; state = local_code node ~txn }))
  | Kv_msg.Heartbeat -> ()
  | Kv_msg.Epoch_reject { txn; epoch } ->
      (* a participant refused our directive: a newer backup owns this
         transaction.  Stand down without deciding — abandon the
         termination attempt and fall back to querying for the outcome. *)
      bump_epoch node ~txn epoch;
      if Hashtbl.mem node.rounds txn then begin
        Hashtbl.remove node.rounds txn;
        match Hashtbl.find_opt node.p_txns txn with
        | Some p -> query_loop node ctx ~txn ~targets:(reachable_others node p)
        | None -> ()
      end
  | Kv_msg.PState_rep { txn; state } -> (
      match Hashtbl.find_opt node.rounds txn with
      | Some ((T.Polling { awaiting; _ } as poll), epoch) when List.mem src awaiting ->
          Hashtbl.replace node.rounds txn (T.report poll src state, epoch);
          settle node ctx ~txn
      | _ -> ())
  | Kv_msg.PaxAccept { txn; ballot; commit; participants = _ } ->
      (* acceptor, phase 2a: accept unless a higher ballot was promised;
         the accepted record is forced before the reply leaves — it IS
         the replicated decision state a recovering leader rebuilds from *)
      let promised, _ = Kv_wal.acceptor_state node.wal ~txn in
      if ballot < promised then
        Kv_wal.after_durable node.wal (fun () ->
            Sim.World.send ctx ~dst:src (Kv_msg.PaxReject { txn; ballot = promised }))
      else begin
        bump_epoch node ~txn ballot;
        Kv_wal.force_k node.wal
          (Kv_wal.A_accepted { txn; ballot; commit })
          (fun () -> Sim.World.send ctx ~dst:src (Kv_msg.PaxAccepted { txn; ballot; commit }))
      end
  | Kv_msg.PaxP1a { txn; ballot } ->
      (* acceptor, phase 1a: promise (forced) and report the highest
         accepted outcome so the new leader adopts it *)
      let promised, accepted = Kv_wal.acceptor_state node.wal ~txn in
      if ballot < promised then
        Kv_wal.after_durable node.wal (fun () ->
            Sim.World.send ctx ~dst:src (Kv_msg.PaxReject { txn; ballot = promised }))
      else begin
        bump_epoch node ~txn ballot;
        Kv_wal.force_k node.wal
          (Kv_wal.A_promised { txn; ballot })
          (fun () -> Sim.World.send ctx ~dst:src (Kv_msg.PaxP1b { txn; ballot; accepted }))
      end
  | Kv_msg.PaxP1b { txn; ballot; accepted } -> (
      (* recovery leader: count promises; at f+1, adopt and propose *)
      match Hashtbl.find_opt node.pax_recoveries txn with
      | Some pr when (not pr.pr_phase2) && ballot = pr.pr_ballot ->
          if not (List.mem_assoc src pr.pr_promises) then
            pr.pr_promises <- (src, accepted) :: pr.pr_promises;
          if List.length pr.pr_promises >= pax_f node + 1 then begin
            pr.pr_phase2 <- true;
            let adopted =
              List.fold_left
                (fun acc (_, a) ->
                  match (acc, a) with
                  | None, a -> a
                  | Some (b, _), Some (b', _) when b' > b -> a
                  | acc, _ -> acc)
                None pr.pr_promises
            in
            (* a wholly free instance is decided Abort: nothing was ever
               proposed, so nobody can have released locks on a commit *)
            pr.pr_commit <- (match adopted with Some (_, c) -> c | None -> false);
            List.iter
              (fun dst ->
                Sim.World.send ctx ~dst
                  (Kv_msg.PaxAccept
                     {
                       txn;
                       ballot = pr.pr_ballot;
                       commit = pr.pr_commit;
                       participants = pr.pr_participants;
                     }))
              (acceptors node)
          end
      | _ -> ())
  | Kv_msg.PaxAccepted { txn; ballot; commit } -> (
      (* the round-0 coordinator collecting its own proposal *)
      (match Hashtbl.find_opt node.c_txns txn with
      | Some c when c.c_status = C_precommitting && ballot = node.round0 ->
          if not (List.mem src c.pax_accepts) then c.pax_accepts <- src :: c.pax_accepts;
          if List.length c.pax_accepts >= pax_f node + 1 then c_announce node ctx c ~commit
      | _ -> ());
      (* a recovery leader collecting phase 2b *)
      match Hashtbl.find_opt node.pax_recoveries txn with
      | Some pr when pr.pr_phase2 && ballot = pr.pr_ballot ->
          if not (List.mem src pr.pr_accepts) then pr.pr_accepts <- src :: pr.pr_accepts;
          if List.length pr.pr_accepts >= pax_f node + 1 then begin
            Hashtbl.remove node.pax_recoveries txn;
            pax_leader_decide node ctx ~txn ~participants:pr.pr_participants ~commit:pr.pr_commit
          end
      | _ -> ())
  | Kv_msg.PaxReject { txn; ballot } ->
      (* deposed: a higher-ballot leader owns the instance.  Stand down
         without deciding and fall back to querying for the outcome. *)
      bump_epoch node ~txn ballot;
      metric ctx l_pax_rejected;
      (match Hashtbl.find_opt node.c_txns txn with
      | Some c when c.c_status = C_precommitting ->
          Hashtbl.remove node.c_txns txn;
          query_loop node ctx ~txn
            ~targets:(List.filter (fun s -> s <> node.site) c.c_participants)
      | _ -> ());
      if Hashtbl.mem node.pax_recoveries txn then begin
        Hashtbl.remove node.pax_recoveries txn;
        match Hashtbl.find_opt node.p_txns txn with
        | Some p -> query_loop node ctx ~txn ~targets:(reachable_others node p)
        | None -> ()
      end
  | Kv_msg.PaxRecover { txn; participants } -> (
      match node.protocol with
      | Paxos _ -> start_pax_recovery node ctx ~txn ~participants
      | Two_phase | Three_phase -> ())
  | Kv_msg.Lease_expire -> (
      (* injected lease fault: act as if every coordinator lease lapsed —
         push recovery of each in-doubt transaction to a standby acceptor
         that is NOT its (possibly live) coordinator.  Ballot fencing
         keeps the race between the deposed-but-alive coordinator and the
         new leader safe; the run stays a liveness/split-brain probe. *)
      match node.protocol with
      | Paxos _ ->
          Hashtbl.iter
            (fun _ (p : p_txn) ->
              match p.status with
              | P_prepared | P_precommitted ->
                  (* the full initiation loop, not a one-shot nudge: the
                     elected standby may itself die mid-recovery, and only
                     the re-nudge cadence fails over to the next acceptor *)
                  pax_initiate node ctx p ~exclude:p.coordinator
              | P_working | P_done _ -> ())
            node.p_txns
      | Two_phase | Three_phase -> ())
  | Kv_msg.Status_rep { txn; outcome } -> (
      match outcome with
      | None -> ()
      | Some commit -> (
          (match Hashtbl.find_opt node.p_txns txn with
          | Some p -> p_finish node ctx p ~commit
          | None -> ());
          match Kv_wal.classify_coordinator node.wal ~txn with
          | Kv_wal.C_in_precommit { participants } when not (Hashtbl.mem node.c_txns txn) ->
              Kv_wal.force_k node.wal
                (Kv_wal.C_decided { txn; commit })
                (fun () ->
                  if commit then node.committed <- node.committed + 1
                  else node.aborted <- node.aborted + 1;
                  if participants <> [] then note_announce node ~txn ~commit;
                  List.iter
                    (fun dst -> Sim.World.send ctx ~dst (Kv_msg.Outcome { txn; commit }))
                    participants)
          | _ -> ()))

(* wire the lock table's grant callback so parked transactions resume *)
let install_grant_hook node ctx =
  Lock_table.on_grant node.locks (fun txn ->
      match Hashtbl.find_opt node.p_txns txn with
      | Some p when p.status = P_working -> p_continue node ctx p
      | _ -> ())
