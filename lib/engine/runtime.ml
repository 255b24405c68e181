(** The protocol runtime: executes any catalog {!Core.Protocol.t} on the
    simulator, one interpreter per site over the {!Rulebook}'s int-coded
    tables (state names appear only where a run meets the outside: log
    records, termination messages, reports and traces), together with the
    paper's termination and recovery protocols.

    Division of labour: every rule a backup coordinator or a directed
    site follows is a {!Termination} call, and every safety decision comes
    from the {!Rulebook} compiled from the protocol's reachable state
    graph.  The runtime keeps the I/O around them: sends with backup-crash
    injection, WAL forces, trace lines, timers, metrics, and the
    detector-only campaign, epoch rejects and thaw.

    Election: the paper admits "any distributed election mechanism".  We
    use {!Termination.eligible}, the deterministic rule induced by the
    reliable failure detector the paper assumes: the backup coordinator is
    the operational, non-read-only site with the smallest id that has not
    previously crashed during this transaction (a recovered site runs the
    recovery protocol instead of competing for leadership).  Under the
    timeout detector the rule falls back to suspicion alone when every
    site is tainted, and the candidate campaigns before it leads.
    Cascading failures re-run the election automatically. *)

type mode =
  | Normal  (** executing the commit protocol FSA *)
  | Backup of Termination.phase
      (** backup coordinator: phase 1's moves, or a quorum poll, in flight *)
  | Stalled
      (** cannot make progress alone (blocked state, or recovered with a
          yes vote on the log): periodically queries for the outcome *)

(** How a backup coordinator decides: {!Termination.rule}. *)
type termination_rule = Termination.rule = Skeen | Quorum

(** The classic commit-protocol presumptions, promoted from the database
    layer: the covered outcome's [Decided] record is appended but not
    forced — its durability rides the next sync (or is lost with the
    crash, which the presumption makes reconstructible).  Scoped to the
    force-vs-append of [Decided] records only: answering inquiries by
    presumption is unsound in this single-transaction model (a site that
    has not yet voted is indistinguishable from one that forgot a covered
    outcome, and the cohort may still commit). *)
type presumption = No_presumption | Presume_abort | Presume_commit

type site_rt = {
  site : Core.Types.site;
  wal : Wal.t;
  mutable state : int;  (** the local state's code in the rulebook's tables *)
  inbox : int array;
      (** protocol messages delivered and not yet consumed: a count per
          message code divided by [n + 1] (name and sender; the
          destination is this site) *)
  mutable steps : int;  (** FSA transitions fired by this incarnation chain *)
  mutable outcome : Core.Types.outcome option;
  mutable ever_crashed : bool;
  mutable mode : mode;
  mutable query_attempts : int;
      (** consecutive outcome queries sent since the last reset; drives
          the exponential backoff *)
  mutable down_view : Core.Types.site list;  (** failure-detector reports *)
  mutable tainted_view : Core.Types.site list;  (** sites known to have crashed at least once *)
  mutable decided_at : float option;
  mutable epoch_seen : int;
      (** highest election epoch ({!Termination.epoch}) this site has
          obeyed (-1 before any).  A directive below it is a stale order
          from a deposed backup and must be ignored — otherwise it can
          re-move a participant out of the state the current backup put
          it in (the model checker found exactly that split-brain at n=4
          with three cascading crashes). *)
  mutable campaigning : bool;
      (** detector mode: this site has broadcast [Elect] and is waiting
          for a better-ranked site to object before leading *)
  mutable lead_epoch : int;
      (** the epoch this site last assumed leadership at — [site - 1],
          its rank, until it first leads.  Stamped on every directive it
          issues. *)
  mutable impaired : bool;
      (** a site failure has been detected: the commit protocol proper is
          over and only the termination/recovery protocols may change this
          site's state.  Without this freeze a stale in-flight protocol
          message (e.g. a delayed [prepare]) could move a participant out
          of the state the backup's phase 1 put it in, and a later backup
          would decide from the drifted state — the model checker found
          exactly that split-brain on central 3PC with two crashes. *)
  mutable sent_yes : bool;
      (** this site put a message of a yes-vote transition on the wire.
          Deliberately volatile-but-sticky (it survives crashes, unlike
          the log): the durability oracle compares what the world could
          observe against what the durable log can justify. *)
  mutable announced : Core.Types.outcome option;
      (** an outcome this site actually announced to a peer (a [Decide],
          an [Outcome_reply], a final transition's messages) — sticky for
          the same reason as [sent_yes]. *)
  mutable firing : bool;
      (** a transition's force is in flight (group commit / sync
          latency): no further transition may fire until its continuation
          runs.  Always false on the synchronous fast path. *)
}

type config = {
  rulebook : Rulebook.t;
  votes : (Core.Types.site * Core.Types.vote) list;  (** default: everyone votes yes *)
  plan : Failure_plan.t;
  seed : int;
  tracing : bool;
  until : float;
  termination : termination_rule;
  presumption : presumption;
      (** append rather than force the covered outcome's [Decided]
          record; see {!presumption} for the (narrow) scope *)
  read_only : Core.Types.site list;
      (** read-only participants: run the FSA normally (votes and acks
          still flow) but never sync — they hold no data whose durability
          matters — and are excluded from backup leadership, termination
          moves and quorum counts (a volatile prepared state must not
          widen a commit quorum).  They still learn outcomes in phase 2
          broadcasts. *)
  group_commit : Wal.group_commit option;
      (** coalesce concurrent WAL forces into shared syncs — API parity
          with the database layer; with one transaction a site has at
          most one force in flight, so batches are size 1 and this is a
          correctness lever here, not a throughput one *)
  sync_latency : float;
      (** simulated seconds per WAL sync (0.0: synchronous forces,
          byte-identical replay of every prior run) *)
  durable_wal : bool;  (** [false]: the PR 3 in-memory log (bench baseline) *)
  late_force : bool;
      (** deliberately mis-place the transition force point: append, send
          the transition's messages, and only then sync.  A test-only
          ablation — the durability oracle must catch it. *)
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
      (** [false]: accept every directive regardless of epoch — the
          ablation that must reproduce a split-brain, mirroring
          [late_force].  Default [true]. *)
}

(* Outcome queries back off from [query_interval] to [query_backoff_cap]
   (jittered, {!Sim.Backoff}).  They retry for as long as the site is
   undecided — the run's [until] horizon bounds them, not a counter; a
   fixed budget made liveness depend on how long a peer stayed
   unreachable. *)
let query_interval = 5.0
let query_backoff_cap = 45.0

let config ?(votes = []) ?(plan = Failure_plan.none) ?(seed = 1) ?(tracing = false)
    ?(until = 10_000.0)
    ?(termination = Skeen) ?(presumption = No_presumption) ?(read_only = []) ?group_commit
    ?(sync_latency = 0.0) ?(durable_wal = true) ?(late_force = false) ?(detector = false)
    ?(heartbeat_period = 1.0) ?(suspicion_timeout = 5.0) ?(election_timeout = 4.0)
    ?(fencing = true) rulebook =
  if not (Float.is_finite sync_latency && sync_latency >= 0.0) then
    invalid_arg "Runtime.config: sync_latency must be finite and >= 0";
  {
    rulebook;
    votes;
    plan;
    seed;
    tracing;
    until;
    termination;
    presumption;
    read_only;
    group_commit;
    sync_latency;
    durable_wal;
    late_force;
    detector;
    heartbeat_period;
    suspicion_timeout;
    election_timeout;
    fencing;
  }

type site_report = {
  site : Core.Types.site;
  outcome : Core.Types.outcome option;
  wal_outcome : Core.Types.outcome option;
      (** the decision forced to this site's stable log — a [Decided]
          record, or a final state the log reached before a crash cut the
          announcements short.  A crashed site is judged by this, not by
          its (lost) volatile [outcome]. *)
  final_state : string;
  operational : bool;  (** alive when the run ended *)
  ever_crashed : bool;
  decided_at : float option;
  sent_yes : bool;  (** a yes-vote transition's message reached the wire *)
  announced : Core.Types.outcome option;  (** an outcome this site announced to a peer *)
}

type result = {
  reports : site_report list;
  messages_sent : int;
  messages_delivered : int;
  duration : float;  (** latest decision time among sites that decided *)
  global_outcome : Core.Types.outcome option;
  consistent : bool;  (** no mix of commit and abort across all logs *)
  blocked_operational : int;
      (** operational never-crashed sites that ended undecided — nonzero
          only for blocking protocols (or total-failure scenarios) *)
  all_operational_decided : bool;
  store : Wal.Store.t;  (** every site's stable log, for post-hoc oracles *)
  directive_epochs : (Core.Types.site * int) list;
      (** every leadership assumption of the run, in order: (site, epoch)
          at the moment the site began issuing directives.  The
          split-brain oracle checks that no epoch is shared by two
          distinct sites. *)
  trace : Sim.World.trace_entry list;
  run_metrics : Sim.Metrics.t;
}

module I = Core.Intern

let l_wal_appends = Sim.Metrics.label "wal_appends"
let l_termination_queries = Sim.Metrics.label "termination_queries"
let l_elections = Sim.Metrics.label "elections"
let l_termination_rounds = Sim.Metrics.label "termination_rounds"
let l_elections_started = Sim.Metrics.label "elections_started"
let l_epoch_rejected_directives = Sim.Metrics.label "epoch_rejected_directives"
let l_recoveries_processed = Sim.Metrics.label "recoveries_processed"
let l_decision_latency = Sim.Metrics.label "decision_latency"
let l_messages_to_decision = Sim.Metrics.label "messages_to_decision"
let l_messages_sent = Sim.Metrics.label "messages_sent"
let l_messages_delivered = Sim.Metrics.label "messages_delivered"

let site_has_veto (a : Core.Automaton.t) =
  List.exists
    (fun (tr : Core.Automaton.transition) -> tr.Core.Automaton.vote = Some Core.Types.No)
    a.Core.Automaton.transitions

(** The full engine for one transaction execution. *)
module Exec = struct
  type t = {
    cfg : config;
    protocol : Core.Protocol.t;
    codes : I.t;  (** [cfg.rulebook.codes] *)
    votes : Core.Types.vote array;  (** site-1 -> planned vote (default yes) *)
    world : Msg.t Sim.World.t;
    store : Wal.Store.t;
    rts : site_rt array;
    query_rng : Sim.Rng.t;
        (** jitter for the query backoff — its own stream, so query
            timing never perturbs the network latency draws *)
    mutable detector : Msg.t Sim.Detector.t option;
        (** detector mode only; wired in [run] once the world exists *)
    mutable directive_epochs : (Core.Types.site * int) list;
        (** reverse-chronological (site, epoch) of every leadership
            assumption — the split-brain oracle's feed *)
  }

  let rt t site = t.rts.(site - 1)

  let record t fmt = Sim.World.record t.world fmt

  let state_name t code = I.state_name t.codes code

  let state_code t name =
    match I.state_code t.codes name with
    | Some code -> code
    | None -> Fmt.invalid_arg "Runtime: unknown state %s" name

  (* the outcome a state denotes at this site, [None] unless final *)
  let outcome_at t (rt : site_rt) code =
    Core.Types.outcome_of_kind (I.kind_of t.codes ~site:rt.site ~code)

  (* inbox slot of a message code addressed to this site *)
  let slot t code = code / (t.codes.I.n + 1)

  (* every log write goes through here so the run's WAL traffic is
     visible in the metrics *)
  let append_wal t wal r =
    Sim.Metrics.bump (Sim.World.metrics t.world) l_wal_appends;
    Wal.append wal r

  let is_ro t site = List.mem site t.cfg.read_only

  (* whether the presumption covers this outcome: its [Decided] record
     may be appended instead of forced *)
  let covered t (o : Core.Types.outcome) =
    match t.cfg.presumption with
    | No_presumption -> false
    | Presume_abort -> o = Core.Types.Aborted
    | Presume_commit -> o = Core.Types.Committed

  (* the paper's forced write: append + sync, durable before the caller
     takes any externally visible action.  Read-only sites never sync —
     nothing of theirs needs to survive a crash. *)
  let force_wal t (rt : site_rt) r =
    Sim.Metrics.bump (Sim.World.metrics t.world) l_wal_appends;
    if is_ro t rt.site then Wal.append rt.wal r else Wal.force rt.wal r

  let finalize t (rt : site_rt) (o : Core.Types.outcome) =
    if rt.outcome = None then begin
      (* forced before any caller announces the decision to a peer —
         except when the presumption covers [o]: then the record merely
         rides the next sync, and the durability oracle accepts an
         announced covered outcome the repaired log cannot show *)
      if covered t o then append_wal t rt.wal (Wal.Decided o)
      else force_wal t rt (Wal.Decided o);
      rt.outcome <- Some o;
      rt.decided_at <- Some (Sim.World.now t.world);
      rt.state <- Rulebook.final_code t.cfg.rulebook ~site:rt.site o;
      rt.mode <- Normal;
      let m = Sim.World.metrics t.world in
      Sim.Metrics.sample m l_decision_latency (Sim.World.now t.world);
      Sim.Metrics.sample m l_messages_to_decision
        (float_of_int (Sim.Metrics.count m l_messages_sent));
      record t "site %d decides %s" rt.site
        (match o with Core.Types.Committed -> "COMMIT" | Aborted -> "ABORT")
    end

  (* ---------------- FSA execution ---------------- *)

  (* [tr] may fire: its vote is the site's planned one (or it casts
     none), and the inbox holds every message it consumes.  [c_consumes]
     is sorted, so a message consumed twice is a run of equal codes; one
     addressed to another site can never be in this inbox, whose slots
     drop the destination. *)
  let fireable t (rt : site_rt) (tr : I.ctrans) =
    (match tr.I.c_tr.Core.Automaton.vote with None -> true | Some v -> v = t.votes.(rt.site - 1))
    &&
    let cons = tr.I.c_consumes in
    let len = Array.length cons in
    let rec go i =
      i >= len
      ||
      let code = cons.(i) in
      let j = ref (i + 1) in
      while !j < len && cons.(!j) = code do incr j done;
      I.msg_dst t.codes code = rt.site && rt.inbox.(slot t code) >= !j - i && go !j
    in
    go 0

  (* The rest of a transition once its record is durable: sends, volatile
     state, the decision.  On the synchronous fast path this runs inline
     and the whole transition is atomic wrt the scheduler, exactly as
     before the levers existed.  [crash_after_k]: the planned crash after
     that many sends, -1 for none. *)
  let rec after_record t ctx (rt : site_rt) (ctr : I.ctrans) ~crash_after_k =
    rt.firing <- false;
    let tr = ctr.I.c_tr in
    let emits = ctr.I.c_emits in
    let n_emits = Array.length emits in
    let announces = outcome_at t rt ctr.I.c_to in
    (* a termination directive may have arrived while the force was in
       flight: the record is durable but the commit protocol proper is
       over — adopt the state (it is on stable storage; a poll may
       honestly report it) but put nothing more on the wire *)
    let frozen = rt.impaired || rt.mode <> Normal in
    if not frozen then
      for i = 0 to n_emits - 1 do
        if i = crash_after_k then begin
          if Sim.World.tracing t.world then
            record t "site %d crashes mid-transition after %d of %d sends" rt.site crash_after_k
              n_emits;
          Sim.World.crash_self ctx
        end;
        (* sends from a crashed site are dropped by the world, so only
           live sends count as externally observed *)
        if Sim.World.is_alive t.world rt.site then begin
          (match tr.Core.Automaton.vote with
          | Some Core.Types.Yes -> rt.sent_yes <- true
          | Some Core.Types.No | None -> ());
          match announces with Some _ -> rt.announced <- announces | None -> ()
        end;
        Sim.World.send ctx ~dst:(I.msg_dst t.codes emits.(i)) (Msg.Proto emits.(i))
      done;
    if (not frozen) && crash_after_k >= n_emits then begin
      if Sim.World.tracing t.world then
        record t "site %d crashes right after transition to %s" rt.site tr.Core.Automaton.to_state;
      Sim.World.crash_self ctx
    end;
    if t.cfg.late_force && (not (is_ro t rt.site)) && Sim.World.is_alive t.world rt.site then
      Wal.sync rt.wal;
    rt.state <- ctr.I.c_to;
    (if Sim.World.is_alive t.world rt.site then
       match announces with Some o -> finalize t rt o | None -> ());
    if Sim.World.is_alive t.world rt.site && not frozen then try_fire t ctx rt

  and try_fire t ctx (rt : site_rt) =
    if rt.outcome = None && rt.mode = Normal && (not rt.impaired) && not rt.firing then begin
      (* the first fireable transition in [Automaton.transitions_from]
         order, the order the table was compiled in *)
      let trs = t.codes.I.trans.(rt.site - 1).(rt.state) in
      let i = ref 0 in
      while !i < Array.length trs && not (fireable t rt trs.(!i)) do incr i done;
      if !i < Array.length trs then begin
        let ctr = trs.(!i) in
        let tr = ctr.I.c_tr in
        match Failure_plan.find_step_crash t.cfg.plan ~site:rt.site ~step:rt.steps with
        | Some Failure_plan.Before_transition ->
            if Sim.World.tracing t.world then
              record t "site %d crashes before transition %s->%s" rt.site (state_name t rt.state)
                tr.Core.Automaton.to_state;
            Sim.World.crash_self ctx
        | crash_mode ->
            rt.steps <- rt.steps + 1;
            let consumes = ctr.I.c_consumes in
            for i = 0 to Array.length consumes - 1 do
              let k = slot t consumes.(i) in
              rt.inbox.(k) <- rt.inbox.(k) - 1
            done;
            let crash_after_k =
              match crash_mode with
              | Some (Failure_plan.After_logging k) -> k
              | Some Failure_plan.After_transition -> Array.length ctr.I.c_emits
              | Some Failure_plan.Before_transition | None -> -1
            in
            (* Write-ahead: force the transition record before any message
               leaves the site — the paper's rule.  Under the [late_force]
               ablation only the append happens here; the sync is deferred
               until after the sends, opening exactly the
               acted-before-durable window the durability oracle must
               catch.  Read-only sites never sync at all. *)
            let record_ =
              Wal.Transitioned
                { to_state = tr.Core.Automaton.to_state; vote = tr.Core.Automaton.vote }
            in
            Sim.Metrics.bump (Sim.World.metrics t.world) l_wal_appends;
            if t.cfg.late_force || is_ro t rt.site then begin
              Wal.append rt.wal record_;
              after_record t ctx rt ctr ~crash_after_k
            end
            else begin
              rt.firing <- true;
              if Wal.batched rt.wal then
                Wal.force_k rt.wal record_ (fun () -> after_record t ctx rt ctr ~crash_after_k)
              else begin
                Wal.force rt.wal record_;
                after_record t ctx rt ctr ~crash_after_k
              end
            end
      end
    end

  (* ---------------- queries (recovery & blocked sites) ---------------- *)

  let query_peers t ctx (rt : site_rt) =
    Sim.Metrics.bump (Sim.World.metrics t.world) l_termination_queries;
    let peers = List.filter (fun s -> s <> rt.site) (Sim.World.sites t.world) in
    Sim.World.broadcast ctx ~dsts:peers Msg.Query_outcome

  (* Outcome queries retry for as long as the site is undecided, with
     capped exponential backoff plus jitter ({!Sim.Backoff}): a fixed
     retry budget tied liveness to how long a peer stayed unreachable,
     while a fixed interval kept blocked runs noisy.  The backoff resets
     when a peer comes back (see [on_peer_up]) and on restart. *)
  let rec start_query_loop t ctx (rt : site_rt) =
    if rt.outcome = None then begin
      query_peers t ctx rt;
      let delay =
        Sim.Backoff.delay ~rng:t.query_rng ~interval:query_interval
          ~cap:query_backoff_cap ~attempt:rt.query_attempts
      in
      rt.query_attempts <- rt.query_attempts + 1;
      ignore (Sim.World.set_timer ctx ~delay (fun () -> start_query_loop t ctx rt))
    end

  let enter_stalled t ctx (rt : site_rt) =
    if rt.mode <> Stalled then begin
      rt.mode <- Stalled;
      record t "site %d stalls (state %s): will query for the outcome" rt.site
        (state_name t rt.state);
      start_query_loop t ctx rt
    end

  (* ---------------- termination protocol ---------------- *)

  (* Leadership is computed from this site's local detector reports only
     (the partition ablation shows what breaks when they lie).  Read-only
     sites never lead: their volatile log cannot honour the force
     discipline.  Under the oracle taint is fact, so an all-tainted view is
     a total failure; under the detector every suspicion taints, so the
     election falls back to current suspicion and epochs keep the extra
     candidates safe. *)
  let leaders t = List.filter (fun s -> not (is_ro t s)) (Sim.World.sites t.world)

  let elector (rt : site_rt) =
    { Termination.self = rt.site; crashed = rt.ever_crashed; down = rt.down_view;
      tainted = rt.tainted_view }

  let eligible_leader t rt = Termination.eligible ~fallback:t.cfg.detector (elector rt) (leaders t)

  (* The epoch this site leads or campaigns at: its rank under the oracle
     (a deposed backup is dead, round 0 suffices and orders exactly like
     rank), the smallest of its allotment above everything it has obeyed
     under the detector (a deposed backup may be deposed in error and come
     back — it re-elects itself one round up instead of re-issuing stale
     orders). *)
  let next_epoch t (rt : site_rt) =
    Termination.epoch ~n_sites:t.codes.I.n ~site:rt.site
      (if t.cfg.detector then rt.epoch_seen else -1)

  let broadcast_decide t ctx (rt : site_rt) o =
    let peers = List.filter (fun s -> s <> rt.site) (Sim.World.sites t.world) in
    let crash_after =
      Failure_plan.backup_crash t.cfg.plan ~site:rt.site ~phase:Sim.Nemesis.Decide
    in
    List.iteri
      (fun i dst ->
        (match crash_after with
        | Some k when i = k ->
            record t "backup %d crashes after sending %d decide(s)" rt.site k;
            Sim.World.crash_self ctx
        | _ -> ());
        if Sim.World.is_alive t.world rt.site then rt.announced <- Some o;
        Sim.World.send ctx ~dst
          (Msg.Decide { outcome = o; epoch = max rt.lead_epoch rt.epoch_seen }))
      peers;
    match crash_after with
    | Some k when k >= List.length peers -> Sim.World.crash_self ctx
    | _ -> ()

  (* Read-only sites are excluded from moves and polls: their state is
     volatile, so counting it toward a quorum (or deciding from a move
     they acked) would let a crash shrink a commit quorum after the
     fact.  They still learn the outcome from phase 2 broadcasts. *)
  let reachable_participants t (rt : site_rt) =
    let e = elector rt in
    List.filter (fun s -> s <> rt.site && Termination.trusted e s) (leaders t)

  let decide t ctx (rt : site_rt) o =
    finalize t rt o;
    broadcast_decide t ctx rt o

  (* Close the round in flight once nothing it awaits is left: phase 1
     ends in the backup's Rulebook verdict, a poll in the quorum rule's.
     A blocked backup keeps querying in case a crashed site recovers and
     resolves the transaction (the only way out for 2PC). *)
  let rec maybe_finish t ctx (rt : site_rt) =
    match rt.mode with
    | Backup (Termination.Moving { awaiting; _ }) -> (
        (* failure reports prune [awaiting] as they arrive *)
        match
          Termination.close_phase1 t.cfg.rulebook ~site:rt.site ~code:rt.state ~awaiting
            ~failed:(fun _ -> false)
        with
        | Some (Rulebook.Decide o) -> decide t ctx rt o
        | Some Rulebook.Blocked ->
            record t "backup %d is BLOCKED in state %s" rt.site (state_name t rt.state);
            enter_stalled t ctx rt
        | None -> ())
    | Backup (Termination.Polling { awaiting = []; reps }) -> (
        rt.mode <- Normal;
        let q = Termination.majority t.codes.I.n in
        let kinds = List.map (fun (site, code) -> I.kind_of t.codes ~site ~code) reps in
        match
          Termination.quorum ~n_sites:t.codes.I.n
            ~buffer:t.cfg.rulebook.Rulebook.buffer_code.(rt.site - 1) kinds
        with
        | Termination.Seen o ->
            record t "quorum backup %d: %s" rt.site
              (match o with
              | Core.Types.Committed -> "a commit is visible -> COMMIT"
              | Aborted -> "an abort is visible -> ABORT");
            decide t ctx rt o
        | Termination.Move_up (p, prepared) ->
            record t "quorum backup %d: %d prepared >= %d -> move up and COMMIT" rt.site prepared q;
            if rt.state <> p then begin
              force_wal t rt (Wal.Moved { to_state = state_name t p });
              rt.state <- p
            end;
            run_phase1 t ctx rt ~target:p
              ~awaiting:(List.filter_map (fun (s, _) -> if s <> rt.site then Some s else None) reps)
        | Termination.No_buffer ->
            record t "quorum backup %d: no buffer state, cannot commit -> wait" rt.site;
            enter_stalled t ctx rt
        | Termination.Unprepared unprepared ->
            record t "quorum backup %d: %d unprepared >= %d -> ABORT" rt.site unprepared q;
            decide t ctx rt Core.Types.Aborted
        | Termination.Short (prepared, unprepared) ->
            record t "quorum backup %d: no quorum (%d prepared, %d unprepared, need %d) -> wait"
              rt.site prepared unprepared q;
            enter_stalled t ctx rt)
    | Backup (Termination.Polling _) | Normal | Stalled -> ()

  (* Phase 1 of the backup protocol: ask the awaited sites to move to
     [target]. *)
  and run_phase1 t ctx (rt : site_rt) ~target ~awaiting =
    rt.mode <- Backup (Termination.Moving { target; awaiting });
    let crash_after = Failure_plan.backup_crash t.cfg.plan ~site:rt.site ~phase:Sim.Nemesis.Move in
    List.iteri
      (fun i dst ->
        (match crash_after with
        | Some k when i = k ->
            record t "backup %d crashes after sending %d move(s)" rt.site k;
            Sim.World.crash_self ctx
        | _ -> ());
        Sim.World.send ctx ~dst
          (Msg.Move_to { target = state_name t target; epoch = rt.lead_epoch }))
      awaiting;
    (match crash_after with
    | Some k when k >= List.length awaiting -> Sim.World.crash_self ctx
    | _ -> ());
    if Sim.World.is_alive t.world rt.site then maybe_finish t ctx rt

  let start_termination t ctx (rt : site_rt) =
    match rt.mode with
    | Backup _ | Stalled -> ()
    | Normal -> (
        let e = next_epoch t rt in
        record t "site %d becomes backup coordinator (state %s, epoch %d)" rt.site
          (state_name t rt.state) e;
        rt.lead_epoch <- e;
        rt.epoch_seen <- max rt.epoch_seen e;
        t.directive_epochs <- (rt.site, e) :: t.directive_epochs;
        let m = Sim.World.metrics t.world in
        Sim.Metrics.bump m l_elections;
        let opening =
          Termination.open_round t.cfg.termination t.cfg.rulebook ~site:rt.site ~code:rt.state
            ~outcome:rt.outcome ~participants:(reachable_participants t rt)
        in
        (match opening with
        | Termination.Announce _ -> ()
        | Termination.Start _ | Termination.Blocked -> Sim.Metrics.bump m l_termination_rounds);
        match opening with
        | Termination.Announce o -> broadcast_decide t ctx rt o
        | Termination.Blocked ->
            record t "backup %d is BLOCKED in state %s" rt.site (state_name t rt.state);
            enter_stalled t ctx rt
        | Termination.Start (Termination.Moving { target; awaiting }) ->
            run_phase1 t ctx rt ~target ~awaiting
        | Termination.Start (Termination.Polling { awaiting; _ } as poll) ->
            rt.mode <- Backup poll;
            List.iter (fun dst -> Sim.World.send ctx ~dst (Msg.State_req { epoch = e })) awaiting;
            maybe_finish t ctx rt)

  let rec reconsider_leadership t ctx (rt : site_rt) =
    match eligible_leader t rt with
    | Some s when s = rt.site ->
        if t.cfg.detector then start_campaign t ctx rt else start_termination t ctx rt
    | Some _ -> ()
    | None ->
        (* Every site has crashed at least once: no termination protocol can
           run; undecided survivors fall back to querying. *)
        if rt.outcome = None then enter_stalled t ctx rt

  (* Bully election with a second chance: the candidate asks EVERY
     better-ranked site to object — suspected ones included, because a
     suspicion may be false and a live better-ranked site must win.  An
     objection ([Elect_ack]) makes the candidate stand down; silence for
     [election_timeout] lets it lead. *)
  and start_campaign t ctx (rt : site_rt) =
    match rt.mode with
    | Backup _ | Stalled -> ()
    | Normal ->
        if not rt.campaigning then begin
          let lower = List.filter (fun s -> s < rt.site) (Sim.World.sites t.world) in
          if lower = [] then start_termination t ctx rt
          else begin
            rt.campaigning <- true;
            Sim.Metrics.bump (Sim.World.metrics t.world) l_elections_started;
            let e = next_epoch t rt in
            record t "site %d campaigns for leadership at epoch %d" rt.site e;
            Sim.World.broadcast ctx ~dsts:lower (Msg.Elect { epoch = e });
            ignore
              (Sim.World.set_timer ctx ~delay:t.cfg.election_timeout (fun () ->
                   if rt.campaigning then begin
                     rt.campaigning <- false;
                     if eligible_leader t rt = Some rt.site then start_termination t ctx rt
                   end))
          end
        end

  (* ---------------- handlers ---------------- *)

  (* a stale directive from a deposed backup: fence it.  Under the
     detector the deposed backup is possibly still alive — tell it, so it
     stands down instead of deciding alone. *)
  let fence t ctx (rt : site_rt) ~src ~what e =
    Sim.Metrics.bump (Sim.World.metrics t.world) l_epoch_rejected_directives;
    record t "site %d fences stale %s from deposed backup %d (e%d < e%d)" rt.site what src e
      rt.epoch_seen;
    if t.cfg.detector then Sim.World.send ctx ~dst:src (Msg.Epoch_reject { epoch = rt.epoch_seen })

  let handle_peer_down t ctx failed =
    let rt = rt t ctx.Sim.World.self in
    rt.impaired <- true;
    if not (List.mem failed rt.down_view) then rt.down_view <- failed :: rt.down_view;
    if not (List.mem failed rt.tainted_view) then rt.tainted_view <- failed :: rt.tainted_view;
    (match rt.mode with
    | Backup phase ->
        rt.mode <- Backup (Termination.drop phase failed);
        maybe_finish t ctx rt
    | Normal | Stalled -> ());
    (* Even a site that has already decided must reconsider: if it is now
       the backup coordinator it announces the outcome, so that sites left
       waiting by a coordinator that crashed mid-broadcast still learn it. *)
    reconsider_leadership t ctx rt

  let on_message t ctx ~src msg =
    let rt = rt t ctx.Sim.World.self in
    match msg with
    | Msg.Proto code ->
        if rt.outcome = None then begin
          rt.inbox.(slot t code) <- rt.inbox.(slot t code) + 1;
          try_fire t ctx rt
        end
    | Msg.Heartbeat ->
        (* evidence of life only — already consumed by [Detector.heard] *)
        ()
    | Msg.Move_to { target = s; epoch = e } -> (
        match
          Termination.answer_move ~outcome:rt.outcome ~recovered:rt.ever_crashed
            ~fencing:t.cfg.fencing ~epoch_seen:rt.epoch_seen ~epoch:e
        with
        | Termination.Reply o ->
            rt.announced <- Some o;
            Sim.World.send ctx ~dst:src (Msg.Decide { outcome = o; epoch = max e rt.epoch_seen })
        | Termination.Ignore -> ()
        | Termination.Fence -> fence t ctx rt ~src ~what:"move" e
        | Termination.Adopt epoch ->
            (* a backup with higher authority (from a view in which we
               are not the leader) is directing us: abandon any poll or
               phase 1 of our own and follow it *)
            rt.epoch_seen <- epoch;
            (match rt.mode with
            | Backup (Termination.Polling _) -> rt.mode <- Normal
            | Backup (Termination.Moving _) when t.cfg.detector -> rt.mode <- Normal
            | Normal | Backup _ | Stalled -> ());
            (* under the detector a directive is also the failure signal
               itself: freeze the FSA exactly as an oracle report would *)
            if t.cfg.detector then rt.impaired <- true;
            let target = state_code t s in
            if rt.state <> target then begin
              (* forced before the ack: the backup will decide from the
                 belief that this move is stable *)
              force_wal t rt (Wal.Moved { to_state = s });
              record t "site %d moves %s -> %s at backup's request" rt.site
                (state_name t rt.state) s;
              rt.state <- target
            end;
            Sim.World.send ctx ~dst:src (Msg.Move_ack s))
    | Msg.Move_ack _ -> (
        match rt.mode with
        | Backup (Termination.Moving _ as phase) ->
            rt.mode <- Backup (Termination.drop phase src);
            maybe_finish t ctx rt
        | Backup (Termination.Polling _) | Normal | Stalled -> ())
    | Msg.State_req { epoch = e } ->
        if t.cfg.detector && t.cfg.fencing && e < rt.epoch_seen then
          fence t ctx rt ~src ~what:"state-req" e
        else begin
          if t.cfg.detector then begin
            rt.epoch_seen <- max rt.epoch_seen e;
            if rt.outcome = None && not rt.ever_crashed then rt.impaired <- true
          end;
          (* quorum poll: recovered sites that have not resolved keep quiet
             (their pre-crash state is stale); everyone else reports *)
          if rt.outcome <> None || not rt.ever_crashed then
            Sim.World.send ctx ~dst:src (Msg.State_rep (state_name t rt.state))
        end
    | Msg.State_rep s -> (
        match rt.mode with
        | Backup (Termination.Polling _ as poll) ->
            rt.mode <- Backup (Termination.report poll src (state_code t s));
            maybe_finish t ctx rt
        | Backup (Termination.Moving _) | Normal | Stalled -> ())
    | Msg.Decide { outcome = o; epoch = e } -> (
        match
          Termination.learn_decide
            ~fencing:(t.cfg.detector && t.cfg.fencing)
            ~epoch_seen:rt.epoch_seen ~epoch:e ~outcome:rt.outcome
        with
        | Termination.Fenced -> fence t ctx rt ~src ~what:"decide" e
        | answer ->
            if t.cfg.detector then rt.epoch_seen <- max rt.epoch_seen e;
            if answer = Termination.Learn then begin
              let was_leading =
                match rt.mode with Backup (Termination.Moving _) -> true | _ -> false
              in
              finalize t rt o;
              (* A participant that was already final answered our Move_to
                 with the outcome: relay it so phase 2 still reaches
                 everyone. *)
              if was_leading then broadcast_decide t ctx rt o
            end)
    | Msg.Query_outcome ->
        (match rt.outcome with Some o -> rt.announced <- Some o | None -> ());
        Sim.World.send ctx ~dst:src (Msg.Outcome_reply rt.outcome);
        (* A peer's query is harder failure evidence than any report:
           only a site that abandoned the normal FSA path (crashed and
           recovered, or frozen by a termination directive) queries, so
           it will never send the protocol message this site may still
           be waiting for.  Both failure-signal sources can miss the
           crash behind such a query: the oracle samples liveness after
           [detection_delay], so a crash-recover window shorter than the
           delay produces no report at all, and under the timeout
           detector a chaos-delayed pre-crash heartbeat masks the same
           window.  Either way an undecided coordinator would wait
           forever on a vote or ack the querier lost — the query itself
           is the one signal that cannot be masked. *)
        if rt.outcome = None && not (List.mem src rt.down_view) then begin
          record t "site %d treats site %d's outcome query as failure evidence" rt.site src;
          handle_peer_down t ctx src
        end
    | Msg.Outcome_reply (Some o) ->
        let was_stalled = rt.mode = Stalled in
        if rt.outcome = None then begin
          finalize t rt o;
          (* A blocked backup that finally learned the outcome spreads it to
             the other blocked sites. *)
          if was_stalled then broadcast_decide t ctx rt o
        end
    | Msg.Outcome_reply None -> ()
    | Msg.Elect { epoch = e } ->
        (* A worse-ranked site believes the leader chain is broken.  A
           better-ranked site that could lead objects (an objection is a
           promise to take over) and reconsiders leading itself. *)
        if Termination.objects ~campaigner:src ~fallback:t.cfg.detector (elector rt) (leaders t)
        then begin
          record t "site %d objects to site %d's campaign (epoch %d)" rt.site src e;
          Sim.World.send ctx ~dst:src Msg.Elect_ack;
          reconsider_leadership t ctx rt
        end
    | Msg.Elect_ack ->
        if rt.campaigning then begin
          record t "site %d stands down: a better-ranked site objected" rt.site;
          rt.campaigning <- false
        end
    | Msg.Epoch_reject { epoch = e } -> (
        rt.epoch_seen <- max rt.epoch_seen e;
        match rt.mode with
        | Backup _ ->
            (* Deposed while directing: abandon the round WITHOUT deciding
               (the higher-epoch backup owns the transaction now) and fall
               back to querying for its outcome. *)
            record t "backup %d stands down: deposed at epoch %d" rt.site e;
            rt.mode <- Normal;
            if rt.outcome = None then enter_stalled t ctx rt
        | Normal | Stalled -> ())

  let handle_peer_up t ctx recovered =
    let rt = rt t ctx.Sim.World.self in
    rt.down_view <- List.filter (fun x -> x <> recovered) rt.down_view;
    (* A retracted false suspicion: if no failure evidence remains and no
       termination directive ever reached this site, the freeze was
       spurious — thaw the FSA and resume the normal protocol.  (Once a
       directive has been obeyed the termination protocol owns the
       transaction, so the freeze must stick.) *)
    if
      t.cfg.detector && rt.impaired && rt.down_view = [] && rt.epoch_seen < 0
      && rt.mode = Normal && rt.outcome = None
    then begin
      record t "site %d thaws: every suspicion was retracted" rt.site;
      rt.impaired <- false;
      try_fire t ctx rt
    end;
    (* a stalled site may be deep into its backoff when the peer returns:
       the recovery report is the signal that querying can succeed again
       (messages dropped by a partition are dropped at send time, so
       nothing sent during the window survives to resolve the stall for
       us), so reset the backoff and query immediately — the standing
       timer chain keeps the retries going afterwards *)
    if rt.outcome = None && rt.mode = Stalled then begin
      rt.query_attempts <- 0;
      record t "site %d re-queries: site %d is reachable again" rt.site recovered;
      query_peers t ctx rt
    end;
    (* tainted_view keeps genuinely crashed sites out of leadership; a
       healed partition however reported sites "down" that never crashed,
       and under the quorum rule a blocked minority must now re-poll *)
    match t.cfg.termination with
    | Quorum when rt.outcome = None ->
        (match rt.mode with
        | Stalled | Backup (Termination.Polling _) -> rt.mode <- Normal
        | Normal | Backup (Termination.Moving _) -> ());
        reconsider_leadership t ctx rt
    | Quorum | Skeen -> ()

  (* The oracle's reports and the detector's suspicions drive the same
     view machinery; in detector mode the oracle events are ignored (the
     world still emits them — they are generated from the crash schedule —
     but suspicion is the only failure signal the sites may act on). *)
  let on_peer_down t ctx failed =
    if not t.cfg.detector then handle_peer_down t ctx failed

  let on_peer_up t ctx recovered =
    if not t.cfg.detector then handle_peer_up t ctx recovered

  (* Recovery protocol (paper §7): classify the stable log.  Before the
     commit point — no yes vote on the log — the site aborts unilaterally,
     provided its protocol gives it a veto at all; otherwise, and after a
     yes vote, it must learn the outcome from its peers. *)
  let on_restart t ctx =
    let rt = rt t ctx.Sim.World.self in
    rt.ever_crashed <- true;
    Array.fill rt.inbox 0 (Array.length rt.inbox) 0;
    rt.mode <- Normal;
    rt.campaigning <- false;
    rt.firing <- false;
    rt.query_attempts <- 0;
    (* volatile memory did not survive: the decision must be re-derived
       from the stable log.  With a lossless log this is a no-op (the
       [Decided] record restores it below); with a lossy one, keeping the
       pre-crash [outcome] would resurrect a decision the disk lost —
       exactly what the durability oracle exists to catch, not mask. *)
    rt.outcome <- None;
    (match Wal.last_state rt.wal with Some s -> rt.state <- state_code t s | None -> ());
    rt.steps <-
      List.length
        (List.filter (function Wal.Transitioned _ -> true | _ -> false) (Wal.records rt.wal));
    (match Wal.decided rt.wal with
    | Some o ->
        rt.outcome <- Some o;
        rt.state <- Rulebook.final_code t.cfg.rulebook ~site:rt.site o
    | None -> (
        match outcome_at t rt rt.state with
        | Some o ->
            (* The forced log reached a final state before the crash: the
               decision stands even if the [Decided] record is missing. *)
            finalize t rt o
        | None ->
            if is_ro t rt.site then begin
              (* a read-only site's log is volatile by design, so its
                 silence proves nothing — in particular not that it never
                 voted: a unilateral abort here could contradict a commit
                 the cohort reached on its (lost) yes vote *)
              record t "read-only site %d recovers: must ask peers" rt.site;
              enter_stalled t ctx rt
            end
            else if
              (not (Wal.voted_yes rt.wal))
              && site_has_veto (Core.Protocol.automaton t.protocol rt.site)
            then begin
              record t "site %d recovers before its commit point: unilateral abort" rt.site;
              finalize t rt Core.Types.Aborted
            end
            else begin
              record t "site %d recovers after voting yes: must ask peers" rt.site;
              enter_stalled t ctx rt
            end));
    (* A crash-recover window shorter than the detection delay is
       invisible: the oracle samples liveness when the report comes due,
       finds the site back up, and stays silent, so peers never run the
       termination protocol and keep waiting on whatever message died
       with the crash.  When the stable log let this site resolve
       locally (a [Decided] record, a final logged state, or the
       unilateral abort above), re-announce the outcome: [Decide] is
       idempotent, and the broadcast replaces the phase the crash
       swallowed.  A site that could not resolve locally stalls and
       queries instead, and the query-as-failure-evidence rule covers
       that half of the masked window. *)
    (match rt.outcome with
    | Some o ->
        record t "recovered site %d re-announces %s" rt.site
          (match o with Core.Types.Committed -> "COMMIT" | Aborted -> "ABORT");
        rt.announced <- Some o;
        List.iter
          (fun dst ->
            Sim.World.send ctx ~dst
              (Msg.Decide { outcome = o; epoch = max rt.lead_epoch rt.epoch_seen }))
          (List.filter (fun s -> s <> rt.site) (Sim.World.sites t.world))
    | None -> ());
    Sim.Metrics.bump (Sim.World.metrics t.world) l_recoveries_processed

  (* wire the site's log into the run: force counters, and a site-bound
     timer for deferred group-commit flushes (so a pending batch dies
     with the site's crash).  Re-done on restart — the crashed
     incarnation's timers died with it. *)
  let attach_wal t ctx =
    Wal.attach
      (Wal.Store.log t.store ~site:ctx.Sim.World.self)
      ~metrics:(Sim.World.metrics t.world)
      ~schedule:(fun delay k -> ignore (Sim.World.set_timer ctx ~delay k))

  let handlers t _site : Msg.t Sim.World.handlers =
    {
      Sim.World.on_start =
        (fun ctx ->
          attach_wal t ctx;
          match t.detector with Some d -> Sim.Detector.start d ctx | None -> ());
      on_message =
        (fun ctx ~src msg ->
          (match t.detector with
          | Some d -> Sim.Detector.heard d ~self:ctx.Sim.World.self ~src
          | None -> ());
          on_message t ctx ~src msg);
      on_peer_down = (fun ctx failed -> on_peer_down t ctx failed);
      on_peer_up = (fun ctx recovered -> on_peer_up t ctx recovered);
      on_restart =
        (fun ctx ->
          attach_wal t ctx;
          on_restart t ctx;
          (* the crashed incarnation's detector timers died with it *)
          match t.detector with Some d -> Sim.Detector.start d ctx | None -> ());
    }
end

(** [run cfg] executes one distributed transaction under the configured
    protocol, votes and failure plan, and reports the outcome at every
    site. *)
let run (cfg : config) : result =
  let protocol = cfg.rulebook.Rulebook.protocol in
  let codes = cfg.rulebook.Rulebook.codes in
  let n = Core.Protocol.n_sites protocol in
  let world =
    Sim.World.create ~n_sites:n ~seed:cfg.seed ~msg_to_string:(Msg.to_string codes) ()
  in
  Sim.World.set_tracing world cfg.tracing;
  let store =
    Wal.Store.create ~durable:cfg.durable_wal ?group_commit:cfg.group_commit
      ~sync_latency:cfg.sync_latency ~n_sites:n ()
  in
  Wal.Store.install store world ~disk_faults:(Sim.Nemesis.disk_faults cfg.plan);
  let rts =
    Array.init n (fun i ->
        let site = i + 1 in
        let wal = Wal.Store.log store ~site in
        Sim.Metrics.bump (Sim.World.metrics world) l_wal_appends;
        Wal.force wal
          (Wal.Began
             {
               protocol = protocol.Core.Protocol.name;
               initial = (Core.Protocol.automaton protocol site).Core.Automaton.initial;
             });
        {
          site;
          wal;
          state = codes.I.initial_locals.(i);
          inbox = Array.make (I.size codes.I.msg_names * (n + 1)) 0;
          steps = 0;
          outcome = None;
          ever_crashed = false;
          mode = Normal;
          query_attempts = 0;
          down_view = [];
          tainted_view = [];
          decided_at = None;
          epoch_seen = -1;
          campaigning = false;
          lead_epoch = site - 1;
          impaired = false;
          sent_yes = false;
          announced = None;
          firing = false;
        })
  in
  let exec =
    {
      Exec.cfg;
      protocol;
      codes;
      votes =
        Array.init n (fun i ->
            Option.value ~default:Core.Types.Yes (List.assoc_opt (i + 1) cfg.votes));
      world;
      store;
      rts;
      query_rng = Sim.Rng.split (Sim.Rng.create ~seed:cfg.seed);
      detector = None;
      directive_epochs = [];
    }
  in
  if cfg.detector then
    exec.Exec.detector <-
      Some
        (Sim.Detector.create ~heartbeat_period:cfg.heartbeat_period
           ~suspicion_timeout:cfg.suspicion_timeout ~world ~heartbeat:Msg.Heartbeat
           ~is_heartbeat:(function Msg.Heartbeat -> true | _ -> false)
           ~on_suspect:(fun ctx s -> Exec.handle_peer_down exec ctx s)
           ~on_unsuspect:(fun ctx s -> Exec.handle_peer_up exec ctx s)
           ());
  (* Environment input: the initial transaction requests. *)
  List.iter
    (fun m ->
      Sim.World.inject world ~dst:m.Core.Message.dst ~at:0.01 (Msg.Proto (I.encode_msg codes m)))
    protocol.Core.Protocol.initial_network;
  (* Every time-pinned fault.  Detector-stressing windows go in
     regardless of mode: a latency spike perturbs message timing either
     way, and heartbeat loss is inert without a detector. *)
  Sim.Nemesis.install world cfg.plan;
  ignore (Sim.World.run world ~handlers:(Exec.handlers exec) ~until:cfg.until ());
  (* ---- reporting ---- *)
  let wal_outcome (rt : site_rt) =
    match Wal.decided rt.wal with
    | Some o -> Some o
    | None -> (
        match Wal.last_state rt.wal with
        | Some s -> Exec.outcome_at exec rt (Exec.state_code exec s)
        | None -> None)
  in
  let reports =
    Array.to_list rts
    |> List.map (fun (rt : site_rt) ->
           {
             site = rt.site;
             outcome = rt.outcome;
             wal_outcome = wal_outcome rt;
             final_state = Exec.state_name exec rt.state;
             operational = Sim.World.is_alive world rt.site;
             ever_crashed = rt.ever_crashed || not (Sim.World.is_alive world rt.site);
             decided_at = rt.decided_at;
             sent_yes = rt.sent_yes;
             announced = rt.announced;
           })
  in
  let outcomes = List.filter_map (fun r -> r.outcome) reports in
  let has_commit = List.mem Core.Types.Committed outcomes
  and has_abort = List.mem Core.Types.Aborted outcomes in
  let operational_undecided =
    List.filter (fun r -> r.operational && (not r.ever_crashed) && r.outcome = None) reports
  in
  let metrics = Sim.World.metrics world in
  (* a site that crashed mid-measure leaves a dangling timer_start:
     account it before anything snapshots or merges this registry *)
  Sim.Metrics.drain_timers metrics;
  {
    reports;
    messages_sent = Sim.Metrics.count metrics l_messages_sent;
    messages_delivered = Sim.Metrics.count metrics l_messages_delivered;
    duration =
      List.fold_left (fun acc r -> match r.decided_at with Some x -> max acc x | None -> acc) 0.0
        reports;
    global_outcome =
      (if has_commit then Some Core.Types.Committed
       else if has_abort then Some Core.Types.Aborted
       else None);
    consistent = not (has_commit && has_abort);
    blocked_operational = List.length operational_undecided;
    all_operational_decided = operational_undecided = [];
    store;
    directive_epochs = List.rev exec.Exec.directive_epochs;
    trace = Sim.World.trace_entries world;
    run_metrics = metrics;
  }

let pp_result ppf r =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun s ->
      Fmt.pf ppf "site %d: %s state=%s%s%s@," s.site
        (match s.outcome with
        | Some Core.Types.Committed -> "COMMITTED"
        | Some Core.Types.Aborted -> "ABORTED"
        | None -> "undecided")
        s.final_state
        (if s.operational then "" else " (down)")
        (if s.ever_crashed then " (crashed)" else ""))
    r.reports;
  Fmt.pf ppf "messages: %d sent, %d delivered@,consistent: %b, blocked operational: %d@]"
    r.messages_sent r.messages_delivered r.consistent r.blocked_operational
