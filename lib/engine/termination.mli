(** The paper's termination protocol, written once: the backup coordinator
    moves every site to its own state (phase 1), then decides by its
    {!Rulebook} verdict (phase 2); the quorum variant polls the sites'
    states first and decides by counts.  Each rule is a pure function of a
    site's state code, outcome, round in flight ({!phase}) and epoch that
    returns a decision.  {!Runtime} and {!Model_check} drive every rule;
    [Kv.Node] drives {!open_round}, {!drop}, {!report}, {!close_phase1}
    and {!quorum}.  The drivers keep the I/O (sends, log forces, timers,
    traces; input enumeration, crash variants, the packed state).  No
    rule takes an argument naming its caller: a harness difference enters
    as data (an epoch, [fencing], an awaited set, a rulebook row) or
    stays in the driver.

    {b Where the drivers differ}, each pinned by a golden row or a
    conformance digest:
    - the awaited set of a quorum move-up: every polled participant in
      the runtime, the polled live sites not already at the target in the
      checker, the sites that reported [Prepared] in kv;
    - a runtime backup relays a [Decide] it receives at once, the checker
      later as its own announce step (interleaving granularity);
    - the checker's guards keep its graph finite: one poll per backup, no
      second move in flight, announce only when a live site needs it;
    - on a move, {!answer_move} tests the outcome before the epoch, the
      runtime's order; the checker can share it because a stale mover
      there is always dead (the leader is the lowest live site and sites
      never recover), so the reply it gets is dropped like the move;
    - kv answers moves itself, in its own order: it fences a stale move
      before it looks at its own outcome, and a final participant never
      replies with its outcome: it acks a move toward it ([P_done true]
      acks a move to the buffer state, [P_done false] any other) and
      ignores the rest; a working participant, or one that never heard
      of the transaction, acks a move down without moving;
    - kv's staleness under the oracle is by identity: a move from a site
      known to have crashed is stale whatever its epoch (epochs fence
      only under the detector);
    - every kv site decides by one rulebook row, site 2 of central 3PC at
      n = 3 ([?row] of {!open_round}), whatever its site count: a
      participant row's verdicts do not depend on n;
    - kv closes phase 1 on the verdict of the round's target, the state
      the backup held when the round opened; the runtime reads its state
      when the round closes.

    {b Where Paxos Commit's recovery differs} (its F=0 case is this
    protocol; {!Paxos} is not routed through these rules): its leader
    always runs phase 1 at a fresh ballot instead of deciding from its own
    state; an acceptor rejects a stale proposal and never answers one with
    an outcome; a phase closes on [f+1] acceptor replies, not on every
    awaited site (sound only under a reliable detector); the value is the
    highest-ballot accepted one, free instances abort, where {!quorum}
    counts prepared states and relies on monotone moves; outcomes are
    learned unfenced, as {!learn_decide} with [fencing = false]. *)

type site = Core.Types.site

(** How a backup decides.  [Skeen], the paper's rule: any single survivor
    terminates, but a lying detector (a partition) can split the decision.
    [Quorum]: {!quorum} over a majority of the sites, so two sides of a
    partition never decide differently, at the price of blocking
    minorities; moves are monotone (no demotion out of the buffer state),
    which makes it cascade-safe without ballots. *)
type rule = Skeen | Quorum

val majority : int -> int
(** [majority n = n/2 + 1]. *)

(** A backup's round in flight. *)
type phase =
  | Moving of { target : int; awaiting : site list }  (** phase 1 *)
  | Polling of { awaiting : site list; reps : (site * int) list }
      (** a quorum poll: reported state codes, newest first; the last is
          the backup's own at the poll's start *)

val drop : phase -> site -> phase
(** Stop awaiting a site: it acked, or it was reported down. *)

val report : phase -> site -> int -> phase
(** A poll records a site's first reported state code and stops awaiting
    it; a [Moving] round is unchanged. *)

type opening =
  | Announce of Core.Types.outcome  (** the backup is final: phase 1 is omitted *)
  | Start of phase  (** move everyone to the backup's state, or poll *)
  | Blocked  (** the Skeen verdict offers no safe outcome *)

val open_round :
  ?row:site ->
  rule ->
  Rulebook.t ->
  site:site ->
  code:int ->
  outcome:Core.Types.outcome option ->
  participants:site list ->
  opening
(** A newly elected backup's first step; [participants] are awaited.
    [code] is a state of the rulebook's site [row] (default [site]). *)

type move_answer =
  | Reply of Core.Types.outcome  (** already final: answer with the outcome *)
  | Ignore  (** recovered and undecided: the recovery protocol owns the site *)
  | Fence  (** below the epoch the site obeys: a deposed backup's order *)
  | Adopt of int  (** move, ack, and obey this epoch from now on *)

val answer_move :
  outcome:Core.Types.outcome option ->
  recovered:bool ->
  fencing:bool ->
  epoch_seen:int ->
  epoch:int ->
  move_answer

val close_phase1 :
  Rulebook.t ->
  site:site ->
  code:int ->
  awaiting:site list ->
  failed:(site -> bool) ->
  Rulebook.verdict option
(** The backup's verdict on its state once every awaited site has acked
    (left [awaiting]) or [failed]; [None] before. *)

(** The quorum rule's verdict on a complete poll. *)
type 'b view =
  | Seen of Core.Types.outcome  (** a final state is in the view *)
  | Move_up of 'b * int  (** a majority (this many) is prepared: move up to ['b], commit *)
  | Unprepared of int  (** a majority (this many) is not, and a buffer phase exists: abort *)
  | No_buffer  (** a prepared majority but no buffer state to move to: wait *)
  | Short of int * int  (** (prepared, unprepared), neither a majority: wait *)

val quorum : n_sites:int -> buffer:'b option -> Core.Types.state_kind list -> 'b view
(** Over the kinds of the polled states, the backup's own included.  A
    site is prepared in a buffer or commit state.  Without a buffer state
    (2PC) an unprepared majority proves nothing — the coordinator commits
    straight from its wait state, the unsoundness the model checker found
    — so the rule waits.  With one, the abort needs no phase 1: the
    unprepared count only shrinks, so no commit quorum ever existed. *)

type decide_answer = Fenced | Known | Learn

val learn_decide :
  fencing:bool -> epoch_seen:int -> epoch:int -> outcome:Core.Types.outcome option -> decide_answer
(** [Fenced] below the obeyed epoch (with [fencing]), [Known] if already
    final, else [Learn]. *)
