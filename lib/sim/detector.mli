(** Timeout-based failure suspicion over real {!World.send} traffic — the
    realistic replacement for the paper's reliable-detector oracle.

    Every site broadcasts a heartbeat each [heartbeat_period]; every
    delivered message (protocol traffic included) counts as evidence of
    life.  A peer silent for longer than [suspicion_timeout] is
    *suspected* ([on_suspect]); hearing from a suspected peer retracts
    the suspicion ([on_unsuspect]).  Unlike the oracle, a report is a
    revocable opinion — the layer above must stay safe when it is wrong.

    Suspecting a live peer bumps the [false_suspicions] counter; the
    crash-to-suspicion delay of a real crash lands in the
    [suspicion_latency] histogram.  A site waking from a
    {!World.schedule_stall} window refreshes its last-heard table rather
    than mass-suspecting peers whose messages were parked during the
    pause. *)

type site = World.site
type 'msg t

val create :
  ?heartbeat_period:float ->
  ?suspicion_timeout:float ->
  world:'msg World.t ->
  heartbeat:'msg ->
  is_heartbeat:('msg -> bool) ->
  on_suspect:('msg World.ctx -> site -> unit) ->
  on_unsuspect:('msg World.ctx -> site -> unit) ->
  unit ->
  'msg t
(** Defaults: heartbeat every 1.0, suspect after 5.0 of silence.
    Registers a crash hook on [world] for latency accounting, and
    registers itself with {!World.register_detector}: its heartbeat
    deliveries and its timer chains are background events, and
    {!settled} lets {!World.run} end the run at quiescence.
    @raise Invalid_argument when {!check_timing} refuses the two. *)

val settled : 'msg t -> bool
(** Can the heartbeats alone never again produce a suspicion or a
    retraction, provided no fault is left to fire?  True when
    [suspicion_timeout >= heartbeat_period + World.latency_jitter] and,
    for every live observer, every dead peer is suspected with none of
    its messages still in flight ({!World.last_delivery_from}), and every
    live peer is unsuspected and was heard within [suspicion_timeout -
    heartbeat_period - World.max_latency].  (Both margins are tightened
    by 1e-9 against float rounding.) *)

val check_timing : heartbeat_period:float -> suspicion_timeout:float -> (unit, string) result
(** [Error reason] unless [heartbeat_period] is positive and finite and
    [suspicion_timeout] exceeds it.  {!create} enforces this; front ends
    call it to refuse bad input before a run starts. *)

val start : 'msg t -> 'msg World.ctx -> unit
(** Arm the calling site's heartbeat and check timers and reset its view.
    Call exactly once per incarnation: from [on_start] and again from
    [on_restart] (the crashed incarnation's timers are already dead). *)

val heard : 'msg t -> self:site -> src:site -> unit
(** Feed one delivered message's provenance to the detector.  Call from
    [on_message] for every message, heartbeat or protocol.  Messages from
    the environment (site 0) are ignored. *)

val is_heartbeat : 'msg t -> 'msg -> bool
val suspects : 'msg t -> self:site -> site list
val is_suspected : 'msg t -> self:site -> peer:site -> bool
