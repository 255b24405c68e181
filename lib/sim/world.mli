(** The simulated distributed system, implementing exactly the paper's
    environmental assumptions: reliable point-to-point communication, a
    network that detects site failures and reliably reports them to every
    operational site, fail-stop crashes with later recovery, and stable
    storage managed by the layers above.

    Partial state transitions are expressible: a handler may call
    {!crash_self} between two sends, after which its remaining sends are
    dropped — the site "transmitted only part of the messages" of the
    transition. *)

type site = int

type msg_fault =
  | Fault_drop  (** the message never makes it onto the wire *)
  | Fault_duplicate  (** two copies are enqueued, each with its own latency *)
  | Fault_delay of float  (** extra latency on top of the normal draw — reordering *)
[@@deriving show, eq]

type trace_entry = { at : float; what : string }

type 'msg t

type 'msg ctx = { world : 'msg t; self : site }
(** The capability handed to handlers: the world plus the identity of the
    site the handler runs at. *)

type 'msg handlers = {
  on_start : 'msg ctx -> unit;  (** called once at time 0 *)
  on_message : 'msg ctx -> src:site -> 'msg -> unit;
  on_peer_down : 'msg ctx -> site -> unit;  (** reliable failure report *)
  on_peer_up : 'msg ctx -> site -> unit;  (** reliable recovery report *)
  on_restart : 'msg ctx -> unit;  (** this site restarts after a crash *)
}

val create :
  ?detection_delay:float ->
  n_sites:int ->
  seed:int ->
  msg_to_string:('msg -> string) ->
  unit ->
  'msg t
(** A world of [n_sites] sites (numbered 1..n), all initially
    operational.  Every message takes {!min_latency} plus a uniform draw
    in \[0, {!latency_jitter}), plus any fault's extra delay; the default
    detection delay is 2.0.  Deterministic in [seed]. *)

val min_latency : float
(** 1.0 *)

val latency_jitter : float
(** 0.1: a message's latency is below [min_latency + latency_jitter]
    unless a fault delays it. *)

val max_latency : float
(** [min_latency +. latency_jitter] *)

val now : 'msg t -> float
val rng : 'msg t -> Rng.t
val metrics : 'msg t -> Metrics.t
val sites : 'msg t -> site list
val is_alive : 'msg t -> site -> bool
(** The perfect failure detector's current view. *)

val operational_sites : 'msg t -> site list

val send : 'msg ctx -> dst:site -> 'msg -> unit
(** Messages from a crashed sender are dropped (partial transmission);
    messages reach [dst] only if it is still the same incarnation on
    arrival. *)

val set_msg_faults : 'msg t -> (int * msg_fault) list -> unit
(** Arm message-level faults keyed by global send index: the [nth] send
    attempt from a live sender (0-based, counted across all sites and
    whether or not a partition drops it) suffers the paired fault.
    Indices beyond the run's actual send count never fire.  Replaces any
    previously armed schedule. *)

val sends_attempted : 'msg t -> int
(** How many fault-indexable send attempts have happened so far. *)

val add_crash_hook : 'msg t -> (site -> unit) -> unit
(** [f site] runs at the instant [site] crashes, before any other site
    can observe the failure — the durability layer registers here so a
    crash drops the site's unsynced log tail, and the failure detector
    registers here to timestamp real crashes for suspicion-latency
    accounting.  Hooks compose: each registration appends, and all hooks
    run in registration order on every crash. *)

val schedule_latency_spike :
  'msg t -> site:site -> from_t:float -> until_t:float -> extra:float -> unit
(** Add [extra] latency to every message sent from or to [site] while the
    window \[[from_t], [until_t]) is open, judged at send time like
    partitions.  Does not consume message-fault indices, so armed fault
    schedules replay unchanged. *)

val schedule_stall :
  'msg t -> site:site -> from_t:float -> until_t:float -> unit
(** Freeze [site]'s processor — a "GC pause" — during the window:
    deliveries, timers and detector reports targeting it are deferred to
    the window's end and then dispatch in one burst.  The site does not
    crash, and crashes/recoveries scheduled inside the window still
    happen on time. *)

val schedule_hb_loss :
  'msg t -> site:site -> from_t:float -> until_t:float -> unit
(** Suppress failure-detector heartbeats sent by [site] during the
    window.  Protocol messages are untouched: the channel stays reliable
    while the detector starves — the canonical false-suspicion fault. *)

val hb_suppressed : 'msg t -> site -> bool
(** Is the site currently inside a heartbeat-loss window?  Queried by
    {!Detector} before each heartbeat broadcast. *)

val broadcast : 'msg ctx -> dsts:site list -> 'msg -> unit

val inject : 'msg t -> dst:site -> at:float -> 'msg -> unit
(** Delivery from the environment (site 0) at absolute time [at] — the
    initial transaction requests. *)

val set_timer : 'msg ctx -> delay:float -> (unit -> unit) -> int
(** Fires unless the site crashes first or the timer is cancelled;
    returns a cancellation id. *)

val set_background_timer : 'msg ctx -> delay:float -> (unit -> unit) -> unit
(** {!set_timer} for the failure detector's own heartbeat and check
    chains: with a detector registered, the timer counts as a background
    event for the quiescence rule of {!run}. *)

val register_detector : 'msg t -> is_heartbeat:('msg -> bool) -> settled:(unit -> bool) -> unit
(** Register the failure detector ({!Detector.create} does this).  From
    then on the world counts its pending background events (deliveries
    of messages [is_heartbeat] accepts, and background timers, each
    stall deferral's re-push counting again) and the latest scheduled
    delivery time of each sender's messages ({!last_delivery_from}), and
    {!run} may end a run at quiescence as it describes.  [settled ()]
    must hold only when the detector's traffic, left alone with no
    further fault, can never produce another suspicion or retraction.
    A world with no detector registered classifies no event. *)

val last_delivery_from : 'msg t -> site -> float
(** The latest time any message sent by the site is scheduled to land
    (stall deferrals included); [neg_infinity] when it has sent none.
    Tracked only with a detector registered. *)

val cancel_timer : 'msg ctx -> int -> unit
val schedule_crash : 'msg t -> at:float -> site -> unit
val schedule_recovery : 'msg t -> at:float -> site -> unit

val schedule_partition : 'msg t -> from_t:float -> until_t:float -> site list list -> unit
(** Split the network into the given groups during [from_t, until_t):
    messages between groups are dropped and — violating the paper's
    reliable-detector assumption — each side's detector wrongly reports
    the other side's sites as failed after the detection delay.  Healing
    issues recovery reports.  Used by the ablation experiment that shows
    why the paper must assume a partition-free network. *)

val crash_self : 'msg ctx -> unit
(** Immediate crash of the calling site: pending timers die, later sends
    in the same handler are dropped. *)

val stop : 'msg t -> unit

val run : 'msg t -> handlers:(site -> 'msg handlers) -> ?until:float -> unit -> float
(** Registers handlers, starts every site, processes events in timestamp
    order until quiescence, [until] (default 100_000.0), or {!stop}.
    Returns the final simulation time.  [handlers] is called once per
    site, before any site starts; every later event at that site
    dispatches to the same record.

    Quiescence is an empty queue.  With a detector registered
    ({!register_detector}), whose heartbeats never stop, the run also
    ends at the first instant, once every event at it has dispatched,
    when all of these hold: every pending event is background; [now] is
    at or past the end of every delay, stall and heartbeat-loss window
    and every partition; no message fault is armed at or beyond the next
    send index; and the detector is settled.  From there on the run
    would only exchange heartbeats, so its trace up to the stop is the
    whole trace's prefix and nothing else it decides changes. *)

val set_tracing : 'msg t -> bool -> unit

val tracing : 'msg t -> bool
(** Is tracing on?  Hot paths check this before calling {!record}, whose
    arguments would otherwise be evaluated for nothing. *)

val trace_entries : 'msg t -> trace_entry list
val record : 'msg t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append a formatted line to the trace (no-op unless tracing). *)

val pp_trace : Format.formatter -> 'msg t -> unit
