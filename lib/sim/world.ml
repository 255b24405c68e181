(** The simulated distributed system.

    Implements exactly the paper's environmental assumptions (§"Design
    assumptions"): the network provides point-to-point communication and
    never fails; it can detect the failure of a site and reliably report it
    to every operational site.  Sites fail by crashing (fail-stop) and may
    later recover with their stable storage intact.

    Determinism: every run is a pure function of the seed — event ties are
    broken by sequence number and all randomness flows from {!Rng}.

    Partial state transitions (paper §"Site failures and atomicity of local
    state transitions") are expressible: a handler may call {!crash_self}
    between two [send]s, after which its remaining sends are dropped — the
    site "transmitted only part of the messages" of the transition. *)

type site = int

type 'msg event =
  | Deliver of { src : site; dst : site; dst_gen : int; msg : 'msg }
  | Timer of { site : site; gen : int; id : int; background : bool; callback : unit -> unit }
  | Crash of site
  | Recover of site
  | Detect_down of { observer : site; failed : site }
  | Detect_up of { observer : site; recovered : site }
  | False_down of { observer : site; suspect : site }
      (** a partition makes the detector wrongly report a live site as
          failed — the violation of the paper's reliability assumption *)

type msg_fault = Fault_drop | Fault_duplicate | Fault_delay of float [@@deriving show { with_path = false }, eq]

type trace_entry = { at : float; what : string }

type 'msg handlers = {
  on_start : 'msg ctx -> unit;  (** called once at time 0 *)
  on_message : 'msg ctx -> src:site -> 'msg -> unit;
  on_peer_down : 'msg ctx -> site -> unit;  (** reliable failure report *)
  on_peer_up : 'msg ctx -> site -> unit;  (** reliable recovery report *)
  on_restart : 'msg ctx -> unit;  (** this site restarts after a crash *)
}

and 'msg t = {
  n_sites : int;
  mutable now : float;
  queue : 'msg event Eventq.t;
  alive : bool array;
  generation : int array;  (** incarnation number; bumped on crash *)
  mutable handlers : 'msg handlers array;
      (** index: site, resolved once by {!run}; slot 0 (the environment)
          is unused *)
  mutable ctxs : 'msg ctx array;
      (** index: site, built once by {!create}; slot 0 is the
          environment *)
  site_list : site list;
  detection_delay : float;
  rng : Rng.t;
  metrics : Metrics.t;
  msg_to_string : 'msg -> string;
  mutable trace : trace_entry list;  (** reverse order *)
  mutable tracing : bool;
  mutable next_timer_id : int;
  mutable cancelled : Bytes.t;
      (** bitset by timer id, grown on demand: the ids cancelled before
          their fire time.  A bit is cleared when its timer event
          dispatches (fired or skipped). *)
  mutable pending_cancels : int;  (** set bits in [cancelled] *)
  mutable stopped : bool;
  mutable partitions : partition list;
  mutable send_seq : int;
      (** global count of send attempts from live senders; the key space
          of the message-fault schedule below *)
  mutable fault_at : int array;
      (** the armed message-fault indices, ascending and unique *)
  mutable fault_kind : msg_fault array;  (** the fault armed at each [fault_at] index *)
  mutable fault_next : int;
      (** cursor into [fault_at]: every entry before it names a send index
          already passed.  [send_seq] only grows, so a send compares one
          armed index instead of looking its own up. *)
  mutable crash_hooks : (site -> unit) list;
      (** invoked (registration order) at the instant a site crashes,
          before anything observes the failure: the durability layer loses
          its unsynced tail here, the failure detector timestamps the
          crash for suspicion-latency accounting *)
  mutable delay_windows : window list;
      (** latency spikes: extra delay on sends touching a site *)
  mutable stall_windows : window list;
      (** "GC pauses": events targeting the site are deferred to window end *)
  mutable hb_loss_windows : window list;
      (** heartbeat-loss bursts, queried by the failure detector *)
  mutable fault_horizon : float;
      (** the latest end of any delay, stall or heartbeat-loss window and
          of any partition; [neg_infinity] when none is scheduled *)
  mutable last_msg_fault : int;  (** the highest armed message-fault index; -1 if none *)
  mutable detector : 'msg detector option;
      (** the registered failure detector; [None] in oracle mode, where
          no event is classified *)
  mutable background : int;
      (** pending background events, counted only with a detector
          registered: the detector's own timers and heartbeat deliveries *)
  last_delivery : float array;
      (** index: sending site; the latest time a message it sent is
          scheduled to land, kept only with a detector registered *)
}

and 'msg detector = { is_heartbeat : 'msg -> bool; settled : unit -> bool }

and window = { w_site : site; w_from : float; w_until : float; w_extra : float }

and partition = { p_from : float; p_until : float; p_group : (site * int) list }

and 'msg ctx = { world : 'msg t; self : site }

(* Every message takes [min_latency] plus a uniform draw below
   [latency_jitter]: the bound the quiescence rule's proof rests on. *)
let min_latency = 1.0
let latency_jitter = 0.1
let max_latency = min_latency +. latency_jitter

(* Every label this module counts under, interned once. *)
let l_messages_sent = Metrics.label "messages_sent"
let l_messages_partitioned = Metrics.label "messages_partitioned"
let l_messages_chaos_dropped = Metrics.label "messages_chaos_dropped"
let l_messages_duplicated = Metrics.label "messages_duplicated"
let l_messages_chaos_delayed = Metrics.label "messages_chaos_delayed"
let l_events_deliver = Metrics.label "events_deliver"
let l_messages_delivered = Metrics.label "messages_delivered"
let l_messages_dropped = Metrics.label "messages_dropped"
let l_events_timer = Metrics.label "events_timer"
let l_timers_cancelled = Metrics.label "timers_cancelled"
let l_crashes = Metrics.label "crashes"
let l_recoveries = Metrics.label "recoveries"
let l_events_crash = Metrics.label "events_crash"
let l_events_recover = Metrics.label "events_recover"
let l_events_detect_down = Metrics.label "events_detect_down"
let l_events_false_down = Metrics.label "events_false_down"
let l_false_suspicions = Metrics.label "false_suspicions"
let l_events_detect_up = Metrics.label "events_detect_up"
let l_events_stalled = Metrics.label "events_stalled"
let l_queue_depth_hwm = Metrics.label "queue_depth_hwm"

(** [create ~n_sites ~seed ~msg_to_string ()] builds a world of [n_sites]
    sites (numbered 1..n), all initially operational.

    @param detection_delay how long after a crash the detector reports it;
           default 2.0 *)
let create ?(detection_delay = 2.0) ~n_sites ~seed ~msg_to_string () =
  if n_sites < 1 then invalid_arg "World.create: need at least one site";
  let w =
    {
      n_sites;
      now = 0.0;
      queue = Eventq.create ();
      alive = Array.make (n_sites + 1) true;
      generation = Array.make (n_sites + 1) 0;
      handlers = [||];
      ctxs = [||];
      site_list = List.init n_sites (fun i -> i + 1);
      detection_delay;
      rng = Rng.create ~seed;
      metrics = Metrics.create ();
      msg_to_string;
      trace = [];
      tracing = false;
      next_timer_id = 0;
      cancelled = Bytes.empty;
      pending_cancels = 0;
      stopped = false;
      partitions = [];
      send_seq = 0;
      fault_at = [||];
      fault_kind = [||];
      fault_next = 0;
      crash_hooks = [];
      delay_windows = [];
      stall_windows = [];
      hb_loss_windows = [];
      fault_horizon = neg_infinity;
      last_msg_fault = -1;
      detector = None;
      background = 0;
      last_delivery = Array.make (n_sites + 1) neg_infinity;
    }
  in
  w.ctxs <- Array.init (n_sites + 1) (fun self -> { world = w; self });
  w

let now w = w.now
let rng w = w.rng
let metrics w = w.metrics
let sites w = w.site_list
let set_tracing w b = w.tracing <- b
let tracing w = w.tracing

let trace_entries w = List.rev w.trace

(* [record] renders nothing with tracing off, but its caller has already
   evaluated the arguments (a [msg_to_string] call, the format closures),
   so every per-event call site checks [w.tracing] first. *)
let record w fmt =
  if w.tracing then
    Fmt.kstr (fun s -> w.trace <- { at = w.now; what = s } :: w.trace) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let check_site w s =
  if s < 1 || s > w.n_sites then Fmt.invalid_arg "World: site %d out of range 1..%d" s w.n_sites

(** The perfect failure detector's current view, queryable by any site. *)
let is_alive w s =
  check_site w s;
  w.alive.(s)

let operational_sites w = List.filter (is_alive w) (sites w)

(* The group index of site [s] in a partition, -1 if it is in none. *)
let rec group_of s = function [] -> -1 | (s', g) :: rest -> if s' = s then g else group_of s rest

(* Top-level walks with explicit arguments: a local closure over [w]
   would be allocated on every send. *)
let rec separated_in w a b = function
  | [] -> false
  | p :: rest ->
      (w.now >= p.p_from && w.now < p.p_until
      &&
      let ga = group_of a p.p_group and gb = group_of b p.p_group in
      ga >= 0 && gb >= 0 && ga <> gb)
      || separated_in w a b rest

(* Are [a] and [b] currently separated by an active partition? *)
let separated w a b = a <> b && separated_in w a b w.partitions

(** [schedule_partition w ~from_t ~until_t groups] splits the network into
    the given site groups during [from_t, until_t): messages between
    groups are silently dropped, and — the crucial violation of the
    paper's assumption — after the detection delay each side's failure
    detector wrongly reports the other side's sites as failed.  When the
    partition heals the detector issues recovery reports. *)
let schedule_partition w ~from_t ~until_t groups =
  let p_group = List.concat (List.mapi (fun g ss -> List.map (fun s -> (s, g)) ss) groups) in
  List.iter (fun (s, _) -> check_site w s) p_group;
  w.fault_horizon <- Float.max w.fault_horizon until_t;
  w.partitions <- { p_from = from_t; p_until = until_t; p_group } :: w.partitions;
  List.iter
    (fun (a, ga) ->
      List.iter
        (fun (b, gb) ->
          if a <> b && ga <> gb then begin
            Eventq.push w.queue ~time:(from_t +. w.detection_delay)
              (False_down { observer = a; suspect = b });
            Eventq.push w.queue ~time:(until_t +. w.detection_delay)
              (Detect_up { observer = a; recovered = b })
          end)
        p_group)
    p_group

(* Over faults sorted by index, each index's last binding, as
   [Hashtbl.replace] kept it: counted, then written into [at]/[kind]. *)
let rec count_last n = function
  | (a, _) :: ((b, _) :: _ as rest) when a = b -> count_last n rest
  | _ :: rest -> count_last (n + 1) rest
  | [] -> n

let rec fill_last at kind i = function
  | (a, _) :: ((b, _) :: _ as rest) when a = b -> fill_last at kind i rest
  | (nth, f) :: rest ->
      at.(i) <- nth;
      kind.(i) <- f;
      fill_last at kind (i + 1) rest
  | [] -> ()

let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
  | _ -> true

(** [send ctx ~dst msg] puts [msg] on the wire.  Messages from a crashed
    sender are dropped (models partial transmission when a handler crashes
    itself mid-broadcast); messages sent across an active partition are
    silently dropped at the sending edge (the partition decision belongs
    to the moment of transmission — a partition that heals before arrival
    does not resurrect the message, and a message already in flight when
    a partition starts is not retroactively lost); messages reach [dst]
    only if it is still the same incarnation when the message arrives. *)
let set_msg_faults w faults =
  let sorted =
    if ascending faults then faults
    else List.stable_sort (fun (x, _) (y, _) -> Int.compare x y) faults
  in
  let n = count_last 0 sorted in
  w.fault_at <- Array.make n 0;
  w.fault_kind <- Array.make n Fault_drop;
  fill_last w.fault_at w.fault_kind 0 sorted;
  w.fault_next <- 0;
  w.last_msg_fault <- (if n = 0 then -1 else w.fault_at.(n - 1))

(* The fault armed at send index [nth], moving the cursor past it. *)
let advance_faults w nth =
  let armed = w.fault_at in
  let i = ref w.fault_next in
  while !i < Array.length armed && Array.unsafe_get armed !i < nth do
    incr i
  done;
  w.fault_next <- !i;
  if !i < Array.length armed && Array.unsafe_get armed !i = nth then begin
    w.fault_next <- !i + 1;
    Some (Array.unsafe_get w.fault_kind !i)
  end
  else None

let[@inline] msg_fault_at w nth = if nth > w.last_msg_fault then None else advance_faults w nth

let sends_attempted w = w.send_seq
let add_crash_hook w f = w.crash_hooks <- w.crash_hooks @ [ f ]

(* ---- detector-fault windows ---- *)

let open_at w win = w.now >= win.w_from && w.now < win.w_until

let rec in_window w site = function
  | [] -> false
  | win :: rest -> (win.w_site = site && open_at w win) || in_window w site rest

(** [schedule_latency_spike w ~site ~from_t ~until_t ~extra] adds [extra]
    latency to every message sent from or to [site] while the window is
    open (judged at send time, like partitions).  Does not consume
    message-fault indices, so armed fault schedules replay unchanged. *)
let schedule_latency_spike w ~site ~from_t ~until_t ~extra =
  check_site w site;
  w.fault_horizon <- Float.max w.fault_horizon until_t;
  w.delay_windows <- { w_site = site; w_from = from_t; w_until = until_t; w_extra = extra } :: w.delay_windows

(* Summed in list order from 0.0, so the delivery time is bit-identical
   whatever the number of windows (exactly 0.0 with none armed). *)
let rec sum_spikes w ~src ~dst acc = function
  | [] -> acc
  | win :: rest ->
      let hit = (win.w_site = src || win.w_site = dst) && open_at w win in
      let acc = if hit then acc +. win.w_extra else acc in
      sum_spikes w ~src ~dst acc rest

let spike_extra w ~src ~dst = sum_spikes w ~src ~dst 0.0 w.delay_windows

(** [schedule_stall w ~site ~from_t ~until_t] freezes [site] — a "GC
    pause": deliveries and timers targeting it while the window is open
    are deferred to the window's end instead of dispatching.  The site
    does not crash; peers simply stop hearing from it. *)
let schedule_stall w ~site ~from_t ~until_t =
  check_site w site;
  w.fault_horizon <- Float.max w.fault_horizon until_t;
  w.stall_windows <- { w_site = site; w_from = from_t; w_until = until_t; w_extra = 0.0 } :: w.stall_windows

(* The latest end of an open stall window at [site]; [neg_infinity] when
   none is open. *)
let rec latest_stall_end w site acc = function
  | [] -> acc
  | win :: rest ->
      let acc = if win.w_site = site && open_at w win then Float.max acc win.w_until else acc in
      latest_stall_end w site acc rest

let stalled_until w site = latest_stall_end w site neg_infinity w.stall_windows

(** [schedule_hb_loss w ~site ~from_t ~until_t] suppresses failure-detector
    heartbeats sent by [site] during the window.  Protocol messages are
    untouched — the channel stays reliable while the detector starves,
    which is exactly the false-suspicion scenario. *)
let schedule_hb_loss w ~site ~from_t ~until_t =
  check_site w site;
  w.fault_horizon <- Float.max w.fault_horizon until_t;
  w.hb_loss_windows <- { w_site = site; w_from = from_t; w_until = until_t; w_extra = 0.0 } :: w.hb_loss_windows

let hb_suppressed w site = in_window w site w.hb_loss_windows

(* ---- background events ---- *)

(** [register_detector w ~is_heartbeat ~settled] makes [w] tell the
    failure detector's traffic apart from the rest: its heartbeat
    deliveries and the timers armed by {!set_background_timer}.  Call
    before {!run}. *)
let register_detector w ~is_heartbeat ~settled = w.detector <- Some { is_heartbeat; settled }

let is_background d = function
  | Deliver { msg; _ } -> d.is_heartbeat msg
  | Timer { background; _ } -> background
  | Crash _ | Recover _ | Detect_down _ | Detect_up _ | False_down _ -> false

(* Deliveries and timers are pushed through here, a stall's re-push
   included.  With a detector registered it counts background events and
   keeps each sender's latest delivery time; in oracle mode it costs one
   untaken branch. *)
let push w ~time ev =
  (match w.detector with
  | None -> ()
  | Some d -> (
      if is_background d ev then w.background <- w.background + 1;
      match ev with
      | Deliver { src; _ } -> if time > w.last_delivery.(src) then w.last_delivery.(src) <- time
      | _ -> ()));
  Eventq.push w.queue ~time ev

let last_delivery_from w s = w.last_delivery.(s)

(* Latency spikes are judged at send time, like partitions. *)
let enqueue_delivery w ~src ~dst ~extra msg =
  let delay = min_latency +. Rng.float w.rng latency_jitter in
  let spike = spike_extra w ~src ~dst in
  push w ~time:(w.now +. delay +. extra +. spike) (Deliver { src; dst; dst_gen = w.generation.(dst); msg })

let send ctx ~dst msg =
  let w = ctx.world and src = ctx.self in
  check_site w dst;
  if w.alive.(src) then begin
    (* Every send attempt from a live sender consumes one index of the
       fault schedule, whether or not a partition then drops it — the
       numbering must not depend on partition state. *)
    let nth = w.send_seq in
    w.send_seq <- nth + 1;
    Metrics.bump w.metrics l_messages_sent;
    if separated w src dst then begin
      Metrics.bump w.metrics l_messages_partitioned;
      if w.tracing then record w "partition drops %d->%d %s" src dst (w.msg_to_string msg)
    end
    else
      match msg_fault_at w nth with
      | Some Fault_drop ->
          Metrics.bump w.metrics l_messages_chaos_dropped;
          if w.tracing then
            record w "chaos drops send #%d %d->%d %s" nth src dst (w.msg_to_string msg)
      | Some Fault_duplicate ->
          Metrics.bump w.metrics l_messages_duplicated;
          if w.tracing then
            record w "send %d->%d %s (chaos duplicates #%d)" src dst (w.msg_to_string msg) nth;
          enqueue_delivery w ~src ~dst ~extra:0.0 msg;
          enqueue_delivery w ~src ~dst ~extra:0.0 msg
      | Some (Fault_delay extra) ->
          Metrics.bump w.metrics l_messages_chaos_delayed;
          if w.tracing then
            record w "send %d->%d %s (chaos delays #%d by %.2f)" src dst (w.msg_to_string msg) nth
              extra;
          enqueue_delivery w ~src ~dst ~extra msg
      | None ->
          if w.tracing then record w "send %d->%d %s" src dst (w.msg_to_string msg);
          enqueue_delivery w ~src ~dst ~extra:0.0 msg
  end
  else if w.tracing then
    record w "send-dropped (sender %d down) ->%d %s" src dst (w.msg_to_string msg)

let rec broadcast ctx ~dsts msg =
  match dsts with
  | [] -> ()
  | dst :: rest ->
      send ctx ~dst msg;
      broadcast ctx ~dsts:rest msg

(** [inject w ~dst ~at msg] delivers [msg] to [dst] at absolute time [at],
    from outside the system (the environment/client, site 0).  Used for the
    initial transaction requests, whose distribution mechanism the paper
    deliberately leaves unmodelled. *)
let inject w ~dst ~at msg =
  check_site w dst;
  push w ~time:at (Deliver { src = 0; dst; dst_gen = w.generation.(dst); msg })

let arm_timer ctx ~background ~delay f =
  let w = ctx.world in
  let id = w.next_timer_id in
  w.next_timer_id <- id + 1;
  push w ~time:(w.now +. delay)
    (Timer { site = ctx.self; gen = w.generation.(ctx.self); id; background; callback = f });
  id

(** [set_timer ctx ~delay f] schedules [f] to run at [now + delay] unless
    the site crashes first or the timer is cancelled. *)
let set_timer ctx ~delay f = arm_timer ctx ~background:false ~delay f

(** [set_background_timer ctx ~delay f] is {!set_timer} for the failure
    detector's own timer chains: the event counts as background. *)
let set_background_timer ctx ~delay f = ignore (arm_timer ctx ~background:true ~delay f)

let cancel_timer ctx id =
  let w = ctx.world in
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  if byte >= Bytes.length w.cancelled then begin
    let b = Bytes.make (max (byte + 1) (2 * Bytes.length w.cancelled)) '\000' in
    Bytes.blit w.cancelled 0 b 0 (Bytes.length w.cancelled);
    w.cancelled <- b
  end;
  let old = Bytes.get_uint8 w.cancelled byte in
  if old land bit = 0 then begin
    Bytes.set_uint8 w.cancelled byte (old lor bit);
    w.pending_cancels <- w.pending_cancels + 1
  end

(* Clear [id]'s cancel bit; was it set? *)
let take_cancel w id =
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  if w.pending_cancels = 0 || byte >= Bytes.length w.cancelled then false
  else
    let old = Bytes.get_uint8 w.cancelled byte in
    if old land bit = 0 then false
    else begin
      Bytes.set_uint8 w.cancelled byte (old lxor bit);
      w.pending_cancels <- w.pending_cancels - 1;
      true
    end

let schedule_crash w ~at s =
  check_site w s;
  Eventq.push w.queue ~time:at (Crash s)

let schedule_recovery w ~at s =
  check_site w s;
  Eventq.push w.queue ~time:at (Recover s)

let do_crash w s =
  if w.alive.(s) then begin
    w.alive.(s) <- false;
    w.generation.(s) <- w.generation.(s) + 1;
    Metrics.bump w.metrics l_crashes;
    if w.tracing then record w "CRASH site %d" s;
    List.iter (fun f -> f s) w.crash_hooks;
    (* The network reliably reports the failure to every operational site
       after the detection delay. *)
    List.iter
      (fun observer ->
        if observer <> s then
          Eventq.push w.queue ~time:(w.now +. w.detection_delay)
            (Detect_down { observer; failed = s }))
      (sites w)
  end

(** [crash_self ctx] crashes the calling site immediately: its pending
    timers die, and any [send] it performs later in the same handler is
    dropped. *)
let crash_self ctx = do_crash ctx.world ctx.self

let do_recover w s =
  if not w.alive.(s) then begin
    w.alive.(s) <- true;
    Metrics.bump w.metrics l_recoveries;
    if w.tracing then record w "RECOVER site %d" s;
    w.handlers.(s).on_restart w.ctxs.(s);
    List.iter
      (fun observer ->
        if observer <> s then
          Eventq.push w.queue ~time:(w.now +. w.detection_delay)
            (Detect_up { observer; recovered = s }))
      (sites w)
  end

let stop w = w.stopped <- true

(* The site an event executes at, for stall deferral; 0 for crashes and
   recoveries, which are acts of the environment, not of the site's
   processor, so a stalled site still crashes (and recovers) on time. *)
let event_target = function
  | Deliver { dst; _ } -> dst
  | Timer { site; _ } -> site
  | Detect_down { observer; _ } | Detect_up { observer; _ } | False_down { observer; _ } -> observer
  | Crash _ | Recover _ -> 0

let dispatch_now w = function
  | Deliver { src; dst; dst_gen; msg } ->
      (* the partition check happened at send time: a message on the wire
         is past the network's drop decision *)
      Metrics.bump w.metrics l_events_deliver;
      if w.alive.(dst) && w.generation.(dst) = dst_gen then begin
        Metrics.bump w.metrics l_messages_delivered;
        if w.tracing then record w "deliver %d->%d %s" src dst (w.msg_to_string msg);
        w.handlers.(dst).on_message w.ctxs.(dst) ~src msg
      end
      else begin
        Metrics.bump w.metrics l_messages_dropped;
        if w.tracing then record w "drop %d->%d %s" src dst (w.msg_to_string msg)
      end
  | Timer { site; gen; id; callback; _ } ->
      Metrics.bump w.metrics l_events_timer;
      let cancelled = take_cancel w id in
      if cancelled then Metrics.bump w.metrics l_timers_cancelled;
      if (not cancelled) && w.alive.(site) && w.generation.(site) = gen then callback ()
  | Crash s ->
      Metrics.bump w.metrics l_events_crash;
      do_crash w s
  | Recover s ->
      Metrics.bump w.metrics l_events_recover;
      do_recover w s
  | Detect_down { observer; failed } ->
      Metrics.bump w.metrics l_events_detect_down;
      if w.alive.(observer) && not w.alive.(failed) then begin
        if w.tracing then record w "site %d detects failure of site %d" observer failed;
        w.handlers.(observer).on_peer_down w.ctxs.(observer) failed
      end
  | False_down { observer; suspect } ->
      Metrics.bump w.metrics l_events_false_down;
      (* only while the partition still separates them: a short-lived
         partition that healed before detection stays invisible *)
      if w.alive.(observer) && separated w observer suspect then begin
        Metrics.bump w.metrics l_false_suspicions;
        if w.tracing then record w "site %d FALSELY suspects site %d (partition)" observer suspect;
        w.handlers.(observer).on_peer_down w.ctxs.(observer) suspect
      end
  | Detect_up { observer; recovered } ->
      Metrics.bump w.metrics l_events_detect_up;
      if w.alive.(observer) && w.alive.(recovered) then begin
        if w.tracing then record w "site %d detects recovery of site %d" observer recovered;
        w.handlers.(observer).on_peer_up w.ctxs.(observer) recovered
      end

(* A stalled site's processor does nothing while the window is open:
   events targeting it are parked and re-enqueued at the window's end,
   where they dispatch in one burst — the wake-up after a GC pause. *)
let dispatch w ev =
  match w.stall_windows with
  | [] -> dispatch_now w ev
  | _ ->
      let s = event_target ev in
      let until_t = if s = 0 then neg_infinity else stalled_until w s in
      if until_t > w.now then begin
        Metrics.bump w.metrics l_events_stalled;
        if w.tracing then record w "stall defers an event at site %d to %.2f" s until_t;
        push w ~time:until_t ev
      end
      else dispatch_now w ev

(* The quiescence rule of detector mode: nothing but detector traffic is
   pending, no scheduled fault can still fire (heartbeats use up send
   indices, so a message fault at or beyond [send_seq] could still drop
   one), and the detector proves that its traffic cannot produce another
   suspicion or retraction.  Judged only between instants, when every
   event at [now] has dispatched. *)
let quiescent w =
  match w.detector with
  | None -> false
  | Some d ->
      w.background = Eventq.length w.queue
      && w.now >= w.fault_horizon
      && w.last_msg_fault < w.send_seq
      && d.settled ()

(** [run w ~handlers ?until ()] registers handlers, starts every site, and
    processes events in timestamp order until quiescence, [until] (default
    100_000.0 time units), or {!stop}.  Returns the final simulation
    time.  [handlers] is called once per site, here: dispatch then looks
    each site's record up in an array. *)
let run w ~handlers ?(until = 100_000.0) () =
  w.handlers <- Array.make (w.n_sites + 1) (handlers 1);
  for s = 2 to w.n_sites do
    w.handlers.(s) <- handlers s
  done;
  for s = 1 to w.n_sites do
    if w.alive.(s) then w.handlers.(s).on_start w.ctxs.(s)
  done;
  let q = w.queue in
  let running = ref true in
  while !running && not w.stopped do
    Metrics.peak w.metrics l_queue_depth_hwm (Eventq.length q);
    if Eventq.is_empty q then running := false
    else begin
      let time = Eventq.top_time q in
      if time > until || (time > w.now && quiescent w) then running := false
      else begin
        let ev = Eventq.pop_top q in
        (match w.detector with
        | Some d when is_background d ev -> w.background <- w.background - 1
        | Some _ | None -> ());
        if w.now < time then w.now <- time;
        dispatch w ev
      end
    end
  done;
  w.now

let pp_trace ppf w =
  List.iter (fun e -> Fmt.pf ppf "%8.2f  %s@," e.at e.what) (trace_entries w)
