(** Timeout-based failure suspicion over real {!World.send} traffic.

    The paper assumes the network *reliably* reports failures; this module
    is the realistic replacement: every site periodically broadcasts a
    heartbeat message, counts every delivered message (protocol or
    heartbeat) as evidence its sender is up, and *suspects* a peer it has
    not heard from within the suspicion timeout.  Hearing from a suspected
    peer again retracts the suspicion ([on_unsuspect]) — unlike the
    oracle, a report here is a revocable opinion, not a fact.

    Stall-wake grace: a site returning from a "GC pause"
    ({!World.schedule_stall}) sees its deferred check timer fire *late*.
    At that moment its own clocks of every peer are stale even though the
    peers were talking the whole time, so a late check refreshes the
    last-heard table instead of mass-suspecting the world.  (The peers
    suspecting the *stalled* site is the interesting, correct behaviour;
    the waking site suspecting everyone else would be pure noise.)

    Accounting: suspecting a site that is actually alive increments the
    [false_suspicions] counter; suspecting one that really crashed
    records the crash-to-suspicion delay in the [suspicion_latency]
    histogram (crash instants observed via {!World.add_crash_hook}). *)

type site = World.site

let l_false_suspicions = Metrics.label "false_suspicions"
let l_suspicion_latency = Metrics.label "suspicion_latency"

type 'msg per_site = {
  last_heard : float array;  (** index: peer site; absolute sim time *)
  suspected : bool array;
}

type 'msg t = {
  world : 'msg World.t;
  heartbeat_period : float;
  suspicion_timeout : float;
  heartbeat : 'msg;
  is_heartbeat : 'msg -> bool;
  on_suspect : 'msg World.ctx -> site -> unit;
  on_unsuspect : 'msg World.ctx -> site -> unit;
  state : 'msg per_site array;  (** index: the observing site *)
  crashed_at : float array;  (** last real crash instant per site, -1 if never *)
  peers : site list array;  (** index: site; every other site *)
  check_due : float array;
      (** index: site; when its pending check timer is due to fire *)
}

(* A heartbeat timer with a zero period re-arms at the instant it fires,
   so the clock never advances and the run never ends. *)
let check_timing ~heartbeat_period ~suspicion_timeout =
  if not (Float.is_finite heartbeat_period && heartbeat_period > 0.0) then
    Error "heartbeat_period must be positive and finite"
  else if not (suspicion_timeout > heartbeat_period) then
    Error "suspicion_timeout must exceed heartbeat_period"
  else Ok ()

(* Float rounding of the timer and delivery times, absorbed by the
   settled rule's margins. *)
let slack = 1e-9

(* Can the heartbeats alone ever produce another suspicion or
   retraction?  No fault is left to fire ({!World.run} checks that), so
   a live peer's next heartbeat is sent within one period and lands
   within [max_latency] of that, and successive ones land at most
   [heartbeat_period + latency_jitter] apart.  A live observer therefore
   never suspects a live peer it heard recently enough, provided the
   timeout covers that gap; and it never retracts the suspicion of a dead
   peer none of whose messages is still in flight. *)
let rec peers_settled t st now budget = function
  | [] -> true
  | p :: rest ->
      (if World.is_alive t.world p then
         (not st.suspected.(p)) && now -. st.last_heard.(p) <= budget
       else st.suspected.(p) && World.last_delivery_from t.world p <= now)
      && peers_settled t st now budget rest

let settled t =
  let now = World.now t.world in
  let budget = t.suspicion_timeout -. t.heartbeat_period -. World.max_latency -. slack in
  t.suspicion_timeout -. t.heartbeat_period >= World.latency_jitter +. slack
  && List.for_all
       (fun o -> (not (World.is_alive t.world o)) || peers_settled t t.state.(o) now budget t.peers.(o))
       (World.sites t.world)

let create ?(heartbeat_period = 1.0) ?(suspicion_timeout = 5.0) ~world ~heartbeat ~is_heartbeat
    ~on_suspect ~on_unsuspect () =
  (match check_timing ~heartbeat_period ~suspicion_timeout with
  | Error reason -> invalid_arg ("Detector.create: " ^ reason)
  | Ok () -> ());
  let n = List.length (World.sites world) in
  let t =
    {
      world;
      heartbeat_period;
      suspicion_timeout;
      heartbeat;
      is_heartbeat;
      on_suspect;
      on_unsuspect;
      state =
        Array.init (n + 1) (fun _ ->
            { last_heard = Array.make (n + 1) 0.0; suspected = Array.make (n + 1) false });
      crashed_at = Array.make (n + 1) (-1.0);
      peers = Array.init (n + 1) (fun self -> List.filter (fun p -> p <> self) (World.sites world));
      check_due = Array.make (n + 1) 0.0;
    }
  in
  World.add_crash_hook world (fun s -> t.crashed_at.(s) <- World.now world);
  World.register_detector world ~is_heartbeat ~settled:(fun () -> settled t);
  t

let is_heartbeat t m = t.is_heartbeat m

let suspects t ~self =
  let st = t.state.(self) in
  List.filter (fun p -> st.suspected.(p)) (World.sites t.world)

let is_suspected t ~self ~peer = t.state.(self).suspected.(peer)

let peers t self = t.peers.(self)

let suspect t (ctx : 'msg World.ctx) peer =
  let st = t.state.(ctx.World.self) in
  st.suspected.(peer) <- true;
  let m = World.metrics t.world in
  if World.is_alive t.world peer then begin
    Metrics.bump m l_false_suspicions;
    if World.tracing t.world then
      World.record t.world "site %d FALSELY suspects site %d (timeout)" ctx.World.self peer
  end
  else begin
    if World.tracing t.world then
      World.record t.world "site %d suspects site %d (timeout)" ctx.World.self peer;
    if t.crashed_at.(peer) >= 0.0 then
      Metrics.sample m l_suspicion_latency (World.now t.world -. t.crashed_at.(peer))
  end;
  t.on_suspect ctx peer

let unsuspect t (ctx : 'msg World.ctx) peer =
  let st = t.state.(ctx.World.self) in
  st.suspected.(peer) <- false;
  if World.tracing t.world then
    World.record t.world "site %d retracts suspicion of site %d" ctx.World.self peer;
  t.on_unsuspect ctx peer

(* Evidence of life: every delivered message counts, whatever its kind. *)
let heard t ~self ~src =
  if src >= 1 && src < Array.length t.state then begin
    let st = t.state.(self) in
    st.last_heard.(src) <- World.now t.world;
    if st.suspected.(src) then unsuspect t { World.world = t.world; self } src
  end

let beat t (ctx : 'msg World.ctx) =
  if not (World.hb_suppressed t.world ctx.World.self) then
    World.broadcast ctx ~dsts:(peers t ctx.World.self) t.heartbeat

let rec refresh st now = function
  | [] -> ()
  | p :: rest ->
      st.last_heard.(p) <- now;
      refresh st now rest

let rec suspect_silent t ctx st now = function
  | [] -> ()
  | p :: rest ->
      if (not st.suspected.(p)) && now -. st.last_heard.(p) > t.suspicion_timeout then
        suspect t ctx p;
      suspect_silent t ctx st now rest

(* Lateness beyond this means the timer was deferred (a stall window):
   discrete-event timers otherwise fire exactly on schedule. *)
let stall_grace = 1e-9

let check t (ctx : 'msg World.ctx) =
  let self = ctx.World.self in
  let st = t.state.(self) in
  let now = World.now t.world in
  if now > t.check_due.(self) +. stall_grace then begin
    (* waking from a stall: our silence was ours, not theirs *)
    if World.tracing t.world then
      World.record t.world "site %d wakes from a stall; refreshing peer clocks" self;
    refresh st now (peers t self)
  end
  else suspect_silent t ctx st now (peers t self)

(** Call exactly once per incarnation — from [on_start] and again from
    [on_restart].  Resets the site's view (a recovering site starts from a
    clean, unsuspecting slate) and arms the heartbeat/check timer chains;
    the previous incarnation's chains died with the crash (the world's
    timer generation check), so re-arming cannot double them.  Each chain
    re-arms one callback built here, once per incarnation. *)
let start t (ctx : 'msg World.ctx) =
  let self = ctx.World.self in
  let st = t.state.(self) in
  let now = World.now t.world in
  List.iter
    (fun p ->
      st.last_heard.(p) <- now;
      st.suspected.(p) <- false)
    (peers t self);
  let rec heartbeat () =
    beat t ctx;
    World.set_background_timer ctx ~delay:t.heartbeat_period heartbeat
  in
  let rec arm_check () =
    t.check_due.(self) <- World.now t.world +. t.heartbeat_period;
    World.set_background_timer ctx ~delay:t.heartbeat_period on_check
  and on_check () =
    check t ctx;
    arm_check ()
  in
  beat t ctx;
  World.set_background_timer ctx ~delay:t.heartbeat_period heartbeat;
  arm_check ()
