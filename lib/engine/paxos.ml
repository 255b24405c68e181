(** Paxos Commit (Gray & Lamport) on the engine harness — see the
    interface for the protocol story.  The runner is self-contained: it
    speaks its own wire language in its own {!Sim.World}, and reports
    through the ordinary {!Runtime.result} so every chaos oracle applies
    unchanged.

    Liveness discipline: every broadcast that can be lost to a dead or
    recovering majority has a retry path.  The current leader re-drives
    its pending phase on a capped-backoff timer and immediately when a
    peer recovers; blocked participants run the shared outcome-query
    loop; leader death (or a lease expiry) fails over to the
    lowest-numbered live standby at a strictly higher ballot. *)

type config = {
  n_sites : int;
  f : int;
  votes : (Core.Types.site * Core.Types.vote) list;
  plan : Failure_plan.t;
  seed : int;
  tracing : bool;
  until : float;
}

let acceptors ~n_sites ~f =
  if f = 0 then [ 1 ] else List.init ((2 * f) + 1) (fun i -> n_sites - (2 * f) + i)

(* base delay and ceiling of the retry/query backoff ({!Sim.Backoff}) *)
let query_interval = 3.0
let query_backoff_cap = 45.0

let config ?(votes = []) ?(plan = Failure_plan.none) ?(seed = 0) ?(tracing = false)
    ?(until = 1500.0) ~n_sites ~f () =
  if n_sites < 2 then Fmt.invalid_arg "Paxos.config: need at least 2 sites, got %d" n_sites;
  if f < 0 then Fmt.invalid_arg "Paxos.config: negative f";
  if f > 0 && (2 * f) + 1 > n_sites then
    Fmt.invalid_arg "Paxos.config: f=%d needs %d acceptor sites but n_sites=%d" f ((2 * f) + 1)
      n_sites;
  { n_sites; f; votes; plan; seed; tracing; until }

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

type msg =
  | Prepare  (** TM → RM: solicit the vote (doubles as the env request at site 1) *)
  | P2a of { rm : Core.Types.site; ballot : int; prepared : bool }
      (** phase 2a of instance [rm]: at ballot 0 sent by the RM itself *)
  | P2b of { rm : Core.Types.site; ballot : int; prepared : bool }  (** acceptor → leader *)
  | P1a of { ballot : int }  (** recovery leader opens phase 1 for every instance *)
  | P1b of { ballot : int; accepted : (Core.Types.site * (int * bool)) list }
      (** the acceptor's highest accepted (ballot, value) per instance *)
  | P_reject of { ballot : int }  (** the acceptor's promise outranks the proposal *)
  | Outcome of Core.Types.outcome
  | Query_outcome
  | Outcome_reply of Core.Types.outcome option
  | Lease_expire  (** environment-injected leader-lease expiry *)

let msg_to_string = function
  | Prepare -> "prepare"
  | P2a { rm; ballot; prepared } ->
      Printf.sprintf "p2a(rm=%d,b=%d,%s)" rm ballot (if prepared then "prepared" else "abort")
  | P2b { rm; ballot; prepared } ->
      Printf.sprintf "p2b(rm=%d,b=%d,%s)" rm ballot (if prepared then "prepared" else "abort")
  | P1a { ballot } -> Printf.sprintf "p1a(b=%d)" ballot
  | P1b { ballot; accepted } -> Printf.sprintf "p1b(b=%d,%d accepted)" ballot (List.length accepted)
  | P_reject { ballot } -> Printf.sprintf "p-reject(b=%d)" ballot
  | Outcome Core.Types.Committed -> "outcome(commit)"
  | Outcome Core.Types.Aborted -> "outcome(abort)"
  | Query_outcome -> "query-outcome"
  | Outcome_reply None -> "outcome-reply(unknown)"
  | Outcome_reply (Some Core.Types.Committed) -> "outcome-reply(commit)"
  | Outcome_reply (Some Core.Types.Aborted) -> "outcome-reply(abort)"
  | Lease_expire -> "lease-expire"

(* ------------------------------------------------------------------ *)
(* Per-site state                                                      *)
(* ------------------------------------------------------------------ *)

type lead = {
  l_ballot : int;
  mutable l_phase2 : bool;  (** ballot 0 starts here; recovery needs f+1 promises first *)
  mutable l_promised : (Core.Types.site * (Core.Types.site * (int * bool)) list) list;
      (** phase-1b replies: acceptor → its accepted map *)
  mutable l_proposals : (Core.Types.site * bool) list;
      (** recovery phase 2: the value proposed per instance *)
  mutable l_accepts : (Core.Types.site * Core.Types.site list) list;
      (** instance → acceptors that accepted at [l_ballot] *)
  mutable l_chosen : (Core.Types.site * bool) list;
  mutable l_attempt : int;  (** re-drive backoff attempt *)
}

type site_rt = {
  site : Core.Types.site;
  wal : Wal.t;
  mutable steps : int;  (** fired protocol transitions — the step-crash anchor *)
  mutable tm_started : bool;  (** sticky: the TM runs ballot 0 once per run *)
  mutable voted : Core.Types.vote option;
  mutable outcome : Core.Types.outcome option;
  mutable decided_at : float option;
  mutable ever_crashed : bool;
  mutable sent_yes : bool;  (** sticky across crashes, like the runtime's *)
  mutable announced : Core.Types.outcome option;  (** sticky *)
  mutable highest_seen : int;  (** highest ballot observed in any message *)
  mutable promised : int;  (** acceptor: highest promised ballot (-1 = none) *)
  mutable accepted : (Core.Types.site * (int * bool)) list;
      (** acceptor: instance → highest accepted (ballot, value) *)
  mutable leading : lead option;
  mutable querying : bool;
  mutable query_attempt : int;
}

type exec = {
  cfg : config;
  world : msg Sim.World.t;
  store : Wal.Store.t;
  rts : site_rt array;
  acceptor_set : Core.Types.site list;
  query_rng : Sim.Rng.t;
  mutable directive_epochs : (Core.Types.site * int) list;
}

let metrics t = Sim.World.metrics t.world
let rt_of t site = t.rts.(site - 1)
let alive t rt = Sim.World.is_alive t.world rt.site
let all_sites t = List.init t.cfg.n_sites (fun i -> i + 1)
let others t rt = List.filter (fun s -> s <> rt.site) (all_sites t)

(* Ballots reuse the election-epoch encoding round * n + (site - 1), so
   the leader of a ballot is recoverable from the ballot alone — ballot
   0 is round 0 at site 1, the TM. *)
let leader_of t ballot = (ballot mod t.cfg.n_sites) + 1

(* Recovery-eligible standbys: the TM and every acceptor (phase 1 needs
   acceptor replies, not acceptor identity, but keeping the candidate
   set small keeps elections deterministic). *)
let candidates t = List.sort_uniq compare (1 :: t.acceptor_set)

let l_wal_appends = Sim.Metrics.label "wal_appends"
let l_paxos_recoveries = Sim.Metrics.label "paxos_recoveries"
let l_elections = Sim.Metrics.label "elections"
let l_outcome_queries = Sim.Metrics.label "outcome_queries"
let l_paxos_rejected = Sim.Metrics.label "paxos_rejected"
let l_paxos_deposed = Sim.Metrics.label "paxos_deposed"
let l_lease_takeovers = Sim.Metrics.label "lease_takeovers"
let l_recoveries_processed = Sim.Metrics.label "recoveries_processed"
let l_decision_latency = Sim.Metrics.label "decision_latency"
let l_messages_to_decision = Sim.Metrics.label "messages_to_decision"
let l_rounds_to_decision = Sim.Metrics.label "rounds_to_decision"
let l_messages_sent = Sim.Metrics.label "messages_sent"
let l_messages_delivered = Sim.Metrics.label "messages_delivered"

let force t rt record =
  Sim.Metrics.bump (metrics t) l_wal_appends;
  Wal.force rt.wal record

(* Fire one protocol transition: honor any step crash pinned to this
   site's k-th transition, forcing [log] before the sends — the paper's
   partially completed transition. *)
let fire t ctx rt ?log ~sends () =
  rt.steps <- rt.steps + 1;
  let do_log () = match log with None -> () | Some r -> force t rt r in
  (match Failure_plan.find_step_crash t.cfg.plan ~site:rt.site ~step:rt.steps with
  | Some Failure_plan.Before_transition -> Sim.World.crash_self ctx
  | Some (Failure_plan.After_logging k) ->
      do_log ();
      List.iteri (fun i send -> if i < k then send ()) sends;
      Sim.World.crash_self ctx
  | Some Failure_plan.After_transition ->
      do_log ();
      List.iter (fun send -> send ()) sends;
      Sim.World.crash_self ctx
  | None ->
      do_log ();
      List.iter (fun send -> send ()) sends);
  alive t rt

let note_ballot rt ballot = if ballot > rt.highest_seen then rt.highest_seen <- ballot

(* Acceptor durable state rides [Moved] records with a private encoding;
   [rebuild] below is its inverse. *)
let prom_record ballot = Wal.Moved { to_state = Printf.sprintf "prom:%d" ballot }

let acc_record rm ballot prepared =
  Wal.Moved { to_state = Printf.sprintf "acc:%d:%d:%d" rm ballot (if prepared then 1 else 0) }

(* ------------------------------------------------------------------ *)
(* Learning and announcing outcomes                                    *)
(* ------------------------------------------------------------------ *)

let learn t rt outcome =
  if rt.outcome = None then begin
    (match Wal.decided rt.wal with Some _ -> () | None -> force t rt (Wal.Decided outcome));
    rt.outcome <- Some outcome;
    rt.decided_at <- Some (Sim.World.now t.world);
    rt.leading <- None;
    Sim.Metrics.sample (metrics t) l_decision_latency (Sim.World.now t.world);
    Sim.Metrics.sample (metrics t) l_messages_to_decision
      (float_of_int (Sim.Metrics.count (metrics t) l_messages_sent))
  end

(* The deciding leader announces to everyone; a decide-crash clause cuts
   the broadcast short after k sends. *)
let announce t ctx rt outcome =
  let k =
    match Failure_plan.backup_crash t.cfg.plan ~site:rt.site ~phase:Sim.Nemesis.Decide with
    | Some k -> k
    | None -> max_int
  in
  let dsts = others t rt in
  List.iteri
    (fun i dst ->
      if i < k then begin
        rt.announced <- Some outcome;
        Sim.World.send ctx ~dst (Outcome outcome)
      end)
    dsts;
  if k < List.length dsts then Sim.World.crash_self ctx

(* ------------------------------------------------------------------ *)
(* Leading: phase drives and re-drives                                 *)
(* ------------------------------------------------------------------ *)

(* Broadcast the leader's pending phase.  Idempotent at every receiver,
   so re-driving after silence (lost messages, a recovering acceptor
   majority) is always safe. *)
let send_phase t ctx rt (ld : lead) =
  if ld.l_ballot = 0 then
    (* ballot 0: re-solicit the vote of every instance not yet chosen —
       an RM that already voted re-sends its phase 2a *)
    List.iter
      (fun s -> if not (List.mem_assoc s ld.l_chosen) then Sim.World.send ctx ~dst:s Prepare)
      (others t rt)
  else if not ld.l_phase2 then
    List.iter (fun a -> Sim.World.send ctx ~dst:a (P1a { ballot = ld.l_ballot })) t.acceptor_set
  else
    List.iter
      (fun (rm, prepared) ->
        if not (List.mem_assoc rm ld.l_chosen) then
          List.iter
            (fun a -> Sim.World.send ctx ~dst:a (P2a { rm; ballot = ld.l_ballot; prepared }))
            t.acceptor_set)
      ld.l_proposals

let rec arm_redrive t ctx rt (ld : lead) =
  let attempt = ld.l_attempt in
  ld.l_attempt <- attempt + 1;
  let delay =
    Sim.Backoff.delay ~rng:t.query_rng ~interval:query_interval
      ~cap:query_backoff_cap ~attempt
  in
  ignore
    (Sim.World.set_timer ctx ~delay (fun () ->
         match rt.leading with
         | Some ld' when ld'.l_ballot = ld.l_ballot && rt.outcome = None ->
             send_phase t ctx rt ld';
             arm_redrive t ctx rt ld'
         | _ -> ()))

let new_lead ballot ~phase2 =
  {
    l_ballot = ballot;
    l_phase2 = phase2;
    l_promised = [];
    l_proposals = [];
    l_accepts = [];
    l_chosen = [];
    l_attempt = 0;
  }

(* Open a recovery round at a ballot strictly above everything this site
   has seen — in particular above every possible round-0 ballot, so
   acceptors must promote and phase 1 cannot be skipped. *)
let start_recovery t ctx rt =
  let already = match rt.leading with Some ld -> ld.l_ballot > 0 | None -> false in
  if rt.outcome = None && not already then begin
    let n = t.cfg.n_sites in
    let rec pick round =
      let b = (round * n) + (rt.site - 1) in
      if b > rt.highest_seen then b else pick (round + 1)
    in
    let ballot = pick 1 in
    rt.highest_seen <- ballot;
    let ld = new_lead ballot ~phase2:false in
    rt.leading <- Some ld;
    t.directive_epochs <- (rt.site, ballot) :: t.directive_epochs;
    Sim.Metrics.bump (metrics t) l_paxos_recoveries;
    Sim.Metrics.bump (metrics t) l_elections;
    Sim.World.record t.world "site %d leads paxos recovery at ballot %d" rt.site ballot;
    send_phase t ctx rt ld;
    arm_redrive t ctx rt ld
  end

(* ------------------------------------------------------------------ *)
(* Blocked-participant outcome queries (shared backoff discipline)     *)
(* ------------------------------------------------------------------ *)

let rec arm_query t ctx rt =
  if (not rt.querying) && rt.outcome = None then begin
    rt.querying <- true;
    let delay =
      Sim.Backoff.delay ~rng:t.query_rng ~interval:query_interval
        ~cap:query_backoff_cap ~attempt:rt.query_attempt
    in
    rt.query_attempt <- rt.query_attempt + 1;
    ignore
      (Sim.World.set_timer ctx ~delay (fun () ->
           rt.querying <- false;
           if rt.outcome = None then begin
             (* Liveness net: a promise can name a leader that died before
                the promise was even made (its P1a was in flight when it
                crashed), so the peer-down report predates the belief and
                no further failure report will ever fire for it.  Re-check
                at every tick: if the believed leader is dead and this
                site is the lowest live standby, open a recovery round. *)
             (let believed = leader_of t rt.highest_seen in
              let leaderless =
                (not (Sim.World.is_alive t.world believed))
                (* a restarted TM believes itself leader but the crash
                   wiped its lead state: nobody else will act for it *)
                || (believed = rt.site && rt.leading = None)
              in
              if leaderless then
                match
                  List.filter (fun s -> Sim.World.is_alive t.world s) (candidates t)
                with
                | s :: _ when s = rt.site -> start_recovery t ctx rt
                | _ -> ());
             Sim.Metrics.bump (metrics t) l_outcome_queries;
             List.iter (fun dst -> Sim.World.send ctx ~dst Query_outcome) (others t rt);
             arm_query t ctx rt
           end))
  end

let decide t ctx rt (ld : lead) =
  let outcome =
    if List.for_all (fun (_, prepared) -> prepared) ld.l_chosen then Core.Types.Committed
    else Core.Types.Aborted
  in
  Sim.Metrics.sample (metrics t) l_rounds_to_decision
    (float_of_int (4 + (4 * (ld.l_ballot / t.cfg.n_sites))));
  learn t rt outcome;
  announce t ctx rt outcome

(* ------------------------------------------------------------------ *)
(* The RM vote                                                         *)
(* ------------------------------------------------------------------ *)

let cast_vote t ctx rt =
  match rt.voted with
  | Some Core.Types.Yes when rt.outcome = None ->
      (* a repeated Prepare means the leader is still waiting: re-send
         the ballot-0 phase 2a (idempotent at the acceptors) *)
      List.iter
        (fun a -> Sim.World.send ctx ~dst:a (P2a { rm = rt.site; ballot = 0; prepared = true }))
        t.acceptor_set
  | Some _ -> ()
  | None ->
      if rt.outcome = None then begin
        let v = try List.assoc rt.site t.cfg.votes with Not_found -> Core.Types.Yes in
        rt.voted <- Some v;
        (match v with
        | Core.Types.Yes ->
            let sends =
              List.map
                (fun a () ->
                  rt.sent_yes <- true;
                  Sim.World.send ctx ~dst:a (P2a { rm = rt.site; ballot = 0; prepared = true }))
                t.acceptor_set
            in
            if
              fire t ctx rt
                ~log:(Wal.Transitioned { to_state = "w"; vote = Some Core.Types.Yes })
                ~sends ()
            then arm_query t ctx rt
        | Core.Types.No ->
            (* unilateral abort: no committed outcome can exist without
               this instance choosing Prepared *)
            let sends =
              List.map
                (fun a () ->
                  Sim.World.send ctx ~dst:a (P2a { rm = rt.site; ballot = 0; prepared = false }))
                t.acceptor_set
            in
            if
              fire t ctx rt
                ~log:(Wal.Transitioned { to_state = "a"; vote = Some Core.Types.No })
                ~sends ()
            then learn t rt Core.Types.Aborted)
      end

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

let on_prepare t ctx rt =
  if rt.site = 1 && not rt.tm_started then begin
    rt.tm_started <- true;
    let ld = new_lead 0 ~phase2:true in
    rt.leading <- Some ld;
    t.directive_epochs <- (1, 0) :: t.directive_epochs;
    let sends = List.map (fun s () -> Sim.World.send ctx ~dst:s Prepare) (others t rt) in
    if fire t ctx rt ~sends () then begin
      cast_vote t ctx rt;
      if alive t rt then arm_redrive t ctx rt ld
    end
  end
  else cast_vote t ctx rt

let on_p2a t ctx rt ~src ~rm ~ballot ~prepared =
  note_ballot rt ballot;
  if ballot >= rt.promised then begin
    if ballot > rt.promised then rt.promised <- ballot;
    (match List.assoc_opt rm rt.accepted with
    | Some (b, v) when b = ballot && v = prepared -> ()  (* re-delivery: already durable *)
    | _ ->
        rt.accepted <- (rm, (ballot, prepared)) :: List.remove_assoc rm rt.accepted;
        force t rt (acc_record rm ballot prepared));
    Sim.World.send ctx ~dst:(leader_of t ballot) (P2b { rm; ballot; prepared })
  end
  else begin
    Sim.Metrics.bump (metrics t) l_paxos_rejected;
    Sim.World.send ctx ~dst:src (P_reject { ballot = rt.promised });
    (* a ballot-0 P2a is an RM's own vote, relayed on the TM's behalf:
       the TM itself never hears this reject and would re-drive ballot 0
       forever, deferring standbys that expect the lowest candidate to
       recover.  Tell the outranked ballot's leader directly. *)
    let ld = leader_of t ballot in
    if ld <> src then Sim.World.send ctx ~dst:ld (P_reject { ballot = rt.promised })
  end

let on_p1a t ctx rt ~src ~ballot =
  note_ballot rt ballot;
  if ballot >= rt.promised then begin
    if ballot > rt.promised then begin
      rt.promised <- ballot;
      (* the promise must survive a crash or a later leader could read a
         stale "free" and resurrect an old ballot's proposal *)
      force t rt (prom_record ballot)
    end;
    Sim.World.send ctx ~dst:src (P1b { ballot; accepted = rt.accepted })
  end
  else begin
    Sim.Metrics.bump (metrics t) l_paxos_rejected;
    Sim.World.send ctx ~dst:src (P_reject { ballot = rt.promised })
  end

let on_p1b t ctx rt ~src ~ballot ~accepted =
  note_ballot rt ballot;
  match rt.leading with
  | Some ld when ld.l_ballot = ballot && not ld.l_phase2 ->
      if not (List.mem_assoc src ld.l_promised) then
        ld.l_promised <- (src, accepted) :: ld.l_promised;
      if List.length ld.l_promised >= t.cfg.f + 1 then begin
        ld.l_phase2 <- true;
        (* per instance: adopt the highest-ballot accepted value any
           promiser reports; a free instance is proposed Aborted *)
        let value rm =
          List.fold_left
            (fun best (_, acc_map) ->
              match (List.assoc_opt rm acc_map, best) with
              | Some (b, v), Some (b', _) when b > b' -> Some (b, v)
              | Some bv, None -> Some bv
              | _ -> best)
            None ld.l_promised
        in
        ld.l_proposals <-
          List.map
            (fun rm ->
              (rm, match value rm with Some (_, prepared) -> prepared | None -> false))
            (all_sites t);
        send_phase t ctx rt ld
      end
  | _ -> ()

let on_p2b t ctx rt ~src ~rm ~ballot ~prepared =
  note_ballot rt ballot;
  match rt.leading with
  | Some ld when ld.l_ballot = ballot && ld.l_phase2 && not (List.mem_assoc rm ld.l_chosen) ->
      let accs = try List.assoc rm ld.l_accepts with Not_found -> [] in
      if not (List.mem src accs) then begin
        let accs = src :: accs in
        ld.l_accepts <- (rm, accs) :: List.remove_assoc rm ld.l_accepts;
        if List.length accs >= t.cfg.f + 1 then begin
          ld.l_chosen <- (rm, prepared) :: ld.l_chosen;
          if List.length ld.l_chosen = t.cfg.n_sites then decide t ctx rt ld
        end
      end
  | _ -> ()

let on_p_reject t ctx rt ~ballot =
  note_ballot rt ballot;
  match rt.leading with
  | Some ld when ballot > ld.l_ballot ->
      (* deposed: a higher-ballot leader is active; fall back to the
         blocked-participant query loop *)
      Sim.Metrics.bump (metrics t) l_paxos_deposed;
      rt.leading <- None;
      arm_query t ctx rt
  | _ -> ()

let on_lease_expire t ctx rt =
  if rt.outcome = None then begin
    let believed = leader_of t rt.highest_seen in
    let standbys =
      List.filter (fun s -> s <> believed && Sim.World.is_alive t.world s) (candidates t)
    in
    match standbys with
    | s :: _ when s = rt.site ->
        Sim.Metrics.bump (metrics t) l_lease_takeovers;
        start_recovery t ctx rt
    | _ -> ()
  end

let on_message t ctx ~src msg =
  let rt = rt_of t ctx.Sim.World.self in
  match msg with
  | Prepare -> on_prepare t ctx rt
  | P2a { rm; ballot; prepared } -> on_p2a t ctx rt ~src ~rm ~ballot ~prepared
  | P2b { rm; ballot; prepared } -> on_p2b t ctx rt ~src ~rm ~ballot ~prepared
  | P1a { ballot } -> on_p1a t ctx rt ~src ~ballot
  | P1b { ballot; accepted } -> on_p1b t ctx rt ~src ~ballot ~accepted
  | P_reject { ballot } -> on_p_reject t ctx rt ~ballot
  | Outcome o -> learn t rt o
  | Query_outcome ->
      (match rt.outcome with Some o -> rt.announced <- Some o | None -> ());
      Sim.World.send ctx ~dst:src (Outcome_reply rt.outcome)
  | Outcome_reply (Some o) -> learn t rt o
  | Outcome_reply None -> ()
  | Lease_expire -> on_lease_expire t ctx rt

(* ------------------------------------------------------------------ *)
(* Failure and recovery reports                                        *)
(* ------------------------------------------------------------------ *)

let on_peer_down t ctx failed =
  let rt = rt_of t ctx.Sim.World.self in
  if rt.outcome = None then begin
    (* the TM escalates when a participant whose instance is still open
       dies: only a higher ballot may propose (Aborted) on its behalf *)
    let tm_escalates =
      match rt.leading with
      | Some ld -> ld.l_ballot = 0 && not (List.mem_assoc failed ld.l_chosen)
      | None -> false
    in
    if tm_escalates then start_recovery t ctx rt
    else if not (Sim.World.is_alive t.world (leader_of t rt.highest_seen)) then begin
      match List.filter (fun s -> Sim.World.is_alive t.world s) (candidates t) with
      | s :: _ when s = rt.site -> start_recovery t ctx rt
      | _ -> ()
    end
  end

let on_peer_up t ctx _recovered =
  let rt = rt_of t ctx.Sim.World.self in
  (* a recovered acceptor may have restored the majority: the leader
     re-drives its pending phase immediately rather than waiting out the
     backoff *)
  match rt.leading with
  | Some ld when rt.outcome = None -> send_phase t ctx rt ld
  | _ -> ()

let rebuild rt =
  List.iter
    (fun (r : Wal.record) ->
      match r with
      | Wal.Began _ -> ()
      | Wal.Transitioned { vote = Some v; _ } -> rt.voted <- Some v
      | Wal.Transitioned { vote = None; _ } -> ()
      | Wal.Moved { to_state } -> (
          match String.split_on_char ':' to_state with
          | [ "prom"; b ] -> rt.promised <- max rt.promised (int_of_string b)
          | [ "acc"; rm; b; p ] ->
              let rm = int_of_string rm and b = int_of_string b in
              let prepared = p = "1" in
              rt.promised <- max rt.promised b;
              (match List.assoc_opt rm rt.accepted with
              | Some (b', _) when b' >= b -> ()
              | _ -> rt.accepted <- (rm, (b, prepared)) :: List.remove_assoc rm rt.accepted)
          | _ -> ())
      | Wal.Decided o -> rt.outcome <- Some o)
    (Wal.records rt.wal)

let on_restart t ctx =
  let rt = rt_of t ctx.Sim.World.self in
  rt.ever_crashed <- true;
  rebuild rt;
  Sim.Metrics.bump (metrics t) l_recoveries_processed;
  if rt.outcome = None then begin
    rt.query_attempt <- 0;
    arm_query t ctx rt
  end

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let attach_wal t ctx =
  Wal.attach
    (Wal.Store.log t.store ~site:ctx.Sim.World.self)
    ~metrics:(metrics t)
    ~schedule:(fun delay k -> ignore (Sim.World.set_timer ctx ~delay k))

let handlers t _site : msg Sim.World.handlers =
  {
    Sim.World.on_start = (fun ctx -> attach_wal t ctx);
    on_message = (fun ctx ~src msg -> on_message t ctx ~src msg);
    on_peer_down = (fun ctx failed -> on_peer_down t ctx failed);
    on_peer_up = (fun ctx recovered -> on_peer_up t ctx recovered);
    on_restart =
      (fun ctx ->
        attach_wal t ctx;
        on_restart t ctx);
  }

let run (cfg : config) : Runtime.result =
  let n = cfg.n_sites in
  let world = Sim.World.create ~n_sites:n ~seed:cfg.seed ~msg_to_string () in
  Sim.World.set_tracing world cfg.tracing;
  let store = Wal.Store.create ~n_sites:n () in
  Wal.Store.install store world ~disk_faults:(Sim.Nemesis.disk_faults cfg.plan);
  let protocol_name = Printf.sprintf "paxos-commit-%d-f%d" n cfg.f in
  let rts =
    Array.init n (fun i ->
        let site = i + 1 in
        let wal = Wal.Store.log store ~site in
        Sim.Metrics.bump (Sim.World.metrics world) l_wal_appends;
        Wal.force wal (Wal.Began { protocol = protocol_name; initial = "q" });
        {
          site;
          wal;
          steps = 0;
          tm_started = false;
          voted = None;
          outcome = None;
          decided_at = None;
          ever_crashed = false;
          sent_yes = false;
          announced = None;
          highest_seen = 0;
          promised = -1;
          accepted = [];
          leading = None;
          querying = false;
          query_attempt = 0;
        })
  in
  let t =
    {
      cfg;
      world;
      store;
      rts;
      acceptor_set = acceptors ~n_sites:n ~f:cfg.f;
      query_rng = Sim.Rng.split (Sim.Rng.create ~seed:cfg.seed);
      directive_epochs = [];
    }
  in
  (* a crash wipes the site's volatile protocol memory; the store's hook,
     registered first, has already rebuilt its log from the durable image,
     so only that survives into on_restart *)
  Sim.World.add_crash_hook world (fun site ->
      let rt = rts.(site - 1) in
      rt.ever_crashed <- true;
      rt.voted <- None;
      rt.outcome <- None;
      rt.leading <- None;
      rt.promised <- -1;
      rt.accepted <- [];
      rt.highest_seen <- 0;
      rt.querying <- false;
      rt.query_attempt <- 0);
  (* the environment request: Prepare injected at the TM starts ballot 0 *)
  Sim.World.inject world ~dst:1 ~at:0.01 Prepare;
  Sim.Nemesis.install world cfg.plan;
  List.iter
    (function
      | Sim.Nemesis.Lease_fault { at } ->
          List.iter (fun site -> Sim.World.inject world ~dst:site ~at Lease_expire) (all_sites t)
      | _ -> ())
    cfg.plan;
  ignore (Sim.World.run world ~handlers:(handlers t) ~until:cfg.until ());
  (* ---- reporting (shape-compatible with Runtime.run) ---- *)
  let wal_outcome (rt : site_rt) =
    match Wal.decided rt.wal with
    | Some o -> Some o
    | None ->
        if
          List.exists
            (function Wal.Transitioned { vote = Some Core.Types.No; _ } -> true | _ -> false)
            (Wal.records rt.wal)
        then Some Core.Types.Aborted
        else None
  in
  let reports =
    Array.to_list rts
    |> List.map (fun (rt : site_rt) ->
           {
             Runtime.site = rt.site;
             outcome = rt.outcome;
             wal_outcome = wal_outcome rt;
             final_state =
               (match rt.outcome with
               | Some Core.Types.Committed -> "c"
               | Some Core.Types.Aborted -> "a"
               | None -> if rt.voted = Some Core.Types.Yes then "w" else "q");
             operational = Sim.World.is_alive world rt.site;
             ever_crashed = rt.ever_crashed || not (Sim.World.is_alive world rt.site);
             decided_at = rt.decided_at;
             sent_yes = rt.sent_yes;
             announced = rt.announced;
           })
  in
  let outcomes = List.filter_map (fun (r : Runtime.site_report) -> r.Runtime.outcome) reports in
  let has_commit = List.mem Core.Types.Committed outcomes
  and has_abort = List.mem Core.Types.Aborted outcomes in
  let operational_undecided =
    List.filter
      (fun (r : Runtime.site_report) ->
        r.Runtime.operational && (not r.Runtime.ever_crashed) && r.Runtime.outcome = None)
      reports
  in
  let metrics = Sim.World.metrics world in
  Sim.Metrics.drain_timers metrics;
  {
    Runtime.reports;
    messages_sent = Sim.Metrics.count metrics l_messages_sent;
    messages_delivered = Sim.Metrics.count metrics l_messages_delivered;
    duration =
      List.fold_left
        (fun acc (r : Runtime.site_report) ->
          match r.Runtime.decided_at with Some x -> max acc x | None -> acc)
        0.0 reports;
    global_outcome =
      (if has_commit then Some Core.Types.Committed
       else if has_abort then Some Core.Types.Aborted
       else None);
    consistent = not (has_commit && has_abort);
    blocked_operational = List.length operational_undecided;
    all_operational_decided = operational_undecided = [];
    store;
    directive_epochs = List.rev t.directive_epochs;
    trace = Sim.World.trace_entries world;
    run_metrics = metrics;
  }

(* ------------------------------------------------------------------ *)
(* Chaos integration                                                   *)
(* ------------------------------------------------------------------ *)

let violations ?metrics ~(cfg : config) (result : Runtime.result) =
  let vs = Chaos.violations_of ?metrics result in
  (* Paxos promises liveness only up to f acceptor failures: progress
     violations beyond the fault model are waived; safety still binds *)
  let accs = acceptors ~n_sites:cfg.n_sites ~f:cfg.f in
  let down_acceptors =
    List.length
      (List.filter
         (fun (r : Runtime.site_report) ->
           List.mem r.Runtime.site accs && not r.Runtime.operational)
         result.Runtime.reports)
  in
  if down_acceptors > cfg.f then
    List.filter (fun (v : Chaos.violation) -> v.Chaos.oracle <> Chaos.Progress) vs
  else vs

let sweep_profile ~n_sites ~f =
  {
    Sim.Nemesis.default_profile with
    Sim.Nemesis.p_backup_crash = 0.0;
    (* backup Move/Decide phases are termination-protocol notions *)
    p_acceptor_crash = 0.5;
    acceptor_sites = acceptors ~n_sites ~f;
    max_acceptor_crashes = f;
    p_lease_fault = 0.3;
  }

let target ?profile ?(until = Chaos.stall_budget) ~n_sites ~f () =
  let profile = match profile with Some p -> p | None -> sweep_profile ~n_sites ~f in
  Chaos.plan_target
    ~name:(Printf.sprintf "paxos-commit-f%d" f)
    ~n_sites ~profile
    (fun ~metrics ~tracing ~seed plan ->
      let cfg = config ~plan ~seed ~tracing ~until ~n_sites ~f () in
      let result = run cfg in
      (result, violations ?metrics ~cfg result))
