(** The distributed database: n sites, hash-partitioned keys, concurrent
    transactions committed with either 2PC or the paper's nonblocking 3PC.
    This is the end-to-end harness for experiment E12: what does the extra
    phase cost, and what does blocking cost, on a live workload with
    failures. *)

type config = {
  n_sites : int;
  protocol : Node.protocol;
  presumption : Node.presumption;
  termination : Node.termination;
  read_only_opt : bool;
  seed : int;
  lock_wait_timeout : float;
  tracing : bool;
  until : float;
  crashes : (Core.Types.site * float) list;
  recoveries : (Core.Types.site * float) list;
  partitions : (float * float * Core.Types.site list list) list;
  msg_faults : (int * Sim.World.msg_fault) list;
  durable_wal : bool;  (** log through simulated disks (sync semantics, crash loses the tail) *)
  group_commit : Kv_wal.group_commit option;
      (** coalesce concurrent WAL forces on one site into shared syncs *)
  sync_latency : float;
      (** simulated seconds per WAL sync (0.0: syncs are instantaneous
          and every force completes synchronously, as before) *)
  pipeline_depth : int;
      (** coordinator pipelining bound: client transactions admitted
          while fewer than this many WAL forces are in flight at the
          coordinator; vacuous at 0.0 sync latency *)
  disk_faults : (Core.Types.site * Sim.Disk.injection) list;
  initial_data : (string * int) list;
  detector : bool;
      (** [true]: replace the oracle failure reports with the timeout-based
          {!Sim.Detector}; termination directives are fenced by election
          epochs instead of sender identity.  [false] (the default) keeps
          the oracle; every pre-detector run replays unchanged. *)
  fencing : bool;  (** [false]: the split-brain ablation — accept any epoch *)
  heartbeat_period : float;
  suspicion_timeout : float;
  detector_faults : Sim.Nemesis.fault list;
      (** detector-provoking windows (latency spikes, stalls, heartbeat
          loss); other fault constructors in the list are ignored here *)
  lease_faults : float list;
      (** Paxos-Commit leader-lease expiries: at each time every node is
          told its coordinator leases lapsed, so standby acceptors open
          higher-ballot recovery rounds for in-flight transactions.
          Ignored (no messages injected) under 2PC/3PC. *)
}

let config ?(n_sites = 4) ?(protocol = Node.Three_phase) ?(presumption = Node.No_presumption)
    ?(termination = Node.Skeen) ?(read_only_opt = false) ?(seed = 1) ?(lock_wait_timeout = 25.0)
    ?(tracing = false)
    ?(until = 100_000.0) ?(crashes = []) ?(recoveries = []) ?(partitions = []) ?(msg_faults = [])
    ?(durable_wal = true) ?group_commit ?(sync_latency = 0.0) ?(pipeline_depth = 1)
    ?(disk_faults = []) ?(initial_data = []) ?(detector = false) ?(fencing = true)
    ?(heartbeat_period = 1.0) ?(suspicion_timeout = 5.0) ?(detector_faults = [])
    ?(lease_faults = []) () =
  if n_sites < 1 then invalid_arg "Db.config: n_sites must be >= 1";
  if pipeline_depth < 1 then invalid_arg "Db.config: pipeline_depth must be >= 1";
  if not (Float.is_finite sync_latency && sync_latency >= 0.0) then
    invalid_arg "Db.config: sync_latency must be finite and >= 0";
  {
    n_sites;
    protocol;
    presumption;
    termination;
    read_only_opt;
    seed;
    lock_wait_timeout;
    tracing;
    until;
    crashes;
    recoveries;
    partitions;
    msg_faults;
    durable_wal;
    group_commit;
    sync_latency;
    pipeline_depth;
    disk_faults;
    initial_data;
    detector;
    fencing;
    heartbeat_period;
    suspicion_timeout;
    detector_faults;
    lease_faults;
  }

type txn_fate = Fate_committed | Fate_aborted | Fate_pending
[@@deriving show { with_path = false }, eq]

type result = {
  committed : int;
  aborted : int;
  pending : int;  (** submitted but unresolved when the run ended (blocked) *)
  deadlock_aborts : int;
  duration : float;  (** simulated time when the system went quiescent *)
  throughput : float;  (** committed transactions per time unit *)
  mean_latency : float option;  (** submission → coordinator decision, committed+aborted *)
  blocked_time : float;  (** total lock-time spent blocked across sites *)
  messages_sent : int;
  wal_forces : int;  (** forced WAL writes across all sites *)
  forces_per_commit : float;
      (** [wal_forces / committed] — the lever benches and sweeps read:
          presumption, the read-only optimization and group commit all
          push it down (0.0 when nothing committed) *)
  atomicity_ok : bool;
      (** every transaction's outcome agrees across all logs, and committed
          writes are applied at every operational participant *)
  outcome_contradiction : bool;
      (** some transaction has both a commit and an abort record across the
          stable logs — the unconditional half of [atomicity_ok] *)
  missing_applied : (int * Core.Types.site * Core.Types.site list) list;
      (** (txn, site, participants): a committed transaction's writes not
          applied at an operational participant — the other half of
          [atomicity_ok], separated out because a total participant-set
          failure legitimately strands a recovered site in doubt *)
  in_doubt : (Core.Types.site * int * Core.Types.site list) list;
      (** (site, txn, participants) still prepared or precommitted at an
          operational site when the run ended — locks held, outcome
          unknown.  Nonempty means blocking (or a total participant-set
          failure the termination protocol does not cover). *)
  durability_breaches : (Core.Types.site * int * string) list;
      (** (site, txn, what): an externally visible action the repaired
          stable log cannot justify — a yes vote on the wire with no
          prepared record surviving, or an announced outcome the log
          resolved the other way.  Always empty under the paper's force
          discipline; nonempty only when the stable-storage axiom itself
          is broken (lying sync) *)
  fates : (int * txn_fate) list;
  directive_epochs : (int * Core.Types.site * int) list;
      (** every termination-leadership assumption of the run, in order:
          (txn, site, epoch) when the site began issuing directives for
          the transaction.  The split-brain oracle checks no (txn, epoch)
          pair is shared by two distinct sites. *)
  storage_totals : int;  (** sum of all values across all sites *)
  trace : Sim.World.trace_entry list;  (** empty unless [tracing] *)
  run_metrics : Sim.Metrics.t;
}

(* The first index [i] of the sorted-by-[key] array [a] with
   [key a.(i) >= k]. *)
let lower_bound a key (k : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if key a.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let mem a (x : int) =
  let i = lower_bound a Fun.id x in
  i < Array.length a && a.(i) = x

(* One site's repaired log as the judgement reads it, built in two walks
   of the log's newest-first cache (count, then fill) into flat int
   arrays, with no copy of the log.  [prepared] holds the ids with a
   [P_prepared] record, sorted.  [resolved] holds [(txn lsl 1) lor
   commit] for every [C_decided] / [P_outcome] record, sorted by id and
   oldest record first within an id. *)
type log_index = { prepared : int array; resolved : int array }

let index_log wal =
  let n_prepared = ref 0 and n_resolved = ref 0 in
  Kv_wal.iter_newest_first wal (function
    | Kv_wal.P_prepared _ -> incr n_prepared
    | Kv_wal.C_decided _ | Kv_wal.P_outcome _ -> incr n_resolved
    | _ -> ());
  let prepared = Array.make !n_prepared 0 and resolved = Array.make !n_resolved 0 in
  (* fill from the back, so the arrays start in log order and the stable
     sort keeps one id's outcomes oldest first *)
  Kv_wal.iter_newest_first wal (function
    | Kv_wal.P_prepared { txn; _ } ->
        decr n_prepared;
        prepared.(!n_prepared) <- txn
    | Kv_wal.C_decided { txn; commit } | Kv_wal.P_outcome { txn; commit } ->
        decr n_resolved;
        resolved.(!n_resolved) <- (txn lsl 1) lor Bool.to_int commit
    | _ -> ());
  Array.sort Int.compare prepared;
  Array.stable_sort (fun a b -> Int.compare (a asr 1) (b asr 1)) resolved;
  { prepared; resolved }

(* Did [log] resolve [txn] with outcome [commit]? *)
let resolved_as log ~txn ~commit =
  let r = log.resolved and want = (txn lsl 1) lor Bool.to_int commit in
  let i = ref (lower_bound r (fun x -> x asr 1) txn) in
  while !i < Array.length r && r.(!i) asr 1 = txn && r.(!i) <> want do
    incr i
  done;
  !i < Array.length r && r.(!i) = want

(** [run cfg workload] executes [workload] (arrival-time, transaction)
    pairs and reports aggregate behaviour.  Deterministic in [cfg.seed]. *)
let run (cfg : config) (workload : (float * Txn.t) list) : result =
  let world =
    Sim.World.create ~n_sites:cfg.n_sites ~seed:cfg.seed ~msg_to_string:Kv_msg.to_string ()
  in
  Sim.World.set_tracing world cfg.tracing;
  let storages = Array.init cfg.n_sites (fun _ -> Storage.create ()) in
  let store =
    Kv_wal.Store.create ~durable:cfg.durable_wal ?group_commit:cfg.group_commit
      ~sync_latency:cfg.sync_latency ~n_sites:cfg.n_sites ()
  in
  Kv_wal.Store.install store world ~disk_faults:cfg.disk_faults;
  let wal site = Kv_wal.Store.log store ~site in
  (* partition the initial data *)
  List.iter
    (fun (k, v) ->
      let site = Txn.owner ~n_sites:cfg.n_sites k in
      Storage.load storages.(site - 1) [ (k, v) ])
    cfg.initial_data;
  Sim.World.set_msg_faults world cfg.msg_faults;
  let qrng_root = Sim.Rng.create ~seed:cfg.seed in
  let nodes =
    Array.init cfg.n_sites (fun i ->
        Node.create ~presumption:cfg.presumption ~termination:cfg.termination
          ~read_only_opt:cfg.read_only_opt ~pipeline_depth:cfg.pipeline_depth
          ~query_rng:(Sim.Rng.split qrng_root) ~site:(i + 1) ~n_sites:cfg.n_sites
          ~protocol:cfg.protocol ~storage:storages.(i) ~wal:(wal (i + 1))
          ~lock_wait_timeout:cfg.lock_wait_timeout ~detector:cfg.detector ~fencing:cfg.fencing ())
  in
  let node site = nodes.(site - 1) in
  (* detector mode: suspicion (revocable) drives the nodes' peer views
     instead of the oracle's crash/recovery reports *)
  let detector =
    if not cfg.detector then None
    else
      Some
        (Sim.Detector.create ~heartbeat_period:cfg.heartbeat_period
           ~suspicion_timeout:cfg.suspicion_timeout ~world ~heartbeat:Kv_msg.Heartbeat
           ~is_heartbeat:(function Kv_msg.Heartbeat -> true | _ -> false)
           ~on_suspect:(fun ctx s -> Node.on_peer_down (node ctx.Sim.World.self) ctx s)
           ~on_unsuspect:(fun ctx s -> Node.on_peer_up (node ctx.Sim.World.self) ctx s)
           ())
  in
  let handlers site : Kv_msg.t Sim.World.handlers =
    let n = node site in
    (* (re)wire the WAL's batcher to this site's timers and the metrics
       registry; completed batches refill the pipelining admission gate.
       Must rebind on every (re)start: timers set through a pre-crash ctx
       die with the crash. *)
    let attach_wal ctx =
      Kv_wal.attach (wal site)
        ~on_drain:(fun () -> Node.drain_admissions n ctx)
        ~metrics:(Sim.World.metrics world)
        ~schedule:(fun delay k -> ignore (Sim.World.set_timer ctx ~delay k))
    in
    {
      Sim.World.on_start =
        (fun ctx ->
          attach_wal ctx;
          Node.install_grant_hook n ctx;
          match detector with Some d -> Sim.Detector.start d ctx | None -> ());
      on_message =
        (fun ctx ~src msg ->
          (match detector with Some d -> Sim.Detector.heard d ~self:site ~src | None -> ());
          Node.on_message n ctx ~src msg);
      on_peer_down = (fun ctx failed -> if not cfg.detector then Node.on_peer_down n ctx failed);
      on_peer_up = (fun ctx recovered -> if not cfg.detector then Node.on_peer_up n ctx recovered);
      on_restart =
        (fun ctx ->
          attach_wal ctx;
          Node.install_grant_hook n ctx;
          Node.on_restart n ctx;
          match detector with Some d -> Sim.Detector.start d ctx | None -> ());
    }
  in
  (* client arrivals *)
  List.iter
    (fun (at, txn) ->
      let coord = Txn.coordinator ~n_sites:cfg.n_sites txn in
      Sim.World.inject world ~dst:coord ~at (Kv_msg.Client_begin txn))
    workload;
  List.iter (fun (s, at) -> Sim.World.schedule_crash world ~at s) cfg.crashes;
  List.iter
    (fun (from_t, until_t, groups) -> Sim.World.schedule_partition world ~from_t ~until_t groups)
    cfg.partitions;
  List.iter (fun (s, at) -> Sim.World.schedule_recovery world ~at s) cfg.recoveries;
  List.iter
    (function
      | Sim.Nemesis.Delay_window { site; from_t; until_t; extra } ->
          Sim.World.schedule_latency_spike world ~site ~from_t ~until_t ~extra
      | Sim.Nemesis.Stall { site; from_t; until_t } ->
          Sim.World.schedule_stall world ~site ~from_t ~until_t
      | Sim.Nemesis.Hb_loss { site; from_t; until_t } ->
          Sim.World.schedule_hb_loss world ~site ~from_t ~until_t
      | _ -> ())
    cfg.detector_faults;
  List.iter
    (fun at ->
      for site = 1 to cfg.n_sites do
        Sim.World.inject world ~dst:site ~at Kv_msg.Lease_expire
      done)
    cfg.lease_faults;
  let duration = Sim.World.run world ~handlers ~until:cfg.until () in
  (* transactions still blocked at quiescence never resolved: account their
     lock-holding time up to the end of the run *)
  Array.iter
    (fun (n : Node.t) ->
      Hashtbl.iter
        (fun _ (p : Node.p_txn) ->
          match p.Node.blocked_since with
          | Some t0 ->
              n.Node.blocked_time <- n.Node.blocked_time +. (duration -. t0);
              p.Node.blocked_since <- None
          | None -> ())
        n.Node.p_txns)
    nodes;
  (* ---- the judgement: one pass over the workload and one over each
     site's repaired log ---- *)
  let logs = Array.init cfg.n_sites (fun i -> index_log (wal (i + 1))) in
  let fate_tbl : (int, txn_fate) Hashtbl.t = Hashtbl.create 64 in
  let contradiction = ref false in
  let note txn fate =
    match Hashtbl.find_opt fate_tbl txn with
    | None -> Hashtbl.replace fate_tbl txn fate
    | Some f when f = fate -> ()
    | Some Fate_pending -> Hashtbl.replace fate_tbl txn fate
    | Some _ when fate = Fate_pending -> ()
    | Some _ -> contradiction := true
  in
  List.iter (fun (_, txn) -> note txn.Txn.id Fate_pending) workload;
  (* site by site, each site's outcomes for a txn oldest first: the first
     outcome noted wins, as in log order *)
  Array.iter
    (fun log ->
      Array.iter
        (fun r -> note (r asr 1) (if r land 1 = 1 then Fate_committed else Fate_aborted))
        log.resolved)
    logs;
  (* the workload by txn id, first listed first: ids may repeat in a
     hand-built workload, and the first listed is the one judged *)
  let by_id = Array.of_list workload in
  let id (_, t) = t.Txn.id in
  Array.stable_sort (fun a b -> Int.compare (id a) (id b)) by_id;
  let find_txn txn =
    let i = lower_bound by_id id txn in
    if i < Array.length by_id && id by_id.(i) = txn then Some (snd by_id.(i)) else None
  in
  let applied = Array.map Storage.applied_txns storages in
  (* committed writes must be applied at every participant site that is
     currently operational (a down site applies them on recovery) *)
  let missing_applied = ref [] in
  Hashtbl.iter
    (fun txn fate ->
      if fate = Fate_committed then
        match find_txn txn with
        | None -> ()
        | Some t ->
            let participants = Txn.participants ~n_sites:cfg.n_sites t in
            List.iter
              (fun site ->
                if
                  Sim.World.is_alive world site
                  && Txn.ops_for ~n_sites:cfg.n_sites t ~site
                     |> List.exists (function Txn.Put _ | Txn.Add _ -> true | Txn.Get _ -> false)
                  && not (mem applied.(site - 1) txn)
                then missing_applied := (txn, site, participants) :: !missing_applied)
              participants)
    fate_tbl;
  let missing_applied = List.sort compare !missing_applied in
  let fates =
    Hashtbl.fold (fun txn fate acc -> (txn, fate) :: acc) fate_tbl [] |> List.sort compare
  in
  let count f = List.length (List.filter (fun (_, x) -> x = f) fates) in
  let committed = count Fate_committed
  and aborted = count Fate_aborted
  and pending = count Fate_pending in
  let latencies = Array.to_list nodes |> List.concat_map (fun n -> n.Node.latencies) in
  let in_doubt =
    Array.to_list nodes
    |> List.concat_map (fun (n : Node.t) ->
           if not (Sim.World.is_alive world n.Node.site) then []
           else
             Hashtbl.fold
               (fun txn (p : Node.p_txn) acc ->
                 match p.Node.status with
                 | Node.P_prepared | Node.P_precommitted ->
                     (n.Node.site, txn, p.Node.participants) :: acc
                 | Node.P_working | Node.P_done _ -> acc)
               n.Node.p_txns [])
    |> List.sort compare
  in
  (* ---- durability oracle inputs: externally visible actions (recorded
     in the nodes' sticky tables at send time, surviving crashes because
     the world cannot un-see a message) judged against what each site's
     repaired stable log can justify ---- *)
  let durability_breaches =
    Array.to_list nodes
    |> List.concat_map (fun (n : Node.t) ->
           let log = logs.(n.Node.site - 1) in
           let unjustified_votes =
             Hashtbl.fold
               (fun txn () acc ->
                 if mem log.prepared txn then acc
                 else
                   (n.Node.site, txn, "yes vote on the wire with no prepared record on the log")
                   :: acc)
               n.Node.sent_yes_txns []
           in
           let contradicted_announcements =
             Hashtbl.fold
               (fun txn commit acc ->
                 if resolved_as log ~txn ~commit:(not commit) then
                   ( n.Node.site,
                     txn,
                     Printf.sprintf "announced %s but the log resolved the other way"
                       (if commit then "commit" else "abort") )
                   :: acc
                 else acc)
               n.Node.announced_outcomes []
           in
           unjustified_votes @ contradicted_announcements)
    |> List.sort_uniq compare
  in
  let metrics = Sim.World.metrics world in
  (* account interrupted measurements (e.g. kv_lock_wait timers of sites
     that crashed holding locks) before the registry is snapshot or
     merged into a sweep aggregate *)
  Sim.Metrics.drain_timers metrics;
  let wal_forces = Sim.Metrics.counter metrics "wal_forces" in
  let forces_per_commit =
    if committed > 0 then float_of_int wal_forces /. float_of_int committed else 0.0
  in
  (* derived, but first-class: published into the registry so sweep
     merges aggregate it like any other distribution *)
  if committed > 0 then Sim.Metrics.observe metrics "forces_per_commit" forces_per_commit;
  {
    committed;
    aborted;
    pending;
    deadlock_aborts = Array.to_list nodes |> List.fold_left (fun a n -> a + n.Node.deadlock_aborts) 0;
    duration;
    throughput = (if duration > 0.0 then float_of_int committed /. duration else 0.0);
    mean_latency =
      (match latencies with
      | [] -> None
      | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)));
    blocked_time = Array.to_list nodes |> List.fold_left (fun a n -> a +. n.Node.blocked_time) 0.0;
    messages_sent = Sim.Metrics.counter metrics "messages_sent";
    wal_forces;
    forces_per_commit;
    atomicity_ok = (not !contradiction) && missing_applied = [];
    outcome_contradiction = !contradiction;
    missing_applied;
    in_doubt;
    durability_breaches;
    fates;
    directive_epochs =
      Array.to_list nodes
      |> List.concat_map (fun (n : Node.t) ->
             List.rev_map (fun (txn, e) -> (txn, n.Node.site, e)) n.Node.directive_epochs)
      |> List.sort compare;
    storage_totals = Array.to_list storages |> List.fold_left (fun a s -> a + Storage.total s) 0;
    trace = Sim.World.trace_entries world;
    run_metrics = metrics;
  }

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>committed %d, aborted %d (deadlock %d), pending %d@,\
     duration %.1f, throughput %.4f txn/u, mean latency %a@,\
     blocked lock time %.1f, messages %d@,\
     atomicity ok: %b, storage total %d@]"
    r.committed r.aborted r.deadlock_aborts r.pending r.duration r.throughput
    Fmt.(option ~none:(any "n/a") (fmt "%.2f"))
    r.mean_latency r.blocked_time r.messages_sent r.atomicity_ok r.storage_totals
