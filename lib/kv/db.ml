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
  plan : Sim.Nemesis.schedule;
      (** the run's faults.  Step and backup crashes are protocol-engine
          notions and are ignored here; a lease fault injects a
          [Lease_expire] at every site (a no-op under 2PC/3PC). *)
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
  initial_data : (string * int) list;
  detector : bool;
      (** [true]: replace the oracle failure reports with the timeout-based
          {!Sim.Detector}; termination directives are fenced by election
          epochs instead of sender identity.  [false] (the default) keeps
          the oracle; every pre-detector run replays unchanged. *)
  fencing : bool;  (** [false]: the split-brain ablation — accept any epoch *)
  heartbeat_period : float;
  suspicion_timeout : float;
}

let config ?(n_sites = 4) ?(protocol = Node.Three_phase) ?(presumption = Node.No_presumption)
    ?(termination = Node.Skeen) ?(read_only_opt = false) ?(seed = 1) ?(lock_wait_timeout = 25.0)
    ?(tracing = false)
    ?(until = 100_000.0) ?(plan = []) ?(durable_wal = true) ?group_commit ?(sync_latency = 0.0)
    ?(pipeline_depth = 1) ?(initial_data = []) ?(detector = false) ?(fencing = true)
    ?(heartbeat_period = 1.0) ?(suspicion_timeout = 5.0) () =
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
    plan;
    durable_wal;
    group_commit;
    sync_latency;
    pipeline_depth;
    initial_data;
    detector;
    fencing;
    heartbeat_period;
    suspicion_timeout;
  }

type txn_fate = Fate_committed | Fate_aborted | Fate_pending
[@@deriving show { with_path = false }, eq]

type result = {
  committed : int;
  aborted : int;
  pending : int;  (** submitted but unresolved when the run ended (blocked) *)
  deadlock_aborts : int;  (** victims of a detected wait-for cycle *)
  lock_timeouts : int;
      (** aborted after waiting [lock_wait_timeout] for a lock: the cure
          for cycles spanning sites, but not proof of one *)
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

(* ---- the per-site, per-transaction report the judgement reads ----

   [ids] holds the judged txn ids, sorted and unique: the workload's ids
   (for a repeated id the first listed transaction is the one kept in
   [txns]) and any id seen only in a log, a storage journal or a node's
   sticky tables ([txns] holds [None] there).  [bits.(slot * n_sites +
   site - 1)] holds one int of flags per (slot, site): what the site's
   repaired log, its applied journal and its externally visible actions
   say about that transaction.  A harness that can state these flags for
   its sites can be judged by the same code. *)

let b_prepared = 1  (* a [P_prepared] record *)
let b_commit = 2  (* a commit record: [C_decided] or [P_outcome] *)
let b_abort = 4  (* an abort record *)
let b_oldest_commit = 8  (* the site's oldest outcome record is a commit *)
let b_applied = 16  (* the write set is in the site's storage journal *)
let b_sent_yes = 32  (* a yes vote went on the wire *)
let b_announced_commit = 64
let b_announced_abort = 128

type report = { ids : int array; txns : Txn.t option array; bits : int array }

(* The slot of [id] in the sorted [ids], or -1.  Workload ids are
   usually dense, so the slot is tried first at [id - ids.(0)]. *)
let slot_of ids id =
  let n = Array.length ids in
  let k = if n = 0 then -1 else id - Array.unsafe_get ids 0 in
  if k >= 0 && k < n && Array.unsafe_get ids k = id then k
  else begin
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get ids mid < id then lo := mid + 1 else hi := mid
    done;
    if !lo < n && Array.unsafe_get ids !lo = id then !lo else -1
  end

(* Every fact the report holds, as [visit site txn flag]: each site's log
   and applied journal newest first, then its sticky tables.  An outcome
   record's flag also rewrites [b_oldest_commit] (see [mark]), so the last
   one visited, the oldest, decides it. *)
let visit_sites ~wal ~storages ~(nodes : Node.t array) visit =
  Array.iteri
    (fun i (n : Node.t) ->
      let site = i + 1 in
      Kv_wal.iter_newest_first (wal site) (function
        | Kv_wal.P_prepared { txn; _ } -> visit site txn b_prepared
        | Kv_wal.C_decided { txn; commit } | Kv_wal.P_outcome { txn; commit } ->
            visit site txn (if commit then b_commit else b_abort)
        | _ -> ());
      Storage.iter_applied storages.(i) (fun txn -> visit site txn b_applied);
      Hashtbl.iter (fun txn () -> visit site txn b_sent_yes) n.Node.sent_yes_txns;
      Hashtbl.iter
        (fun txn commit ->
          visit site txn (if commit then b_announced_commit else b_announced_abort))
        n.Node.announced_outcomes)
    nodes

let mark bits i flag =
  let v = Array.unsafe_get bits i in
  let v =
    if flag = b_commit then v lor b_oldest_commit
    else if flag = b_abort then v land lnot b_oldest_commit
    else v
  in
  Array.unsafe_set bits i (v lor flag)

let build_report ~n_sites ~workload visit_all =
  (* the workload by txn id, first listed first; one slot per id, holding
     the first listed transaction of a repeated id *)
  let by_id = Array.of_list workload in
  Array.stable_sort (fun (_, a) (_, b) -> Int.compare a.Txn.id b.Txn.id) by_id;
  let slots =
    List.filteri
      (fun i (_, t) -> i = 0 || (snd by_id.(i - 1)).Txn.id <> t.Txn.id)
      (Array.to_list by_id)
    |> List.map (fun (_, t) -> (t.Txn.id, Some t))
  in
  let fill slots =
    let ids = Array.of_list (List.map fst slots) and txns = Array.of_list (List.map snd slots) in
    let bits = Array.make (Array.length ids * n_sites) 0 and unknown = ref [] in
    visit_all (fun site txn flag ->
        let s = slot_of ids txn in
        if s < 0 then unknown := txn :: !unknown else mark bits ((s * n_sites) + site - 1) flag);
    ({ ids; txns; bits }, !unknown)
  in
  match fill slots with
  | r, [] -> r
  | _, unknown ->
      (* ids outside the workload: give each a slot and fill again *)
      let extra = List.map (fun id -> (id, None)) (List.sort_uniq Int.compare unknown) in
      fst (fill (List.merge (fun (a, _) (b, _) -> Int.compare a b) slots extra))

let l_forces_per_commit = Sim.Metrics.label "forces_per_commit"
let l_wal_forces = Sim.Metrics.label "wal_forces"
let l_messages_sent = Sim.Metrics.label "messages_sent"

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
  Kv_wal.Store.install store world ~disk_faults:(Sim.Nemesis.disk_faults cfg.plan);
  let wal site = Kv_wal.Store.log store ~site in
  (* partition the initial data *)
  List.iter
    (fun (k, v) ->
      let site = Txn.owner ~n_sites:cfg.n_sites k in
      Storage.load storages.(site - 1) [ (k, v) ])
    cfg.initial_data;
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
  Sim.Nemesis.install world cfg.plan;
  List.iter
    (function
      | Sim.Nemesis.Lease_fault { at } ->
          for site = 1 to cfg.n_sites do
            Sim.World.inject world ~dst:site ~at Kv_msg.Lease_expire
          done
      | _ -> ())
    cfg.plan;
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
  (* ---- the judgement: one walk of each site's log, applied journal
     and sticky tables into the report, then one pass over its slots ---- *)
  let n_sites = cfg.n_sites in
  let r = build_report ~n_sites ~workload (visit_sites ~wal ~storages ~nodes) in
  let bits s site = Array.unsafe_get r.bits ((s * n_sites) + site - 1) in
  let contradiction = ref false and fates = ref [] and missing_applied = ref [] in
  let committed = ref 0 and aborted = ref 0 and pending = ref 0 in
  for s = Array.length r.ids - 1 downto 0 do
    let txn = r.ids.(s) in
    (* the lowest site's oldest outcome wins *)
    let any = ref 0 and first = ref 0 in
    for site = n_sites downto 1 do
      let v = bits s site in
      any := !any lor v;
      if v land (b_commit lor b_abort) <> 0 then first := v
    done;
    if !any land b_commit <> 0 && !any land b_abort <> 0 then contradiction := true;
    let resolved = !any land (b_commit lor b_abort) <> 0 in
    if resolved || r.txns.(s) <> None then begin
      let fate =
        if not resolved then (incr pending; Fate_pending)
        else if !first land b_oldest_commit <> 0 then (incr committed; Fate_committed)
        else (incr aborted; Fate_aborted)
      in
      fates := (txn, fate) :: !fates;
      (* committed writes must be applied at every participant site that
         is currently operational (a down site applies them on recovery) *)
      match (fate, r.txns.(s)) with
      | Fate_committed, Some t ->
          let owned =
            List.map
              (fun op ->
                ( Txn.owner ~n_sites (Txn.key_of_op op),
                  match op with Txn.Put _ | Txn.Add _ -> true | Txn.Get _ -> false ))
              t.Txn.ops
          in
          let participants = List.sort_uniq Int.compare (List.map fst owned) in
          List.iter
            (fun site ->
              if
                bits s site land b_applied = 0
                && Sim.World.is_alive world site
                && List.exists (fun (s, write) -> write && s = site) owned
              then missing_applied := (txn, site, participants) :: !missing_applied)
            (List.rev participants)
      | _ -> ()
    end
  done;
  let fates = !fates and missing_applied = !missing_applied in
  let committed = !committed and aborted = !aborted and pending = !pending in
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
  (* ---- durability: externally visible actions (recorded in the nodes'
     sticky tables at send time, surviving crashes because the world
     cannot un-see a message) judged against what each site's repaired
     stable log can justify.  Site by site and slot by slot, each slot's
     breaches in text order, so the list comes out sorted. ---- *)
  let durability_breaches = ref [] in
  for site = n_sites downto 1 do
    for s = Array.length r.ids - 1 downto 0 do
      let v = bits s site and txn = r.ids.(s) in
      let breach what = durability_breaches := (site, txn, what) :: !durability_breaches in
      if v land b_sent_yes <> 0 && v land b_prepared = 0 then
        breach "yes vote on the wire with no prepared record on the log";
      if v land b_announced_commit <> 0 && v land b_abort <> 0 then
        breach "announced commit but the log resolved the other way";
      if v land b_announced_abort <> 0 && v land b_commit <> 0 then
        breach "announced abort but the log resolved the other way"
    done
  done;
  let durability_breaches = !durability_breaches in
  let metrics = Sim.World.metrics world in
  (* account interrupted measurements (e.g. kv_lock_wait timers of sites
     that crashed holding locks) before the registry is snapshot or
     merged into a sweep aggregate *)
  Sim.Metrics.drain_timers metrics;
  let wal_forces = Sim.Metrics.count metrics l_wal_forces in
  let forces_per_commit =
    if committed > 0 then float_of_int wal_forces /. float_of_int committed else 0.0
  in
  (* derived, but first-class: published into the registry so sweep
     merges aggregate it like any other distribution *)
  if committed > 0 then Sim.Metrics.sample metrics l_forces_per_commit forces_per_commit;
  {
    committed;
    aborted;
    pending;
    deadlock_aborts = Array.to_list nodes |> List.fold_left (fun a n -> a + n.Node.deadlock_aborts) 0;
    lock_timeouts = Array.to_list nodes |> List.fold_left (fun a n -> a + n.Node.lock_timeouts) 0;
    duration;
    throughput = (if duration > 0.0 then float_of_int committed /. duration else 0.0);
    mean_latency =
      (match latencies with
      | [] -> None
      | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)));
    blocked_time = Array.to_list nodes |> List.fold_left (fun a n -> a +. n.Node.blocked_time) 0.0;
    messages_sent = Sim.Metrics.count metrics l_messages_sent;
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
