(** The chaos harness: randomized fault schedules, consistency oracles,
    seed sweeps and counterexample shrinking, shared by every system
    under test ({!target}).

    On the engine each run is a pure function of [(protocol, n, k, seed)]:
    the seed feeds a {!Sim.Rng.split} stream to {!Sim.Nemesis.generate},
    the schedule lowers to a {!Failure_plan.t}, and one protocol instance
    executes it on the simulator.  After quiescence five oracles judge the
    history.  Quiescence is an empty event queue; under the timeout
    detector, whose heartbeats never stop, it is the first instant from
    which only heartbeats that cannot change a suspicion remain
    ({!Sim.World.run}), so a settled detector run ends there rather than
    at the horizon:

    - {e atomicity}: no history where one site commits and another
      aborts; crashed sites are judged by their last WAL-forced state
      ([wal_outcome]), since a site that logged a commit-final transition
      and died mid-broadcast has decided, whatever its volatile memory
      said.
    - {e nonblocking progress}: every operational never-crashed site
      decides when concurrent failures stay ≤ k (the generator enforces
      the bound).  The run's [until] horizon is the stall budget: a
      liveness violation is detected, not hung on.
    - {e recovery convergence}: every recovered site replays its WAL and
      reaches the cohort's decision, when one exists.  When no site
      decided at all and every site crashed at least once, that is the
      paper's total-failure scenario — out of scope for the termination
      protocol, so not flagged.
    - {e durability}: anything a site let the world observe must be
      justified by its durable log.  A yes vote on the wire with no
      yes-vote record surviving on the log, or an announced outcome the
      log cannot reproduce after crash + repair, means the site acted
      before its forced write was stable — a repaired-away record must
      never resurrect (or un-decide) a transaction.
    - {e split brain}: no election epoch is claimed by two sites.

    On violation the schedule is greedily shrunk — drop faults one at a
    time, then round fault times — re-running after each candidate until
    no single removal preserves the violation.  The minimal plan prints
    as a {!Failure_plan.to_string} value that pastes straight into a
    regression test, together with the event trace of its run. *)

(* [Conservation] is the database harness's bank-total invariant; it comes
   last so that sorted tallies of the engine's oracles keep their order. *)
type oracle = Atomicity | Progress | Recovery_convergence | Durability | Split_brain | Conservation
[@@deriving show { with_path = false }, eq]

let oracle_name = function
  | Atomicity -> "atomicity"
  | Progress -> "progress"
  | Recovery_convergence -> "recovery"
  | Durability -> "durability"
  | Split_brain -> "split-brain"
  | Conservation -> "conservation"

let oracle_of_name name =
  List.find_opt
    (fun o -> oracle_name o = name)
    [ Atomicity; Progress; Recovery_convergence; Durability; Split_brain; Conservation ]

type violation = { oracle : oracle; detail : string }

let pp_violation ppf v = Fmt.pf ppf "%s violation: %s" (oracle_name v.oracle) v.detail

type run_outcome = {
  seed : int;
  plan : Failure_plan.t;
  result : Runtime.result;
  violations : violation list;
}

type counterexample = {
  cx_seed : int;
  cx_violation : violation;
  cx_plan : Failure_plan.t;  (** shrunk to a local minimum *)
  cx_original_faults : int;
  cx_shrunk_faults : int;
  cx_shrink_runs : int;  (** re-executions spent shrinking *)
  cx_trace : Sim.World.trace_entry list;  (** trace of the minimal plan's run *)
}

type summary = {
  protocol : string;
  n_sites : int;
  k : int;
  seeds_run : int;
  counterexamples : counterexample list;
  violations_by_oracle : (oracle * int) list;
  metrics : Sim.Metrics.t;
      (** chaos_runs, shrink_runs, per-oracle violation counters,
          schedule_faults histogram *)
}

let outcome_str = function Core.Types.Committed -> "commit" | Core.Types.Aborted -> "abort"

(* A site's effective decision: what its stable log forced, falling back
   to nothing.  Volatile [outcome] is always backed by a WAL record
   ([finalize] writes before it sets), so the WAL view subsumes it; the
   interesting divergence is a crashed site whose log decided. *)
let effective (r : Runtime.site_report) =
  match r.outcome with Some o -> Some o | None -> r.wal_outcome

let check_atomicity (result : Runtime.result) =
  let decided =
    List.filter_map
      (fun (r : Runtime.site_report) -> Option.map (fun o -> (r.site, o)) (effective r))
      result.reports
  in
  let commits = List.filter (fun (_, o) -> o = Core.Types.Committed) decided in
  let aborts = List.filter (fun (_, o) -> o = Core.Types.Aborted) decided in
  if commits <> [] && aborts <> [] then
    Some
      {
        oracle = Atomicity;
        detail =
          Printf.sprintf "sites %s committed but sites %s aborted"
            (String.concat "," (List.map (fun (s, _) -> string_of_int s) commits))
            (String.concat "," (List.map (fun (s, _) -> string_of_int s) aborts));
      }
  else None

(* Read-only sites are outside the progress and recovery contracts: they
   are excluded from backup leadership and quorum counts, so a run where
   only read-only sites survive is the total-failure scenario for them —
   and their recovery asks peers with no log of its own to converge
   from. *)
let check_progress ?(read_only = []) (result : Runtime.result) =
  let stuck =
    List.filter
      (fun (r : Runtime.site_report) ->
        r.operational
        && (not r.ever_crashed)
        && (not (List.mem r.site read_only))
        && r.outcome = None)
      result.reports
  in
  if stuck <> [] then
    Some
      {
        oracle = Progress;
        detail =
          Printf.sprintf "operational never-crashed site(s) %s undecided at the stall budget"
            (String.concat ","
               (List.map (fun (r : Runtime.site_report) -> string_of_int r.site) stuck));
      }
  else None

let check_recovery ?(read_only = []) (result : Runtime.result) =
  let decisions =
    List.filter_map effective result.reports |> List.sort_uniq compare
  in
  match decisions with
  | [ d ] ->
      (* a unique cohort decision exists: every recovered operational
         site must have converged to it (a contradictory decision is the
         atomicity oracle's finding, not this one's) *)
      let stuck =
        List.filter
          (fun (r : Runtime.site_report) ->
            r.operational && r.ever_crashed
            && (not (List.mem r.site read_only))
            && r.outcome = None)
          result.reports
      in
      if stuck <> [] then
        Some
          {
            oracle = Recovery_convergence;
            detail =
              Printf.sprintf "cohort decided %s but recovered site(s) %s never converged"
                (outcome_str d)
                (String.concat ","
                   (List.map (fun (r : Runtime.site_report) -> string_of_int r.site) stuck));
          }
      else None
  | _ -> None

(* Durability: what the world observed from a site must be derivable from
   its durable log.  [Wal.crash] rebuilds the volatile view from the
   durable image at every crash, so a crashed site's WAL view *is* its
   durable prefix after repair — comparing it against the sticky
   [sent_yes]/[announced] flags (which survive crashes precisely because
   the world cannot un-see a message) makes the check sound post-hoc. *)
let check_durability ?(presumption = Runtime.No_presumption) ?(read_only = [])
    (result : Runtime.result) =
  (* the presumption licenses exactly one gap: an announced covered
     outcome whose [Decided] record the crash took — the record was
     appended, not forced, by design.  A log that resolved the *other*
     way is still a breach, as is a covered gap under the wrong
     presumption. *)
  let presumed_covered o =
    match (presumption, o) with
    | Runtime.Presume_abort, Core.Types.Aborted -> true
    | Runtime.Presume_commit, Core.Types.Committed -> true
    | (Runtime.No_presumption | Runtime.Presume_abort | Runtime.Presume_commit), _ -> false
  in
  let problems =
    List.filter_map
      (fun (r : Runtime.site_report) ->
        if List.mem r.site read_only then
          (* a read-only site's log is volatile by design: nothing it
             shows (or fails to show) is binding *)
          None
        else
          let wal = Wal.Store.log result.store ~site:r.site in
          if r.sent_yes && not (Wal.voted_yes wal) then
            Some
              (Printf.sprintf "site %d sent a yes vote its durable log cannot justify" r.site)
          else
            match r.announced with
            | Some o when r.wal_outcome = None && presumed_covered o -> None
            | Some o when r.wal_outcome <> Some o ->
                Some
                  (Printf.sprintf "site %d announced %s but its durable log says %s" r.site
                     (outcome_str o)
                     (match r.wal_outcome with Some o' -> outcome_str o' | None -> "nothing"))
            | _ -> None)
      result.reports
  in
  if problems <> [] then
    Some { oracle = Durability; detail = String.concat "; " problems }
  else None

(* Split-brain: election epochs are globally unique per site by
   construction ([round * n_sites + (site - 1)]), so an epoch claimed by
   two distinct sites means two backups believed they owned the same
   election round — exactly what fencing is meant to exclude.  (The
   observable damage of a split brain — contradictory decisions — is the
   atomicity oracle's finding; this one pins the structural invariant.) *)
let split_brain ~epoch ~site ~detail claims =
  let rec first_clash owners = function
    | [] -> None
    | c :: rest -> (
        match List.assoc_opt (epoch c) owners with
        | Some s when s <> site c -> Some { oracle = Split_brain; detail = detail c }
        | Some _ -> first_clash owners rest
        | None -> first_clash ((epoch c, site c) :: owners) rest)
  in
  first_clash [] claims

let check_split_brain (result : Runtime.result) =
  split_brain ~epoch:snd ~site:fst
    ~detail:(fun (site, e) -> Printf.sprintf "epoch %d claimed by two sites, e.g. site %d" e site)
    result.Runtime.directive_epochs

(* Run the five oracles (pure reads of [result]).  [metrics] is not
   written: a sweep seed reads no clock, and a caller that wants the
   oracles' cost times this call from outside, as the perf ledger's
   [chaos.oracles_us] span does. *)
let violations_of ?metrics:_ ?presumption ?read_only result =
  List.filter_map Fun.id
    [ check_atomicity result; check_progress ?read_only result; check_recovery ?read_only result;
      check_durability ?presumption ?read_only result; check_split_brain result ]

(* The per-run detector counters worth aggregating across a sweep: they
   answer "how often did suspicion misfire, and what did fencing stop". *)
let detector_counters =
  List.map
    (fun name -> (name, Sim.Metrics.label name))
    [ "false_suspicions"; "elections_started"; "elections"; "epoch_rejected_directives" ]

let l_chaos_runs = Sim.Metrics.label "chaos_runs"
let l_shrink_runs = Sim.Metrics.label "shrink_runs"
let l_suspicion_latency = Sim.Metrics.label "suspicion_latency"
let l_schedule_faults = Sim.Metrics.label "schedule_faults"

let l_violations =
  List.map
    (fun o -> (o, Sim.Metrics.label ("violations_" ^ oracle_name o)))
    [ Atomicity; Progress; Recovery_convergence; Durability; Split_brain; Conservation ]

let aggregate_run_metrics m result =
  let rm = result.Runtime.run_metrics in
  List.iter
    (fun (_, l) ->
      match Sim.Metrics.count rm l with
      | 0 -> ()
      | by -> Sim.Metrics.bump ~by m l)
    detector_counters;
  (* fold the crash-to-suspicion latency histogram by re-observing bucket
     midpoints: within one bucket width of exact, which is all the
     summary percentiles claim anyway *)
  List.iter
    (fun (lower, upper, count) ->
      let v = if Float.is_finite upper then (lower +. upper) /. 2.0 else lower in
      for _ = 1 to count do
        Sim.Metrics.sample m l_suspicion_latency v
      done)
    (Sim.Metrics.buckets_of rm l_suspicion_latency)

(* ---------------- coverage fingerprints ---------------- *)

(* The run's behavioural signature for the coverage-guided explorer
   ({!Explore}): per-site-class protocol-state edges walked by the
   stable log — read post hoc from the WAL store, so the runtime's
   metrics stay byte-identical to every pinned expectation — plus
   terminal outcomes, bucketed detector/election activity and oracle
   near-miss flags.  Everything here is deterministic in the run; no
   wall-clock measurement may leak in.  The fixed vocabulary is interned
   here once, so a run builds no string. *)
module Cov = Sim.Coverage

(* a site class: its edge class and its "final-*" and "end-*" keys *)
let site_class name = (Cov.symbol name, Cov.symbol ("final-" ^ name), Cov.symbol ("end-" ^ name))
let coordinator = site_class "coord"
let participant = site_class "part"
let k_outcome = Cov.symbol "outcome"
let k_consistent = Cov.symbol "consistent"
let k_blocked = Cov.symbol "blocked"
let k_epochs = Cov.symbol "epochs"
let k_epoch_sites = Cov.symbol "epoch-sites"
let s_plus_y = Cov.symbol "+y"
let s_plus_n = Cov.symbol "+n"
let s_moved = Cov.symbol "mv-"
let s_none = Cov.symbol "none"
let outcome_index = function Core.Types.Committed -> 0 | Core.Types.Aborted -> 1
let s_outcomes = Array.map Cov.symbol [| "commit"; "abort" |]
let s_decided = Array.map Cov.symbol [| "dec-commit"; "dec-abort" |]

(* "end-*" values by [outcome * 4 + crashed * 2 + down], outcome 2 being
   undecided: "commit", "commit+down", "commit+crashed", ... *)
let s_ends =
  Array.init 12 (fun i ->
      Cov.symbol
        ([| "commit"; "abort"; "undecided" |].(i / 4)
        ^ (if i land 2 <> 0 then "+crashed" else "")
        ^ if i land 1 <> 0 then "+down" else ""))

let detector_keys = List.map (fun (name, l) -> (Cov.symbol name, l)) detector_counters

let record_label = function
  | Wal.Began { initial; _ } -> Cov.symbol initial
  | Wal.Transitioned { to_state; vote = None } -> Cov.symbol to_state
  | Wal.Transitioned { to_state; vote = Some Core.Types.Yes } -> Cov.concat (Cov.symbol to_state) s_plus_y
  | Wal.Transitioned { to_state; vote = Some Core.Types.No } -> Cov.concat (Cov.symbol to_state) s_plus_n
  | Wal.Moved { to_state } -> Cov.concat s_moved (Cov.symbol to_state)
  | Wal.Decided o -> s_decided.(outcome_index o)

(* distinct sites among the epoch claims *)
let rec epoch_sites = function
  | [] -> 0
  | (site, _) :: rest -> (if List.mem_assoc site rest then 0 else 1) + epoch_sites rest

let fingerprint_of (result : Runtime.result) =
  let fp = ref [] in
  let emit f = fp := f :: !fp in
  List.iter
    (fun (r : Runtime.site_report) ->
      let class_, k_final, k_end = if r.site = 1 then coordinator else participant in
      (* newest record first: each record's label starts an edge to the
         label of the record logged after it *)
      let later = ref class_ and newest = ref true in
      Wal.iter_newest_first (Wal.Store.log result.store ~site:r.site) (fun record ->
          let label = record_label record in
          if not !newest then emit (Cov.edge ~class_ label !later);
          newest := false;
          later := label);
      emit (Cov.feat k_final (Cov.symbol r.final_state));
      let decided = match effective r with Some o -> outcome_index o | None -> 2 in
      let crashed = if r.ever_crashed then 2 else 0 and down = if r.operational then 0 else 1 in
      emit (Cov.feat k_end s_ends.((decided * 4) + crashed + down)))
    result.reports;
  emit
    (Cov.feat k_outcome
       (match result.global_outcome with Some o -> s_outcomes.(outcome_index o) | None -> s_none));
  emit (Cov.feat k_consistent (Cov.bool result.consistent));
  emit (Cov.feat k_blocked (Cov.bucket result.blocked_operational));
  emit (Cov.feat k_epochs (Cov.bucket (List.length result.directive_epochs)));
  emit (Cov.feat k_epoch_sites (Cov.bucket (epoch_sites result.directive_epochs)));
  List.iter
    (fun (key, l) -> emit (Cov.feat key (Cov.bucket (Sim.Metrics.count result.run_metrics l))))
    detector_keys;
  !fp

(* ---------------- targets ---------------- *)

(* What the harness needs from a system under test: how a seed's schedule
   is drawn and judged (phase 1 of a sweep), and how one explicit plan is
   judged (shrinking, replay, the explorer).  ['o] is the system's per-seed
   outcome record, ['r] its result. *)
type ('o, 'r) target = {
  name : string;
  n_sites : int;
  profile : Sim.Nemesis.profile;
  nemesis_rng : int -> Sim.Rng.t;
  run_seed : metrics:Sim.Metrics.t option -> seed:int -> Sim.Nemesis.schedule -> 'o;
  verdict : 'o -> violation list;
  plan_of : 'o -> Failure_plan.t;
  run :
    metrics:Sim.Metrics.t option -> tracing:bool -> seed:int -> Failure_plan.t -> 'r * violation list;
  trace : 'r -> Sim.World.trace_entry list;
}

let stall_budget = 1500.0

let schedule t ~k ~seed =
  Sim.Nemesis.generate (t.nemesis_rng seed) ~n_sites:t.n_sites ~k t.profile

let run_seed ?metrics t ~k ~seed = t.run_seed ~metrics ~seed (schedule t ~k ~seed)

(* A target whose seeds lower to a plan before they run: the protocol
   engine and Paxos Commit.  The seed's randomness splits: the schedule
   draws from its own stream, the world's latency draws from another, so
   the schedule never perturbs message timing beyond the faults it
   injects. *)
let plan_target ~name ~n_sites ~profile run =
  let run_seed ~metrics ~seed schedule =
    let plan = Failure_plan.of_schedule schedule in
    (match metrics with
    | Some m ->
        Sim.Metrics.bump m l_chaos_runs;
        Sim.Metrics.sample m l_schedule_faults (float_of_int (Failure_plan.fault_count plan))
    | None -> ());
    let result, violations = run ~metrics ~tracing:false ~seed plan in
    { seed; plan; result; violations }
  in
  {
    name;
    n_sites;
    profile;
    nemesis_rng = (fun seed -> Sim.Rng.split (Sim.Rng.create ~seed));
    run_seed;
    verdict = (fun o -> o.violations);
    plan_of = (fun o -> o.plan);
    run;
    trace = (fun r -> r.Runtime.trace);
  }

let target ?(profile = Sim.Nemesis.default_profile) (cfg : Runtime.config) =
  let judge ~metrics ~tracing ~seed plan =
    let result = Runtime.run { cfg with plan; seed; tracing } in
    (match metrics with Some m -> aggregate_run_metrics m result | None -> ());
    (result, violations_of ~presumption:cfg.presumption ~read_only:cfg.read_only result)
  in
  plan_target ~name:cfg.rulebook.Rulebook.protocol.Core.Protocol.name
    ~n_sites:(Core.Protocol.n_sites cfg.rulebook.Rulebook.protocol)
    ~profile judge

(* The engine calls below build one config each, from the options their
   callers set. *)
let run_plan ?(tracing = false) ?late_force ?detector ?fencing rulebook ~plan ~seed () =
  (target (Runtime.config ~until:stall_budget ?late_force ?detector ?fencing rulebook)).run
    ~metrics:None ~tracing ~seed plan

let run_one ?metrics ?profile ?presumption ?read_only ?sync_latency ?late_force ?detector
    ?suspicion_timeout rulebook ~k ~seed () =
  run_seed ?metrics
    (target ?profile
       (Runtime.config ~until:stall_budget ?presumption ?read_only ?sync_latency ?late_force
          ?detector ?suspicion_timeout rulebook))
    ~k ~seed

(* ---------------- shrinking ---------------- *)

let remove_nth n l = List.filteri (fun i _ -> i <> n) l
let replace_nth n x l = List.mapi (fun i y -> if i = n then x else y) l

(* Drop each fault in turn.  A storm is one discrete fault but has an
   internal dimension: also offer each storm with one fewer wave, so a
   wedge that needs only the first crash/recover cycle shrinks past the
   whole-storm clause. *)
let removal_candidates (p : Failure_plan.t) =
  List.mapi (fun i _ -> remove_nth i p) p
  @ List.concat
      (List.mapi
         (fun i -> function
           | Sim.Nemesis.Storm s when s.waves > 1 ->
               [ replace_nth i (Sim.Nemesis.Storm { s with waves = s.waves - 1 }) p ]
           | _ -> [])
         p)

(* A fault with its non-integral times rounded, so the minimal
   counterexample reads "crash site=1 at=2" rather than "at=2.0386...";
   [None] when there is nothing to round. *)
let round (f : Sim.Nemesis.fault) : Sim.Nemesis.fault option =
  let r = Float.round in
  match f with
  | Crash c when r c.at <> c.at -> Some (Crash { c with at = r c.at })
  | Recover c when r c.at <> c.at -> Some (Recover { c with at = r c.at })
  | Acceptor_crash c when r c.at <> c.at -> Some (Acceptor_crash { c with at = r c.at })
  | Lease_fault { at } when r at <> at -> Some (Lease_fault { at = r at })
  | Partition w when r w.from_t <> w.from_t || r w.until_t <> w.until_t ->
      Some (Partition { w with from_t = r w.from_t; until_t = r w.until_t })
  | Msg { nth; fault = Sim.World.Fault_delay extra } when r extra <> extra && r extra > 0.0 ->
      Some (Msg { nth; fault = Sim.World.Fault_delay (r extra) })
  | Delay_window w
    when r w.from_t <> w.from_t || r w.until_t <> w.until_t || Float.max 1.0 (r w.extra) <> w.extra
    ->
      Some
        (Delay_window
           { w with from_t = r w.from_t; until_t = r w.until_t; extra = Float.max 1.0 (r w.extra) })
  | Stall w when r w.from_t <> w.from_t || r w.until_t <> w.until_t ->
      Some (Stall { w with from_t = r w.from_t; until_t = r w.until_t })
  | Hb_loss w when r w.from_t <> w.from_t || r w.until_t <> w.until_t ->
      Some (Hb_loss { w with from_t = r w.from_t; until_t = r w.until_t })
  (* only the start time: rounding period/down could break the
     down < period invariant the storm model relies on *)
  | Storm s when r s.first <> s.first -> Some (Storm { s with first = r s.first })
  | _ -> None

let rounding_candidates (p : Failure_plan.t) =
  List.concat
    (List.mapi (fun i f -> Option.to_list (Option.map (fun f' -> replace_nth i f' p) (round f))) p)

let shrink_target ?metrics t ~seed ~oracle plan =
  let runs = ref 0 in
  let still_fails p =
    incr runs;
    (match metrics with Some m -> Sim.Metrics.bump m l_shrink_runs | None -> ());
    let _, vs = t.run ~metrics ~tracing:false ~seed p in
    List.exists (fun v -> v.oracle = oracle) vs
  in
  let rec reduce candidates_of p =
    match List.find_opt still_fails (candidates_of p) with
    | Some p' -> reduce candidates_of p'
    | None -> p
  in
  let p = reduce removal_candidates (Failure_plan.of_schedule plan) in
  let p = reduce rounding_candidates p in
  (p, !runs)

let shrink ?metrics ?late_force ?detector ?fencing rulebook ~seed ~oracle plan =
  shrink_target ?metrics
    (target (Runtime.config ~until:stall_budget ?late_force ?detector ?fencing rulebook))
    ~seed ~oracle plan

let counterexample_of t ~metrics ~seed plan violation =
  let cx_plan, cx_shrink_runs = shrink_target ?metrics t ~seed ~oracle:violation.oracle plan in
  (* replay the minimal plan with tracing to capture the evidence *)
  let result, vs = t.run ~metrics:None ~tracing:true ~seed cx_plan in
  let cx_violation =
    match List.find_opt (fun v -> v.oracle = violation.oracle) vs with
    | Some v -> v
    | None -> violation (* unreachable: shrinking preserved the oracle *)
  in
  {
    cx_seed = seed;
    cx_violation;
    cx_plan;
    cx_original_faults = Failure_plan.fault_count plan;
    cx_shrunk_faults = Failure_plan.fault_count cx_plan;
    cx_shrink_runs;
    cx_trace = t.trace result;
  }

(* ---------------- seed sweeps ---------------- *)

let sweep_target ?(seed_base = 0) ?(max_counterexamples = 5) ?(workers = 1) t ~k ~seeds =
  (* Phase 1, embarrassingly parallel: each seed runs in full isolation —
     its own World, Metrics registry and Rng stream, sharing only the
     target's read-only configuration — so worker assignment is
     unobservable.  Only a violating seed's outcome survives its run;
     every registry is merged in seed order as soon as it can be. *)
  let outcomes, metrics =
    Sim.Sweep.sweep ~workers ~seed_base ~seeds (fun ~metrics ~seed ->
        let run = t.run_seed ~metrics:(Some metrics) ~seed (schedule t ~k ~seed) in
        match t.verdict run with
        | [] -> None
        | vs ->
            List.iter (fun v -> Sim.Metrics.bump metrics (List.assoc v.oracle l_violations)) vs;
            Some run)
  in
  let failing =
    Array.to_seqi outcomes
    |> Seq.filter_map (fun (i, o) -> Option.map (fun run -> (seed_base + i, run)) o)
    |> List.of_seq
  in
  (* Phase 2, sequential and seed-ordered: aggregate verdicts and shrink
     the first [max_counterexamples] violations — identical selection and
     results whatever the worker count. *)
  let counterexamples = ref [] in
  let by_oracle = Hashtbl.create 4 in
  List.iter
    (fun (seed, run) ->
      List.iter
        (fun v ->
          Hashtbl.replace by_oracle v.oracle
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_oracle v.oracle));
          if List.length !counterexamples < max_counterexamples then
            counterexamples :=
              counterexample_of t ~metrics:(Some metrics) ~seed (t.plan_of run) v
              :: !counterexamples)
        (t.verdict run))
    failing;
  ( failing,
    {
      protocol = t.name;
      n_sites = t.n_sites;
      k;
      seeds_run = seeds;
      counterexamples = List.rev !counterexamples;
      violations_by_oracle =
        Hashtbl.fold (fun o c acc -> (o, c) :: acc) by_oracle [] |> List.sort compare;
      metrics;
    } )

let sweep ?profile ?presumption ?read_only ?group_commit ?sync_latency ?detector ?seed_base
    ?max_counterexamples ?workers rulebook ~k ~seeds () =
  snd
    (sweep_target ?seed_base ?max_counterexamples ?workers
       (target ?profile
          (Runtime.config ~until:stall_budget ?presumption ?read_only ?group_commit
             ?sync_latency ?detector rulebook))
       ~k ~seeds)

let pp_counterexample ppf cx =
  Fmt.pf ppf "@[<v>seed %d: %s violation — %s@,shrunk %d -> %d fault(s) in %d re-run(s)@,plan: %s@,trace:@,%a@]"
    cx.cx_seed
    (oracle_name cx.cx_violation.oracle)
    cx.cx_violation.detail cx.cx_original_faults cx.cx_shrunk_faults cx.cx_shrink_runs
    (match Failure_plan.to_string cx.cx_plan with "" -> "(no faults)" | s -> s)
    (Fmt.list ~sep:Fmt.cut (fun ppf (e : Sim.World.trace_entry) ->
         Fmt.pf ppf "  %8.2f  %s" e.at e.what))
    cx.cx_trace

let pp_summary ppf s =
  Fmt.pf ppf "@[<v>chaos %s n=%d k=%d: %d seed(s), %d violation(s)%a@]" s.protocol s.n_sites s.k
    s.seeds_run
    (List.fold_left (fun acc (_, c) -> acc + c) 0 s.violations_by_oracle)
    (Fmt.list ~sep:Fmt.nop (fun ppf (o, c) -> Fmt.pf ppf "@,  %s: %d" (oracle_name o) c))
    s.violations_by_oracle
