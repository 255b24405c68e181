(** The six ledger workloads.

    Each drives one public entry point at a fixed batch size.  A batch's
    inputs are generated before its clock starts; the untraced run calls
    the entry point directly, the traced run recomposes it from the
    public calls it is made of and wraps each in a {!Span}.  Both paths
    must produce the same digest: the canonical text of the outputs a
    batch is judged by. *)

module C = Engine.Chaos
module M = Sim.Metrics

type outcome = {
  items : int;  (** attempted *)
  failed : int;
  problems : string list;  (** output-check failures; empty on a correct batch *)
  digest : string;
  exact : (string * float) list;
      (** deterministic per-batch values (the simulated cost model) *)
  analyse : unit -> (string * float) list;
      (** per-layer counts read from a traced batch's results, computed
          after its clock stopped *)
}

type t = {
  name : string;
  setup : seed:int -> scale:int -> index:int -> warmup:bool -> traced:bool -> outcome;
      (** [setup ~seed ~scale] compiles what every batch shares; applying
          [~index ~warmup] generates that batch's inputs (a warm-up batch
          is a quarter of a timed one); the final [~traced] application
          runs it, and is the only part the ledger times. *)
}

(** Items per batch: [full] divided by the scale, a quarter of that for
    a warm-up batch. *)
let batch_size full ~scale ~warmup =
  let s = max 1 (full / scale) in
  if warmup then max 1 (s / 4) else s

let no_layers () = []

let timed_each f xs =
  let t0 = Span.now () in
  List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  float_of_int (Span.now () - t0) /. 1e3 /. float_of_int (max 1 (List.length xs))

let reachable_mb v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)) /. 1e6

(* The merge [Sim.Sweep.sweep] does after the last seed, replayed over
   the batch's own per-seed registries. *)
let merge_us_per_seed regs =
  let acc = M.create () in
  let t0 = Span.now () in
  List.iter (M.merge acc) regs;
  float_of_int (Span.now () - t0) /. 1e3 /. float_of_int (max 1 (List.length regs))

let count_by key xs =
  let tbl = Hashtbl.create 4 in
  List.iter (fun x -> Hashtbl.replace tbl (key x) (1 + Option.value ~default:0 (Hashtbl.find_opt tbl (key x)))) xs;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [] |> List.sort compare

let oracle_text name by = List.map (fun (o, c) -> Printf.sprintf "%s=%d" (name o) c) by |> String.concat ","
let counter_text m names = List.map (fun n -> Printf.sprintf "%s=%d" n (M.counter m n)) names |> String.concat ","

(* ---------------- spans ---------------- *)

let s_sweep = Span.register "sweep"
let s_seed = Span.register "chaos.seed"
let s_split = Span.register "rng.split"
let s_generate = Span.register "nemesis.generate"
let s_of_schedule = Span.register "failure_plan.of_schedule"
let s_run = Span.register "runtime.run"
let s_oracles = Span.register "chaos.violations_of"
let s_shrink = Span.register "chaos.shrink"
let s_kv_run_one = Span.register "kv_chaos.run_one"
let s_kv_shrink = Span.register "kv_chaos.shrink"
let s_db_run = Span.register "kv.db_run"
let s_check = Span.register "model_check.run"
let s_search = Span.register "explore.search"
let s_harness_run = Span.register "explore.harness_run"
let s_harness_shrink = Span.register "explore.harness_shrink"
let s_random_plan = Span.register "explore.random_plan"

(* Seed ranges of distinct batches never overlap: each batch index owns
   a timed batch's worth of seeds, and the warm-up batch gets index 99,
   beyond any timed batch. *)
let seed_base ~seed ~full ~scale index = (seed * 10_000_000) + (index * batch_size full ~scale ~warmup:false)

(* ---------------- engine chaos sweeps ---------------- *)

(* bench_detector's latency-fault profile without its site stalls:
   spikes below the suspicion timeout plus heartbeat loss.  Stalls stay
   out because they still break atomicity on rare seeds (seed
   10020000109: a backup that wakes from a stall decides at a stale
   epoch before it reads a rival's newer campaign), and every seed of a
   ledger workload must pass its oracles. *)
let detector_profile =
  {
    Sim.Nemesis.default_profile with
    p_delay_spike = 0.4;
    spike_extra_min = 1.0;
    spike_extra_max = 3.5;
    p_hb_loss = 0.5;
    detector_window_min = 4.0;
    detector_window_max = 14.0;
  }

let detector_counters = [ "false_suspicions"; "elections_started"; "elections"; "epoch_rejected_directives" ]

let chaos_digest ~by ~plans m =
  let faults =
    match M.summarize m "schedule_faults" with
    | Some s -> Printf.sprintf "%d/%.0f" s.M.count s.M.total
    | None -> "0/0"
  in
  Printf.sprintf "violations{%s} cx[%s] runs=%d faults=%s %s" (oracle_text C.oracle_name by)
    (String.concat " | " plans) (M.counter m "chaos_runs") faults (counter_text m detector_counters)

(* What [Chaos.run_one]'s private aggregation folds into the sweep's
   registry: the detector counters and the suspicion-latency histogram
   re-observed at bucket midpoints. *)
let aggregate_run_metrics m (result : Engine.Runtime.result) =
  let rm = result.run_metrics in
  List.iter (fun name -> match M.counter rm name with 0 -> () | by -> M.incr ~by m name) detector_counters;
  List.iter
    (fun (lower, upper, count) ->
      let v = if Float.is_finite upper then (lower +. upper) /. 2.0 else lower in
      for _ = 1 to count do
        M.observe m "suspicion_latency" v
      done)
    (M.buckets rm "suspicion_latency")

let runtime_counts (runs : C.run_outcome array) =
  let per_run f =
    Array.fold_left (fun acc (r : C.run_outcome) -> acc +. f r.result.Engine.Runtime.run_metrics) 0.0 runs
    /. float_of_int (max 1 (Array.length runs))
  in
  let counter name m = float_of_int (M.counter m name) in
  [
    ( "runtime.events_per_run",
      per_run (fun m ->
          List.fold_left
            (fun acc (n, c) -> if String.starts_with ~prefix:"events_" n then acc +. float_of_int c else acc)
            0.0 (M.counters m)) );
    ("runtime.messages_per_run", per_run (counter "messages_sent"));
    ("runtime.timer_events_per_run", per_run (counter "events_timer"));
    ("runtime.wal_forces_per_run", per_run (counter "wal_forces"));
    ("runtime.queue_depth_hwm", per_run (fun m -> float_of_int (M.gauge m "queue_depth_hwm")));
  ]

let engine_sweep ~name ~size ~detector ~profile =
  let judge by = if by = [] then [] else [ "3PC chaos sweep violations: " ^ oracle_text C.oracle_name by ] in
  let setup ~seed ~scale =
    let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
    let n_sites = 3 in
    fun ~index ~warmup ~traced ->
      let seed_base = seed_base ~seed ~full:size ~scale index in
      let size = batch_size size ~scale ~warmup in
      if not traced then begin
        (* Every violation gets a counterexample, so the distinct
           counterexample seeds are the failing seeds, as the traced path
           counts them.  Only a batch that already fails pays for the
           extra shrinking; the digest keeps the first five plans. *)
        let s = C.sweep ~profile ~detector ~max_counterexamples:size rb ~k:1 ~seed_base ~seeds:size () in
        let by = List.sort compare s.C.violations_by_oracle in
        let plans =
          List.filteri (fun i _ -> i < 5) s.C.counterexamples
          |> List.map (fun cx -> Engine.Failure_plan.to_string cx.C.cx_plan)
        in
        {
          items = size;
          failed = List.length (List.sort_uniq compare (List.map (fun cx -> cx.C.cx_seed) s.C.counterexamples));
          problems = judge by;
          digest = chaos_digest ~by ~plans s.C.metrics;
          exact = [];
          analyse = no_layers;
        }
      end
      else begin
        let regs = ref [] in
        let runs, merged =
          Span.span s_sweep ~item:index (fun () ->
              Sim.Sweep.sweep ~workers:1 ~seed_base ~seeds:size (fun ~metrics ~seed ->
                  regs := metrics :: !regs;
                  Span.span s_seed ~item:seed (fun () ->
                      let sched_rng =
                        Span.span s_split ~item:seed (fun () -> Sim.Rng.split (Sim.Rng.create ~seed))
                      in
                      let schedule =
                        Span.span s_generate ~item:seed (fun () ->
                            Sim.Nemesis.generate sched_rng ~n_sites ~k:1 profile)
                      in
                      let plan =
                        Span.span s_of_schedule ~item:seed (fun () -> Engine.Failure_plan.of_schedule schedule)
                      in
                      M.incr metrics "chaos_runs";
                      M.observe metrics "schedule_faults" (float_of_int (Engine.Failure_plan.fault_count plan));
                      let result =
                        Span.span s_run ~item:seed (fun () ->
                            Engine.Runtime.run
                              (Engine.Runtime.config ~plan ~seed ~tracing:false ~until:1500.0
                                 ~termination:Engine.Runtime.Skeen ~late_force:false ~detector rb))
                      in
                      aggregate_run_metrics metrics result;
                      let violations = Span.span s_oracles ~item:seed (fun () -> C.violations_of ~metrics result) in
                      List.iter
                        (fun (v : C.violation) -> M.incr metrics ("violations_" ^ C.oracle_name v.oracle))
                        violations;
                      { C.seed; plan; result; violations })))
        in
        (* the sweep's sequential phase: shrink the first five violations *)
        let violations = List.concat_map (fun (r : C.run_outcome) -> List.map (fun v -> (r, v)) r.violations) (Array.to_list runs) in
        let plans =
          List.filteri (fun i _ -> i < 5) violations
          |> List.map (fun ((r : C.run_outcome), (v : C.violation)) ->
                 Span.span s_shrink ~item:r.seed (fun () ->
                     C.shrink ~metrics:merged ~detector rb ~seed:r.seed ~oracle:v.oracle r.plan)
                 |> fst |> Engine.Failure_plan.to_string)
        in
        let by = count_by (fun (_, (v : C.violation)) -> v.oracle) violations in
        let analyse () =
          [
            ("sweep.retained_mb", reachable_mb runs);
            ("sweep.merge_us_per_seed", merge_us_per_seed (List.rev !regs));
            ( "chaos.fingerprint_us",
              timed_each C.fingerprint_of (Array.to_list (Array.map (fun (r : C.run_outcome) -> r.result) runs)) );
          ]
          @ runtime_counts runs
        in
        {
          items = size;
          failed = Array.fold_left (fun a (r : C.run_outcome) -> if r.violations = [] then a else a + 1) 0 runs;
          problems = judge by;
          digest = chaos_digest ~by ~plans merged;
          exact = [];
          analyse;
        }
      end
  in
  { name; setup }

(* Short runs of about 11 messages each.  The engine's run loop leads the
   self time; the sweep's retention and merge, the oracles and the
   nemesis follow.  5,000 seeds per batch keep the sweep's retained
   outcomes near 50 MB and the process under 100 MB. *)
let chaos_oracle =
  engine_sweep ~name:"chaos-oracle" ~size:5_000 ~detector:false ~profile:Sim.Nemesis.default_profile

(* Thousands of deliveries and timer events per seed: the simulator's
   event loop dominates and the sweep layer is negligible. *)
let chaos_detector = engine_sweep ~name:"chaos-detector" ~size:125 ~detector:true ~profile:detector_profile

(* ---------------- kv database under mixed load ---------------- *)

let mixed_spec n_txns =
  { Kv.Workload.n_txns; arrival_rate = 5.0; keys = 512; ops_per_txn = 3; write_ratio = 0.5; zipf_skew = 0.0 }

let kv_config seed =
  Kv.Db.config ~n_sites:4 ~protocol:Kv.Node.Three_phase ~seed ~durable_wal:true ~sync_latency:0.4
    ~group_commit:{ Kv.Kv_wal.max_batch = 8; max_wait = 0.05 }
    ~pipeline_depth:8 ()

let pct m name p = Option.value ~default:0.0 (M.percentile m name p)

(* The database under concurrent load, reads beside writes: lock table,
   kv WAL and group-commit batcher.  Open loop in simulated time only. *)
let kv_mixed =
  let full = 2_000 in
  let setup ~seed ~scale ~index ~warmup =
    let size = batch_size full ~scale ~warmup in
    let batch_seed = (seed * 1000) + index in
    let t0 = Span.now () in
    let txns = Kv.Workload.mixed (Sim.Rng.create ~seed:batch_seed) (mixed_spec size) in
    let gen_ms = float_of_int (Span.now () - t0) /. 1e6 in
    let cfg = kv_config batch_seed in
    fun ~traced ->
      let r = if traced then Span.span s_db_run ~item:index (fun () -> Kv.Db.run cfg txns) else Kv.Db.run cfg txns in
      let m = r.Kv.Db.run_metrics in
      let per_txn = float_of_int r.messages_sent /. float_of_int size in
      let analyse () =
        [
          ("kv.msgs_per_txn", per_txn);
          ("kv.forces_per_commit", r.forces_per_commit);
          ( "kv.group_flushes_per_commit",
            float_of_int (M.counter m "wal_group_flushes") /. float_of_int (max 1 r.committed) );
          ("kv.deadlock_aborts", float_of_int r.deadlock_aborts);
          ("kv.sim_lock_wait_p50_s", pct m "kv_lock_wait" 50.0);
          ("kv.sim_vote_phase_p50_s", pct m "kv_vote_phase" 50.0);
          ("kv.sim_decision_phase_p50_s", pct m "kv_decision_phase" 50.0);
          ( "kv.sim_group_batch_mean",
            match M.summarize m "group_batch_size" with Some s -> s.M.mean | None -> 0.0 );
          ("kv.sim_commit_p50_s", pct m "commit_latency" 50.0);
          ("kv.sim_commit_p99_s", pct m "commit_latency" 99.0);
          ("kv.workload_gen_ms", gen_ms);
        ]
      in
      {
        items = size;
        (* an abort is the database's answer to a deadlock or a lock
           timeout; a transaction left pending is the protocol failing to
           decide *)
        failed = r.pending;
        problems =
          (if r.atomicity_ok then [] else [ "kv-mixed atomicity broken" ])
          @ (if r.durability_breaches = [] then [] else [ "kv-mixed durability breached" ])
          @ if r.pending = 0 then [] else [ "kv-mixed left transactions pending" ];
        digest =
          Printf.sprintf "committed=%d aborted=%d pending=%d p50=%.6g p99=%.6g msgs=%d forces=%d" r.committed
            r.aborted r.pending (pct m "commit_latency" 50.0) (pct m "commit_latency" 99.0) r.messages_sent
            r.wal_forces;
        exact =
          [
            ("sim_commit_p50_s", pct m "commit_latency" 50.0);
            ("sim_commit_p99_s", pct m "commit_latency" 99.0);
            ("sim_msgs_per_txn", per_txn);
            ("sim_forces_per_commit", r.forces_per_commit);
          ];
        analyse;
      }
  in
  { name = "kv-mixed"; setup = (fun ~seed ~scale -> setup ~seed ~scale) }

(* ---------------- kv chaos sweep ---------------- *)

(* The same kv layers on short faulted bank runs with a sync per force,
   plus the sweep's retention and merge. *)
let kv_chaos =
  let module KC = Kv.Chaos_db in
  let full = 1_000 and protocol = Kv.Node.Three_phase and n_sites = 4 in
  let digest ~by ~failing m =
    Printf.sprintf "violations{%s} failing[%s] %s" (oracle_text KC.oracle_name by) (String.concat " | " failing)
      (counter_text m [ "chaos_runs"; "messages_sent"; "wal_forces"; "crashes"; "recoveries" ])
  in
  let judge by = if by = [] then [] else [ "kv 3PC chaos sweep violations: " ^ oracle_text KC.oracle_name by ] in
  let failing_text (seed, sch) = Printf.sprintf "%d:%s" seed (Sim.Nemesis.to_string sch) in
  let setup ~seed ~scale ~index ~warmup =
    let size = batch_size full ~scale ~warmup in
    let seed_base = seed_base ~seed ~full ~scale index in
    fun ~traced ->
      if not traced then begin
        let s = KC.sweep ~protocol ~n_sites ~k:1 ~seed_base ~seeds:size () in
        let by = List.sort compare s.violations_by_oracle in
        {
          items = size;
          failed = List.length s.failing;
          problems = judge by;
          digest = digest ~by ~failing:(List.map (fun (sd, _, sch) -> failing_text (sd, sch)) s.failing) s.metrics;
          exact = [];
          analyse = no_layers;
        }
      end
      else begin
        let regs = ref [] in
        let runs, merged =
          Span.span s_sweep ~item:index (fun () ->
              Sim.Sweep.sweep ~workers:1 ~seed_base ~seeds:size (fun ~metrics ~seed ->
                  regs := metrics :: !regs;
                  let o = Span.span s_kv_run_one ~item:seed (fun () -> KC.run_one ~protocol ~n_sites ~k:1 ~seed ()) in
                  M.incr metrics "chaos_runs";
                  List.iter (fun (v : KC.violation) -> M.incr metrics ("violations_" ^ KC.oracle_name v.oracle)) o.violations;
                  M.merge metrics o.result.Kv.Db.run_metrics;
                  o))
        in
        (* the sweep's sequential phase: shrink the first three failing seeds *)
        let failing = List.filter (fun (o : KC.run_outcome) -> o.violations <> []) (Array.to_list runs) in
        let failing =
          List.mapi
            (fun i (o : KC.run_outcome) ->
              if i >= 3 then (o.seed, o.schedule)
              else
                ( o.seed,
                  fst
                    (Span.span s_kv_shrink ~item:o.seed (fun () ->
                         KC.shrink ~protocol ~n_sites ~seed:o.seed ~oracle:(List.hd o.violations).oracle o.schedule))
                ))
            failing
        in
        let by = count_by (fun (v : KC.violation) -> v.oracle) (List.concat_map (fun (o : KC.run_outcome) -> o.violations) (Array.to_list runs)) in
        let analyse () =
          [
            ("sweep.retained_mb", reachable_mb runs);
            ("sweep.merge_us_per_seed", merge_us_per_seed (List.rev !regs));
          ]
        in
        {
          items = size;
          failed = List.length failing;
          problems = judge by;
          digest = digest ~by ~failing:(List.map failing_text failing) merged;
          exact = [];
          analyse;
        }
      end
  in
  { name = "kv-chaos"; setup = (fun ~seed ~scale -> setup ~seed ~scale) }

(* ---------------- exhaustive model check ---------------- *)

(* Full scale checks n=5; the smoke scales check n=4.  A warm-up caps
   exploration at a quarter of the states and stops at the cap. *)
let check_sites ~scale = if scale = 1 then 5 else 4
let expected_states ~scale = if scale = 1 then 296_145 else 15_784

(* Core.Intern and the checker only, no simulator code: the control that
   simulator optimisations must leave unchanged. *)
let check_3pc =
  let setup ~seed:_ ~scale =
    let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc (check_sites ~scale)) in
    let states = expected_states ~scale in
    fun ~index ~warmup ~traced ->
      let cfg =
        { Engine.Model_check.rulebook = rb; max_crashes = 1; limit = (if warmup then states / 4 else 2 * states); rule = `Skeen }
      in
      let run () = try Ok (Engine.Model_check.run cfg) with Failure msg -> Error msg in
      match if traced then Span.span s_check ~item:index run else run () with
      | Error msg ->
          {
            items = cfg.limit;
            failed = cfg.limit;
            problems = (if warmup then [] else [ "model check hit its state limit: " ^ msg ]);
            digest = "limit";
            exact = [];
            analyse = no_layers;
          }
      | Ok r ->
          let ok = r.safe && r.nonblocking && r.explored = states in
          {
            items = r.explored;
            failed = (if ok then 0 else r.explored);
            problems =
              (if ok then []
               else [ Printf.sprintf "central-3pc: safe=%b nonblocking=%b states=%d, expected %d" r.safe r.nonblocking r.explored states ]);
            digest =
              Printf.sprintf "explored=%d safe=%b nonblocking=%b inconsistent=%d blocked=%d" r.explored r.safe
                r.nonblocking (List.length r.inconsistent) (List.length r.blocked_terminals);
            exact = [];
            analyse = (fun () -> [ ("model_check.states", float_of_int r.explored) ]);
          }
  in
  { name = "check-3pc"; setup }

(* ---------------- coverage-guided exploration ---------------- *)

(* Coverage fingerprints, plan mutation and novelty ranking on top of
   chaos runs. *)
let explore_guided =
  let full = 16_384 in
  let setup ~seed ~scale =
    let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
    let plain = Engine.Explore.engine_harness ~k:1 rb in
    fun ~index ~warmup ~traced ->
      let budget = batch_size full ~scale ~warmup in
      let search_seed = (seed * 100) + index in
      let fingerprints = ref [] in
      let harness =
        if not traced then plain
        else
          {
            plain with
            run =
              (fun ~seed plan ->
                let r = Span.span s_harness_run ~item:seed (fun () -> plain.run ~seed plan) in
                fingerprints := r.fingerprint :: !fingerprints;
                r);
            shrink =
              (fun ~seed ~oracle plan ->
                Span.span s_harness_shrink ~item:seed (fun () -> plain.shrink ~seed ~oracle plan));
            random_plan = (fun ~seed -> Span.span s_random_plan ~item:seed (fun () -> plain.random_plan ~seed));
          }
      in
      let search () =
        try Ok (Engine.Explore.search harness ~mode:`Guided ~budget ~seed:search_seed ())
        with e -> Error (Printexc.to_string e)
      in
      match if traced then Span.span s_search ~item:index search else search () with
      | Error msg ->
          {
            items = budget;
            failed = budget;
            problems = [ "explore raised " ^ msg ];
            digest = "raised";
            exact = [];
            analyse = no_layers;
          }
      | Ok r ->
          let analyse () =
            let cov = Sim.Coverage.create () in
            [
              ("explore.corpus_size", float_of_int (List.length r.corpus));
              ("explore.coverage_edges", float_of_int r.coverage);
              ( "explore.shrink_runs",
                float_of_int (List.fold_left (fun a b -> a + b.Engine.Explore.bug_shrink_runs) 0 r.bugs) );
              ("coverage.add_novel_us", timed_each (Sim.Coverage.add cov) (List.rev !fingerprints));
            ]
          in
          {
            items = r.runs;
            failed = 0;
            problems = [];
            digest =
              Printf.sprintf "runs=%d coverage=%d corpus=%d violating=%d bugs[%s]" r.runs r.coverage
                (List.length r.corpus) r.violating_runs
                (String.concat " | "
                   (List.map
                      (fun b -> b.Engine.Explore.bug_oracle ^ ":" ^ Engine.Failure_plan.to_string b.Engine.Explore.bug_shrunk)
                      r.bugs));
            exact = [];
            analyse;
          }
  in
  { name = "explore-guided"; setup }

let all = [ chaos_oracle; chaos_detector; kv_mixed; kv_chaos; check_3pc; explore_guided ]
let find name = List.find_opt (fun w -> w.name = name) all
