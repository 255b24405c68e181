(** Failure-detector benchmark: what timeout-based suspicion costs and
    what epoch fencing buys.  Writes [BENCH_detector.json] with four
    sections:

    - [timeout_sweep]: termination latency and false-suspicion rate as a
      function of the suspicion timeout, under a fixed latency-fault
      profile (spikes, stalls, heartbeat loss).  Aggressive timeouts
      detect real crashes faster but suspect falsely more often; timeouts
      below the network's worst-case jitter let both survivors terminate
      independently — the unsafe region the paper's reliable-detector
      assumption rules out.
    - [detector_sweeps]: 500-seed chaos sweeps with detector faults armed
      and fencing on — atomicity and split-brain must stay clean (the
      experimental evidence for epoch fencing); progress violations are
      tolerated, a deposed backup that stands down may leave the run
      undecided.
    - [suspicion]: detector metrics from the 500-seed sweep —
      false-suspicion count, crash-to-suspicion latency histogram,
      elections started, directives fenced.
    - [ablations]: the [--no-fencing] ablation on a pinned plan (stalled
      backup wakes with stale authority after a higher-epoch backup
      decided and crashed mid-announcement): atomicity violated without
      fencing, caught, shrunk and replayed through its text form; the
      same plan with fencing on is safe.

    [--smoke] (wired to the [@detector-smoke] dune alias) runs a
    seconds-long fixed corpus asserting the correctness half only. *)

module C = Engine.Chaos
module FP = Engine.Failure_plan
module N = Sim.Nemesis
module KC = Kv.Chaos_db
module M = Sim.Metrics

let time = Helpers_bench.time
let rate = Helpers_bench.rate
let count_for = Helpers_bench.count_for

(* [--workers N] shards the seed sweeps below across N domains via
   Sim.Sweep; results are byte-identical whatever the value. *)
let workers = Helpers_bench.arg_int "--workers" ~default:1 Sys.argv

(* Latency jitter below the default suspicion threshold plus one-sided
   detector starvation (stalls, heartbeat loss): the fault class fencing
   must survive.  Spikes are capped at [suspicion_timeout - heartbeat
   - margin] so a spike alone cannot partition the survivors into
   mutually suspecting halves — that regime is measured separately by
   the timeout sweep. *)
let detector_profile = N.detector_faults N.default_profile
let kv_detector_profile = N.detector_faults KC.default_profile

(* The fencing ablation, pinned (experiment E19).  Coordinator crashes
   having precommitted site 2 only; site 3 terminates at epoch 2,
   planting its epoch at site 4, decides abort and crashes before
   announcing; the stalled site 2 wakes believing it leads at epoch 1
   and walks site 4 to commit — unless site 4 fences the stale
   directive. *)
let fencing_pinned =
  "step-crash site=1 step=1 mode=after-logging:1; stall site=2 from=4 until=14; decide-crash \
   site=3 sent=0"

let has_atomicity vs = List.exists (fun (v : C.violation) -> v.C.oracle = C.Atomicity) vs
let safety_oracles = [ C.Atomicity; C.Split_brain ]

let safety_clean by =
  List.for_all (fun o -> count_for by o = 0) safety_oracles

(* ---------------- termination latency vs suspicion timeout ---------------- *)

let timeout_row ~seeds suspicion_timeout =
  Fmt.epr "timeout sweep: suspicion=%.1f x%d...@." suspicion_timeout seeds;
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let metrics = M.create () in
  let durations = ref [] in
  let violations = ref [] in
  for seed = 0 to seeds - 1 do
    let o =
      C.run_one ~metrics ~profile:detector_profile ~detector:true ~suspicion_timeout rb ~k:1
        ~seed ()
    in
    if o.C.result.Engine.Runtime.duration > 0.0 then
      durations := o.C.result.Engine.Runtime.duration :: !durations;
    violations := o.C.violations @ !violations
  done;
  let n = List.length !durations in
  let mean = if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 !durations /. float_of_int n in
  let p95 =
    match List.sort compare !durations with
    | [] -> 0.0
    | sorted -> List.nth sorted (min (n - 1) (n * 95 / 100))
  in
  let count o = List.length (List.filter (fun (v : C.violation) -> v.C.oracle = o) !violations) in
  Sim.Json.Obj
    [
      ("suspicion_timeout", Sim.Json.Float suspicion_timeout);
      ("seeds", Sim.Json.Int seeds);
      ("mean_decision_latency_s", Sim.Json.Float mean);
      ("p95_decision_latency_s", Sim.Json.Float p95);
      ("false_suspicions", Sim.Json.Int (M.counter metrics "false_suspicions"));
      ( "false_suspicions_per_run",
        Sim.Json.Float (float_of_int (M.counter metrics "false_suspicions") /. float_of_int seeds)
      );
      ("elections_started", Sim.Json.Int (M.counter metrics "elections_started"));
      ("violations_atomicity", Sim.Json.Int (count C.Atomicity));
      ("violations_split_brain", Sim.Json.Int (count C.Split_brain));
      ("violations_progress", Sim.Json.Int (count C.Progress));
    ]

(* ---------------- fault-on detector sweeps ---------------- *)

let hist_json metrics name =
  match M.summarize metrics name with
  | None -> Sim.Json.Null
  | Some s ->
      Sim.Json.Obj
        [
          ("count", Sim.Json.Int s.M.count);
          ("mean", Sim.Json.Float s.M.mean);
          ("p50", Sim.Json.Float s.M.p50);
          ("p99", Sim.Json.Float s.M.p99);
          ("max", Sim.Json.Float s.M.max);
        ]

let engine_detector_sweep ~seeds =
  Fmt.epr "detector sweep: central-3pc n=3 k=1 x%d...@." seeds;
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let summary, wall =
    time (fun () -> C.sweep ~profile:detector_profile ~detector:true rb ~workers ~k:1 ~seeds ())
  in
  let by = summary.C.violations_by_oracle in
  let m = summary.C.metrics in
  let row =
    Sim.Json.Obj
      [
        ("harness", Sim.Json.Str "protocol");
        ("protocol", Sim.Json.Str "central-3pc");
        ("n", Sim.Json.Int 3);
        ("k", Sim.Json.Int 1);
        ("seeds", Sim.Json.Int seeds);
        ("wall_s", Sim.Json.Float wall);
        ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
        ("violations_atomicity", Sim.Json.Int (count_for by C.Atomicity));
        ("violations_split_brain", Sim.Json.Int (count_for by C.Split_brain));
        ("violations_progress", Sim.Json.Int (count_for by C.Progress));
        ("safety_clean", Sim.Json.Bool (safety_clean by));
      ]
  in
  let suspicion =
    Sim.Json.Obj
      [
        ("false_suspicions", Sim.Json.Int (M.counter m "false_suspicions"));
        ("elections_started", Sim.Json.Int (M.counter m "elections_started"));
        ("epoch_rejected_directives", Sim.Json.Int (M.counter m "epoch_rejected_directives"));
        ("suspicion_latency_s", hist_json m "suspicion_latency");
      ]
  in
  (row, suspicion, safety_clean by)

let kv_detector_sweep ~seeds =
  Fmt.epr "detector sweep: kv central-3pc n=4 k=1 x%d...@." seeds;
  let summary, wall =
    time (fun () ->
        KC.sweep ~profile:kv_detector_profile ~n_sites:4 ~detector:true ~workers ~k:1 ~seeds ())
  in
  let by = summary.KC.violations_by_oracle in
  let safety =
    count_for by KC.Atomicity = 0 && count_for by KC.Split_brain = 0
    && count_for by KC.Conservation = 0
  in
  ( Sim.Json.Obj
      [
        ("harness", Sim.Json.Str "kv");
        ("protocol", Sim.Json.Str "central-3pc");
        ("n", Sim.Json.Int 4);
        ("k", Sim.Json.Int 1);
        ("seeds", Sim.Json.Int seeds);
        ("wall_s", Sim.Json.Float wall);
        ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
        ("violations_atomicity", Sim.Json.Int (count_for by KC.Atomicity));
        ("violations_split_brain", Sim.Json.Int (count_for by KC.Split_brain));
        ("violations_conservation", Sim.Json.Int (count_for by KC.Conservation));
        ("violations_progress", Sim.Json.Int (count_for by KC.Progress));
        ("safety_clean", Sim.Json.Bool safety);
      ],
    safety )

(* ---------------- the fencing ablation ---------------- *)

let rb4 () = Engine.Rulebook.compile (Core.Catalog.central_3pc 4)

let fencing_ablation_row () =
  Fmt.epr "ablation: no-fencing pinned plan...@.";
  let rb = rb4 () in
  let plan = FP.of_string_exn fencing_pinned in
  let _, unfenced = C.run_plan ~detector:true ~fencing:false rb ~plan ~seed:1 () in
  let _, fenced = C.run_plan ~detector:true ~fencing:true rb ~plan ~seed:1 () in
  let minimal, shrink_runs =
    C.shrink ~detector:true ~fencing:false rb ~seed:1 ~oracle:C.Atomicity plan
  in
  let reloaded = FP.of_string_exn (FP.to_string minimal) in
  let _, replay = C.run_plan ~detector:true ~fencing:false rb ~plan:reloaded ~seed:1 () in
  Sim.Json.Obj
    [
      ("ablation", Sim.Json.Str "no-fencing");
      ("plan", Sim.Json.Str fencing_pinned);
      ("caught_without_fencing", Sim.Json.Bool (has_atomicity unfenced));
      ("safe_with_fencing", Sim.Json.Bool (not (has_atomicity fenced)));
      ("shrunk_faults", Sim.Json.Int (FP.fault_count minimal));
      ("shrink_runs", Sim.Json.Int shrink_runs);
      ("shrunk_plan", Sim.Json.Str (FP.to_string minimal));
      ("replays_through_text", Sim.Json.Bool (has_atomicity replay));
    ]

(* ---------------- full bench ---------------- *)

let full () =
  let report = Sim.Report.create ~bench_name:"detector" () in
  Sim.Report.add report "timeout_sweep"
    (Sim.Json.List (List.map (timeout_row ~seeds:150) [ 2.0; 3.0; 5.0; 8.0; 12.0 ]));
  let engine_row, suspicion, _ = engine_detector_sweep ~seeds:500 in
  let kv_row, _ = kv_detector_sweep ~seeds:150 in
  Sim.Report.add report "detector_sweeps" (Sim.Json.List [ engine_row; kv_row ]);
  Sim.Report.add report "suspicion" suspicion;
  Sim.Report.add report "ablations" (Sim.Json.List [ fencing_ablation_row () ]);
  let file = "BENCH_detector.json" in
  Sim.Report.write report ~file;
  Fmt.pr "wrote %s@." file

(* ---------------- smoke mode ---------------- *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Fmt.epr "UNEXPECTED %s@." what
  end

let smoke () =
  let rb3 = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  (* detector-fault sweeps must stay safety-clean under fencing *)
  let s = C.sweep ~profile:detector_profile ~detector:true rb3 ~workers ~k:1 ~seeds:60 () in
  check "engine detector sweep violated safety" (safety_clean s.C.violations_by_oracle);
  check "engine detector sweep suspected nobody falsely"
    (M.counter s.C.metrics "false_suspicions" > 0);
  let skv =
    KC.sweep ~profile:kv_detector_profile ~n_sites:4 ~detector:true ~workers ~k:1 ~seeds:20 ()
  in
  check "kv detector sweep violated safety"
    (count_for skv.KC.violations_by_oracle KC.Atomicity = 0
    && count_for skv.KC.violations_by_oracle KC.Split_brain = 0);
  (* the fencing ablation must be caught, and only the ablation *)
  let rb = rb4 () in
  let plan = FP.of_string_exn fencing_pinned in
  let _, unfenced = C.run_plan ~detector:true ~fencing:false rb ~plan ~seed:1 () in
  check "no-fencing ablation not caught by the atomicity oracle" (has_atomicity unfenced);
  let _, fenced = C.run_plan ~detector:true ~fencing:true rb ~plan ~seed:1 () in
  check "fencing failed to stop the stale backup" (not (has_atomicity fenced));
  let minimal, _ = C.shrink ~detector:true ~fencing:false rb ~seed:1 ~oracle:C.Atomicity plan in
  let _, replay =
    C.run_plan ~detector:true ~fencing:false rb ~plan:(FP.of_string_exn (FP.to_string minimal))
      ~seed:1 ()
  in
  check "shrunk no-fencing plan does not replay through its text form" (has_atomicity replay);
  if !failures > 0 then begin
    Fmt.epr "detector-smoke: %d unexpected result(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "detector-smoke: fault-on sweeps safety-clean, false suspicions provoked and survived, \
     no-fencing ablation caught and shrunk@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
