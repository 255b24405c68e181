(** Guided-vs-random benchmark of the fault-space explorer: runs
    {!Engine.Explore.search} in both modes at equal budget on the
    protocol-engine and database harnesses and writes coverage growth,
    corpus size, violation yield and time-to-rediscover the pinned
    historical bugs to [BENCH_explore.json] — the trajectory every
    future PR diffs to check the guided search still earns its keep.

    The pinned rediscovery targets are the two textbook blocking bugs
    this repo's random sweeps found first: the engine's central-2PC
    coordinator step-crash wedge (shrinks to one fault,
    ["step-crash site=1 step=1 mode=before"]) and the kv harness's 2PC
    coordinator-crash wedge (shrinks to one timed crash).  A mode
    "rediscovers" a target when it shrinks a progress violation to a
    plan no larger than the pinned one.

    [--smoke] (the [@explore-smoke] dune alias) runs a tiny fixed
    budget: guided must match-or-beat equal-budget random on coverage
    edges on both harnesses and rediscover both wedges, and the guided
    corpora are saved under [corpus/] for the CI artifact.  Exits
    non-zero on any unexpected result. *)

let time = Helpers_bench.time
let rate = Helpers_bench.rate
let workers = Helpers_bench.arg_int "--workers" ~default:1 Sys.argv

type target = { t_oracle : string; t_max_faults : int }

(* pinned plans are single-fault, so rediscovery means "shrunk to <= 1
   fault under the same oracle" *)
let progress_wedge = { t_oracle = "progress"; t_max_faults = 1 }

let rediscovery (result : Engine.Explore.result) target =
  List.find_opt
    (fun (b : Engine.Explore.bug) ->
      b.Engine.Explore.bug_oracle = target.t_oracle
      && Engine.Failure_plan.fault_count b.Engine.Explore.bug_shrunk <= target.t_max_faults)
    result.Engine.Explore.bugs

let bug_json (b : Engine.Explore.bug) =
  Sim.Json.Obj
    [
      ("oracle", Sim.Json.Str b.Engine.Explore.bug_oracle);
      ("found_at_run", Sim.Json.Int b.Engine.Explore.bug_found_at);
      ( "shrunk_faults",
        Sim.Json.Int (Engine.Failure_plan.fault_count b.Engine.Explore.bug_shrunk) );
      ("plan", Sim.Json.Str (Engine.Failure_plan.to_string b.Engine.Explore.bug_shrunk));
    ]

let mode_json target ((result : Engine.Explore.result), wall) =
  let redisc = Option.map (fun b -> b.Engine.Explore.bug_found_at) (rediscovery result target) in
  Sim.Json.Obj
    [
      ("mode", Sim.Json.Str (Engine.Explore.mode_name result.Engine.Explore.mode));
      ("budget", Sim.Json.Int result.Engine.Explore.budget);
      ("wall_s", Sim.Json.Float wall);
      ("runs_per_sec", Sim.Json.Float (rate result.Engine.Explore.runs wall));
      ("coverage_edges", Sim.Json.Int result.Engine.Explore.coverage);
      ("corpus_size", Sim.Json.Int (List.length result.Engine.Explore.corpus));
      ("violating_runs", Sim.Json.Int result.Engine.Explore.violating_runs);
      ("bugs", Sim.Json.List (List.map bug_json result.Engine.Explore.bugs));
      ( "rediscovered_at_run",
        match redisc with Some r -> Sim.Json.Int r | None -> Sim.Json.Null );
      ( "coverage_curve",
        Sim.Json.List
          (List.map
             (fun (runs, cov) -> Sim.Json.List [ Sim.Json.Int runs; Sim.Json.Int cov ])
             result.Engine.Explore.curve) );
    ]

(* one harness row: guided and random at the same budget, same seed *)
let row ?corpus_dir ~label ~budget ~target harness =
  Fmt.epr "explore %s budget=%d (guided vs random)...@." label budget;
  let guided, g_wall =
    time (fun () -> Engine.Explore.search ~workers harness ~mode:`Guided ~budget ())
  in
  let random, r_wall =
    time (fun () -> Engine.Explore.search ~workers harness ~mode:`Random ~budget ())
  in
  (match corpus_dir with
  | Some dir -> Engine.Explore.save_corpus ~dir guided
  | None -> ());
  ( Sim.Json.Obj
      [
        ("harness", Sim.Json.Str label);
        ("n_sites", Sim.Json.Int harness.Engine.Explore.n_sites);
        ("guided", mode_json target (guided, g_wall));
        ("random", mode_json target (random, r_wall));
        ( "guided_minus_random_edges",
          Sim.Json.Int (guided.Engine.Explore.coverage - random.Engine.Explore.coverage) );
      ],
    guided,
    random )

let engine_2pc () =
  Engine.Explore.engine_harness ~k:1 (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))

let engine_3pc () =
  Engine.Explore.engine_harness ~k:1 (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))

let kv_2pc () = Kv.Chaos_db.harness ~protocol:Kv.Node.Two_phase ~k:1 ()
let kv_3pc () = Kv.Chaos_db.harness ~protocol:Kv.Node.Three_phase ~k:1 ()

(* ---------------- full bench ---------------- *)

let full () =
  let report = Sim.Report.create ~bench_name:"explore" () in
  let rows =
    [
      row ~label:"engine-central-2pc" ~budget:512 ~target:progress_wedge (engine_2pc ());
      row ~label:"engine-central-3pc" ~budget:512 ~target:progress_wedge (engine_3pc ());
      row ~label:"kv-2pc" ~budget:256 ~target:progress_wedge (kv_2pc ());
      row ~label:"kv-3pc" ~budget:256 ~target:progress_wedge (kv_3pc ());
    ]
  in
  Sim.Report.add report "explore" (Sim.Json.List (List.map (fun (j, _, _) -> j) rows));
  let file = "BENCH_explore.json" in
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
  let report = Sim.Report.create ~bench_name:"explore" () in
  (* at tiny budgets the guided mode is still mostly bootstrapping from
     random plans; 96 is where the corpus reliably starts paying rent *)
  let budget = 96 in
  let judge ~label ~expect_wedge (json, guided, random) =
    check
      (Fmt.str "%s: guided coverage %d < random coverage %d" label
         guided.Engine.Explore.coverage random.Engine.Explore.coverage)
      (guided.Engine.Explore.coverage >= random.Engine.Explore.coverage);
    if expect_wedge then
      check
        (Fmt.str "%s: guided search never shrank a progress wedge to <= 1 fault" label)
        (rediscovery guided progress_wedge <> None);
    json
  in
  let engine_row =
    judge ~label:"engine-central-2pc" ~expect_wedge:true
      (row
         ~corpus_dir:(Filename.concat "corpus" "engine-central-2pc")
         ~label:"engine-central-2pc" ~budget ~target:progress_wedge (engine_2pc ()))
  in
  let kv_row =
    judge ~label:"kv-2pc" ~expect_wedge:true
      (row
         ~corpus_dir:(Filename.concat "corpus" "kv-2pc")
         ~label:"kv-2pc" ~budget ~target:progress_wedge (kv_2pc ()))
  in
  Sim.Report.add report "explore" (Sim.Json.List [ engine_row; kv_row ]);
  Sim.Report.write report ~file:"BENCH_explore.json";
  if !failures > 0 then begin
    Fmt.epr "explore-smoke: %d unexpected result(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "explore-smoke: guided >= random coverage on both harnesses, both 2PC coordinator-crash \
     wedges rediscovered and shrunk to one fault; corpora in corpus/@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
