(** Benchmark executable: first the experiment harness that regenerates
    every figure/table of the paper (see EXPERIMENTS.md), then Bechamel
    micro-benchmarks of the analysis and execution paths.

    Usage:
      dune exec bench/main.exe                 (experiments + micro-benches)
      dune exec bench/main.exe -- experiments  (experiments only)
      dune exec bench/main.exe -- micro        (micro-benches only) *)

open Bechamel
open Toolkit

let b_reachability_2pc =
  Test.make ~name:"reachability: central-2pc n=3"
    (Staged.stage (fun () -> ignore (Core.Reachability.build (Core.Catalog.central_2pc 3))))

let b_reachability_3pc =
  Test.make ~name:"reachability: central-3pc n=3"
    (Staged.stage (fun () -> ignore (Core.Reachability.build (Core.Catalog.central_3pc 3))))

let b_concurrency =
  let graph = Core.Reachability.build (Core.Catalog.central_3pc 3) in
  Test.make ~name:"concurrency sets: central-3pc n=3"
    (Staged.stage (fun () -> ignore (Core.Concurrency.compute graph)))

let b_theorem =
  let graph = Core.Reachability.build (Core.Catalog.central_3pc 3) in
  Test.make ~name:"nonblocking theorem: central-3pc n=3"
    (Staged.stage (fun () -> ignore (Core.Nonblocking.analyze graph)))

let b_synchrony =
  Test.make ~name:"synchrony check: central-2pc n=3"
    (Staged.stage (fun () -> ignore (Core.Synchrony.check (Core.Catalog.central_2pc 3))))

let b_synthesis =
  let p = Core.Catalog.central_2pc 3 in
  Test.make ~name:"buffer synthesis: central-2pc n=3"
    (Staged.stage (fun () -> ignore (Core.Synthesis.buffer_protocol p)))

let b_runtime_2pc =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  Test.make ~name:"runtime: one 2PC commit, n=3"
    (Staged.stage (fun () -> ignore (Engine.Runtime.run (Engine.Runtime.config rb))))

let b_runtime_3pc =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  Test.make ~name:"runtime: one 3PC commit, n=3"
    (Staged.stage (fun () -> ignore (Engine.Runtime.run (Engine.Runtime.config rb))))

let b_runtime_termination =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let plan =
    Engine.Failure_plan.crash_at_step ~site:1 ~step:1 ~mode:(Engine.Failure_plan.After_logging 0)
  in
  Test.make ~name:"runtime: 3PC termination protocol, n=3"
    (Staged.stage (fun () -> ignore (Engine.Runtime.run (Engine.Runtime.config ~plan rb))))

let b_kv_bank =
  let rng = Sim.Rng.create ~seed:1 in
  let wl = Kv.Workload.bank rng ~n_txns:50 ~accounts:16 ~arrival_rate:1.0 in
  let cfg =
    Kv.Db.config ~n_sites:3 ~protocol:Kv.Node.Three_phase ~seed:1
      ~initial_data:(Kv.Workload.bank_initial ~accounts:16 ~initial_balance:100)
      ()
  in
  Test.make ~name:"kv: 50 bank transfers under 3PC, n=3"
    (Staged.stage (fun () -> ignore (Kv.Db.run cfg wl)))

let b_model_check =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  Test.make ~name:"model check: central-3pc n=3, k=1"
    (Staged.stage (fun () ->
         ignore (Engine.Model_check.run { Engine.Model_check.rulebook = rb; max_crashes = 1; limit = 1_000_000; rule = `Skeen })))

let b_lock_table =
  Test.make ~name:"lock table: 100 acquire/release cycles"
    (Staged.stage (fun () ->
         let t = Kv.Lock_table.create () in
         for txn = 1 to 100 do
           ignore (Kv.Lock_table.acquire t ~txn ~key:"a" ~mode:Kv.Lock_table.Exclusive);
           ignore (Kv.Lock_table.acquire t ~txn ~key:"b" ~mode:Kv.Lock_table.Shared);
           Kv.Lock_table.release_all t ~txn
         done))

let micro_tests =
  Test.make_grouped ~name:"skeen81"
    [
      b_reachability_2pc;
      b_reachability_3pc;
      b_concurrency;
      b_theorem;
      b_synchrony;
      b_synthesis;
      b_runtime_2pc;
      b_runtime_3pc;
      b_runtime_termination;
      b_kv_bank;
      b_model_check;
      b_lock_table;
    ]

(* Returns (name, ns/run) estimates so the run report can export them. *)
let run_micro () =
  Fmt.pr "@.=== Bechamel micro-benchmarks (monotonic clock, ns/run) ===@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances micro_tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  let estimates = ref [] in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort compare
        |> List.iter (fun (name, ols) ->
               match Analyze.OLS.estimates ols with
               | Some [ est ] ->
                   estimates := (name, est) :: !estimates;
                   Fmt.pr "%-48s %12.1f ns/run@." name est
               | _ -> Fmt.pr "%-48s %12s@." name "n/a"))
    results;
  List.rev !estimates

let report_file = "BENCH_results.json"

let () =
  let argv = Array.to_list Sys.argv in
  let want s = List.mem s argv in
  let report = Sim.Report.create ~bench_name:"results" () in
  let ok = if want "micro" && not (want "experiments") then true else Experiments.run_all () in
  Sim.Report.add report "experiments" (Experiments.results_json ());
  if (not (want "experiments")) || want "micro" then begin
    let estimates = run_micro () in
    Sim.Report.add report "micro_ns_per_run"
      (Sim.Json.Obj (List.map (fun (name, est) -> (name, Sim.Json.Float est)) estimates))
  end;
  Sim.Report.write report ~file:report_file;
  Fmt.pr "@.wrote %s@." report_file;
  if not ok then exit 1
