(** Wall-clock benchmark of the chaos harness: sweeps randomized fault
    schedules over the protocol catalog (and the database harness) and
    writes schedules/sec, per-oracle violation counts and shrinking cost
    to [BENCH_chaos.json], so every future PR has both a perf trajectory
    and a correctness trajectory — 3PC rows must stay clean, the 2PC row
    must keep reporting its textbook blocking counterexample.

    [--smoke] instead runs a seconds-long fixed-seed corpus (wired to
    the [@chaos-smoke] dune alias): central-2pc must yield at least one
    progress violation shrinkable to <= 2 faults and no atomicity
    violation; central-3pc and decentralized-3pc must be clean; the
    database harness under 3PC must be clean.  Exits non-zero on any
    unexpected result. *)

let time = Helpers_bench.time
let rate = Helpers_bench.rate
let count_for = Helpers_bench.count_for

(* [--workers N] shards every seed sweep below across N domains via
   Sim.Sweep; results are byte-identical whatever the value. *)
let workers = Helpers_bench.arg_int "--workers" ~default:1 Sys.argv

(* ---------------- full bench: protocol-level rows ---------------- *)

(* expected_blocking marks rows where violations are the *correct*
   outcome (Skeen: 2PC blocks on a coordinator crash); a regression is a
   clean 2PC row just as much as a dirty 3PC row. *)
let engine_configs =
  [
    ("central-2pc", Core.Catalog.central_2pc, 3, 1, 500, true);
    ("central-2pc", Core.Catalog.central_2pc, 4, 1, 300, true);
    ("decentralized-2pc", Core.Catalog.decentralized_2pc, 3, 1, 300, true);
    ("central-3pc", Core.Catalog.central_3pc, 3, 1, 500, false);
    ("central-3pc", Core.Catalog.central_3pc, 4, 2, 300, false);
    ("decentralized-3pc", Core.Catalog.decentralized_3pc, 3, 1, 300, false);
  ]

let engine_row (label, build, n, k, seeds, expected_blocking) =
  Fmt.epr "chaos %s n=%d k=%d seeds=%d...@." label n k seeds;
  let rb = Engine.Rulebook.compile (build n) in
  let summary, wall = time (fun () -> Engine.Chaos.sweep rb ~workers ~k ~seeds ()) in
  let by = summary.Engine.Chaos.violations_by_oracle in
  let shrink_runs =
    List.fold_left
      (fun a cx -> a + cx.Engine.Chaos.cx_shrink_runs)
      0 summary.Engine.Chaos.counterexamples
  in
  let min_shrunk =
    List.fold_left
      (fun a cx -> min a cx.Engine.Chaos.cx_shrunk_faults)
      max_int summary.Engine.Chaos.counterexamples
  in
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "protocol");
      ("protocol", Sim.Json.Str label);
      ("n", Sim.Json.Int n);
      ("k", Sim.Json.Int k);
      ("seeds", Sim.Json.Int seeds);
      ("wall_s", Sim.Json.Float wall);
      ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
      ("violations_atomicity", Sim.Json.Int (count_for by Engine.Chaos.Atomicity));
      ("violations_progress", Sim.Json.Int (count_for by Engine.Chaos.Progress));
      ( "violations_recovery",
        Sim.Json.Int (count_for by Engine.Chaos.Recovery_convergence) );
      ("counterexamples_shrunk", Sim.Json.Int (List.length summary.Engine.Chaos.counterexamples));
      ("shrink_runs", Sim.Json.Int shrink_runs);
      ( "min_shrunk_faults",
        if min_shrunk = max_int then Sim.Json.Null else Sim.Json.Int min_shrunk );
      ("expected_blocking", Sim.Json.Bool expected_blocking);
      (* chaos_runs/shrink_runs counters and the schedule_faults histogram *)
      ("metrics", Sim.Metrics.to_json summary.Engine.Chaos.metrics);
    ]

(* ---------------- full bench: database-harness rows ---------------- *)

let kv_configs =
  [
    (Kv.Node.Two_phase, "central-2pc", 4, 1, 150, true);
    (Kv.Node.Three_phase, "central-3pc", 4, 1, 150, false);
    (Kv.Node.Three_phase, "central-3pc", 4, 2, 100, false);
  ]

let kv_row (protocol, label, n, k, seeds, expected_blocking) =
  Fmt.epr "chaos --kv %s n=%d k=%d seeds=%d...@." label n k seeds;
  let summary, wall =
    time (fun () -> Kv.Chaos_db.sweep ~protocol ~n_sites:n ~workers ~k ~seeds ())
  in
  let by = summary.Kv.Chaos_db.violations_by_oracle in
  let min_shrunk =
    List.fold_left
      (fun a (_, _, shrunk) -> min a (List.length shrunk))
      max_int summary.Kv.Chaos_db.failing
  in
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "kv");
      ("protocol", Sim.Json.Str label);
      ("n", Sim.Json.Int n);
      ("k", Sim.Json.Int k);
      ("seeds", Sim.Json.Int seeds);
      ("wall_s", Sim.Json.Float wall);
      ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
      ("violations_atomicity", Sim.Json.Int (count_for by Kv.Chaos_db.Atomicity));
      ("violations_progress", Sim.Json.Int (count_for by Kv.Chaos_db.Progress));
      ("violations_conservation", Sim.Json.Int (count_for by Kv.Chaos_db.Conservation));
      ("failing_seeds", Sim.Json.Int (List.length summary.Kv.Chaos_db.failing));
      ( "min_shrunk_faults",
        if min_shrunk = max_int then Sim.Json.Null else Sim.Json.Int min_shrunk );
      ("expected_blocking", Sim.Json.Bool expected_blocking);
    ]

let full () =
  let report = Sim.Report.create ~bench_name:"chaos" () in
  Sim.Report.add report "chaos" (Sim.Json.List (List.map engine_row engine_configs));
  Sim.Report.add report "chaos_kv" (Sim.Json.List (List.map kv_row kv_configs));
  let file = "BENCH_chaos.json" in
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
  (* Fixed corpus: 120 seeds per protocol at n=3, k=1.  Seed 35 is the
     pinned 2PC blocking seed (shrinks to a single step-crash). *)
  let seeds = 120 in
  (* 2PC must block — and block only: atomicity must hold even though
     progress does not. *)
  let rb2 = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  let s2 = Engine.Chaos.sweep rb2 ~workers ~k:1 ~seeds () in
  let by2 = s2.Engine.Chaos.violations_by_oracle in
  check "central-2pc found no progress (blocking) violation"
    (count_for by2 Engine.Chaos.Progress > 0);
  check "central-2pc violated atomicity" (count_for by2 Engine.Chaos.Atomicity = 0);
  check "central-2pc produced no shrunk counterexample"
    (s2.Engine.Chaos.counterexamples <> []);
  List.iter
    (fun cx ->
      check
        (Fmt.str "seed %d counterexample has %d faults (> 2): %s" cx.Engine.Chaos.cx_seed
           cx.Engine.Chaos.cx_shrunk_faults
           (Engine.Failure_plan.to_string cx.Engine.Chaos.cx_plan))
        (cx.Engine.Chaos.cx_shrunk_faults <= 2))
    s2.Engine.Chaos.counterexamples;
  (* decentralized 2PC blocks too — its first blocking seed sits deeper
     in the corpus, hence the larger sweep *)
  let rbd2 = Engine.Rulebook.compile (Core.Catalog.decentralized_2pc 3) in
  let sd2 = Engine.Chaos.sweep rbd2 ~workers ~k:1 ~seeds:200 () in
  let byd2 = sd2.Engine.Chaos.violations_by_oracle in
  check "decentralized-2pc found no progress (blocking) violation"
    (count_for byd2 Engine.Chaos.Progress > 0);
  check "decentralized-2pc violated atomicity" (count_for byd2 Engine.Chaos.Atomicity = 0);
  List.iter
    (fun cx ->
      check
        (Fmt.str "decentralized-2pc seed %d counterexample has %d faults (> 2)"
           cx.Engine.Chaos.cx_seed cx.Engine.Chaos.cx_shrunk_faults)
        (cx.Engine.Chaos.cx_shrunk_faults <= 2))
    sd2.Engine.Chaos.counterexamples;
  (* both 3PC variants must be clean *)
  List.iter
    (fun (label, build) ->
      let rb = Engine.Rulebook.compile (build 3) in
      let s = Engine.Chaos.sweep rb ~workers ~k:1 ~seeds () in
      check
        (Fmt.str "%s reported violations" label)
        (s.Engine.Chaos.violations_by_oracle = []))
    [
      ("central-3pc", Core.Catalog.central_3pc);
      ("decentralized-3pc", Core.Catalog.decentralized_3pc);
    ];
  (* the database harness under 3PC must be clean, including the pinned
     regression seeds that found the precommit-to-dead-site and
     late-prepare-after-abort bugs *)
  let skv =
    Kv.Chaos_db.sweep ~protocol:Kv.Node.Three_phase ~n_sites:4 ~workers ~k:1 ~seeds:40 ()
  in
  check "kv central-3pc reported violations" (skv.Kv.Chaos_db.violations_by_oracle = []);
  List.iter
    (fun seed ->
      let o = Kv.Chaos_db.run_one ~n_sites:4 ~k:1 ~seed () in
      check
        (Fmt.str "kv central-3pc regression seed %d reported violations" seed)
        (o.Kv.Chaos_db.violations = []))
    [ 48; 176 ];
  if !failures > 0 then begin
    Fmt.epr "chaos-smoke: %d unexpected result(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "chaos-smoke: both 2PC paradigms block (shrunk to <= 2 faults, atomicity intact), 3PC \
     variants and the database harness are clean@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
