(** Tests for {!Sim.Sweep} and the sharded chaos sweeps built on it: the
    worker count must be unobservable — identical results, merged
    metrics, counterexamples and per-seed rng streams at any sharding. *)

module M = Sim.Metrics
module J = Sim.Json
module C = Engine.Chaos
module KC = Kv.Chaos_db

let det_json m = J.to_string (M.to_json ~drop_wall:true m)

(* ---------------- Sweep.map ---------------- *)

let test_map_matches_sequential () =
  let f ~seed =
    let rng = Sim.Rng.create ~seed in
    (seed, Sim.Rng.int rng 1_000_000)
  in
  let seq = Sim.Sweep.map ~workers:1 ~seeds:37 f in
  List.iter
    (fun workers ->
      let par = Sim.Sweep.map ~workers ~seeds:37 f in
      Alcotest.(check bool) (Fmt.str "workers=%d = sequential" workers) true (par = seq))
    [ 2; 3; 8; 64 ];
  (* results land at their seed's index, not completion order *)
  Array.iteri (fun i (seed, _) -> Alcotest.(check int) "seed order" i seed) seq

let test_map_seed_base () =
  let f ~seed = seed * seed in
  let a = Sim.Sweep.map ~workers:3 ~seed_base:100 ~seeds:10 f in
  Alcotest.(check (list int))
    "offset range"
    (List.init 10 (fun i -> (100 + i) * (100 + i)))
    (Array.to_list a)

let test_map_edge_cases () =
  Alcotest.(check int) "zero seeds" 0 (Array.length (Sim.Sweep.map ~workers:4 ~seeds:0 (fun ~seed -> seed)));
  (* more workers than seeds clamps rather than spawning idle domains *)
  Alcotest.(check (list int))
    "workers > seeds" [ 0; 1 ]
    (Array.to_list (Sim.Sweep.map ~workers:16 ~seeds:2 (fun ~seed -> seed)));
  Alcotest.check_raises "negative seeds rejected"
    (Invalid_argument "Sweep.map: seeds must be >= 0") (fun () ->
      ignore (Sim.Sweep.map ~seeds:(-1) (fun ~seed -> seed)));
  Alcotest.check_raises "zero workers rejected"
    (Invalid_argument "Sweep.map: workers must be >= 1") (fun () ->
      ignore (Sim.Sweep.map ~workers:0 ~seeds:3 (fun ~seed -> seed)))

let test_map_propagates_exceptions () =
  List.iter
    (fun workers ->
      match Sim.Sweep.map ~workers ~seeds:20 (fun ~seed -> if seed = 13 then failwith "boom" else seed) with
      | _ -> Alcotest.fail "expected the worker's exception to propagate"
      | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg)
    [ 1; 3 ]

(* ---------------- Sweep.sweep: isolated registries, seed-order merge ---------------- *)

let test_sweep_merges_in_seed_order () =
  let fill ~metrics ~seed =
    M.incr metrics "runs";
    M.observe metrics "v" (float_of_int (seed + 1));
    (* several observations per seed, fractional and of mixed magnitude,
       so the merged total depends on float association: it matches only
       if every seed's total is added once, in seed order, whatever the
       worker count *)
    for j = 1 to 3 do
      M.observe metrics "multi"
        (float_of_int ((seed * 7) + j) /. 3.0 *. if seed mod 3 = 0 then 1e6 else 1e-3)
    done;
    (* one deliberately leaked timer per run: sweep must drain it
       into the per-seed registry before merging *)
    M.timer_start metrics (M.label "leak") ~key:seed ~at:0.0;
    seed
  in
  let run ~workers = Sim.Sweep.sweep ~workers ~seeds:50 fill in
  let seq_results, seq_metrics = run ~workers:1 in
  (* streaming changes nothing: the merge equals a post-hoc fold of every
     seed's drained registry in seed order *)
  let post_hoc =
    M.merge_all
      (List.init 50 (fun seed ->
           let metrics = M.create () in
           ignore (fill ~metrics ~seed);
           M.drain_timers metrics;
           metrics))
  in
  Alcotest.(check string) "= post-hoc seed-order fold" (det_json post_hoc) (det_json seq_metrics);
  Alcotest.(check int) "runs counted" 50 (M.counter seq_metrics "runs");
  Alcotest.(check int) "leaks drained and counted" 50 (M.counter seq_metrics "timers_in_flight_leak");
  Alcotest.(check (list (pair string int))) "merged registry has no open timers" []
    (M.timers_in_flight seq_metrics);
  List.iter
    (fun workers ->
      let results, metrics = run ~workers in
      Alcotest.(check bool) (Fmt.str "results workers=%d" workers) true (results = seq_results);
      Alcotest.(check string)
        (Fmt.str "metrics workers=%d" workers)
        (det_json seq_metrics) (det_json metrics))
    [ 2; 4 ]

(* ---------------- chaos sweeps: workers unobservable ---------------- *)

(* central-2pc blocks, and Paxos Commit under a short stall budget misses
   liveness, so both targets exercise the interesting paths — violation
   aggregation, shrinking, counterexample tracing — not just clean runs. *)
let engine_summaries =
  [
    ( "central-2pc",
      fun ~workers ->
        C.sweep (Engine.Rulebook.compile (Core.Catalog.central_2pc 3)) ~workers ~k:1 ~seeds:60 () );
    ( "paxos-commit",
      fun ~workers ->
        snd (C.sweep_target ~workers (Engine.Paxos.target ~until:30.0 ~n_sites:4 ~f:1 ()) ~k:2 ~seeds:60)
    );
  ]

let test_engine_sweep_workers_unobservable () =
  List.iter
    (fun (name, summary) ->
      let seq = summary ~workers:1 in
      Alcotest.(check bool) (name ^ ": corpus has counterexamples") true (seq.C.counterexamples <> []);
      let par = summary ~workers:4 in
      Alcotest.(check bool) (name ^ ": violation counts") true
        (par.C.violations_by_oracle = seq.C.violations_by_oracle);
      Alcotest.(check bool) (name ^ ": counterexamples (plans, traces, shrink cost)") true
        (par.C.counterexamples = seq.C.counterexamples);
      Alcotest.(check string) (name ^ ": merged deterministic metrics")
        (det_json seq.C.metrics) (det_json par.C.metrics))
    engine_summaries

(* A sweep keeps exactly the violating seeds' outcomes, in seed order:
   the seeds whose own run, repeated alone, has a verdict. *)
let test_sweep_target_keeps_violating_seeds () =
  let check name t ~k ~seeds =
    let expected =
      List.filter (fun seed -> t.C.verdict (C.run_seed t ~k ~seed) <> []) (List.init seeds Fun.id)
    in
    Alcotest.(check bool) (name ^ ": corpus has violating seeds") true (expected <> []);
    List.iter
      (fun workers ->
        let failing, _ = C.sweep_target ~workers t ~k ~seeds in
        Alcotest.(check (list int))
          (Fmt.str "%s: violating seeds in order, workers=%d" name workers)
          expected (List.map fst failing);
        List.iter
          (fun (seed, o) ->
            Alcotest.(check bool) (Fmt.str "%s: seed %d kept with its verdict" name seed) true
              (t.C.verdict o <> []))
          failing)
      [ 1; 4 ]
  in
  check "central-2pc"
    (C.target (Engine.Runtime.config ~until:C.stall_budget
       (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))))
    ~k:1 ~seeds:60;
  check "paxos-commit" (Engine.Paxos.target ~until:30.0 ~n_sites:4 ~f:1 ()) ~k:2 ~seeds:60

let kv_summary ~workers =
  KC.sweep ~protocol:Kv.Node.Three_phase ~n_sites:4 ~workers ~k:1 ~seeds:20 ()

let test_kv_sweep_workers_unobservable () =
  let seq = kv_summary ~workers:1 in
  let par = kv_summary ~workers:3 in
  Alcotest.(check bool) "violation counts" true
    (par.KC.violations_by_oracle = seq.KC.violations_by_oracle);
  Alcotest.(check bool) "failing seeds and shrunk schedules" true
    (par.KC.failing = seq.KC.failing);
  Alcotest.(check string) "merged deterministic metrics"
    (det_json seq.KC.metrics) (det_json par.KC.metrics)

(* the per-seed rng is derived from the seed alone (root [Rng.create
   ~seed], streams forked with [Rng.split]), so the values a seed draws
   cannot depend on which worker ran it or on what other seeds did *)
let test_seed_stream_worker_independent () =
  let streams ~workers =
    Sim.Sweep.map ~workers ~seeds:40 (fun ~seed ->
        let root = Sim.Rng.create ~seed in
        let a = Sim.Rng.split root in
        let b = Sim.Rng.split root in
        ( List.init 16 (fun _ -> Sim.Rng.int a 1_000_000),
          List.init 16 (fun _ -> Sim.Rng.float b 1.0) ))
  in
  let seq = streams ~workers:1 in
  List.iter
    (fun workers ->
      Alcotest.(check bool)
        (Fmt.str "split streams workers=%d" workers)
        true
        (streams ~workers = seq))
    [ 2; 5 ]

let suite =
  [
    Alcotest.test_case "map = sequential at any worker count" `Quick test_map_matches_sequential;
    Alcotest.test_case "map honours seed_base" `Quick test_map_seed_base;
    Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
    Alcotest.test_case "map propagates worker exceptions" `Quick test_map_propagates_exceptions;
    Alcotest.test_case "sweep merges isolated registries in seed order" `Quick
      test_sweep_merges_in_seed_order;
    Alcotest.test_case "engine chaos: workers unobservable" `Quick
      test_engine_sweep_workers_unobservable;
    Alcotest.test_case "kv chaos: workers unobservable" `Quick test_kv_sweep_workers_unobservable;
    Alcotest.test_case "sweep_target keeps exactly the violating seeds" `Quick
      test_sweep_target_keeps_violating_seeds;
    Alcotest.test_case "per-seed rng independent of sharding" `Quick
      test_seed_stream_worker_independent;
  ]
