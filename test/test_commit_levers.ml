(** Tests for the latency levers (presumption, read-only participants,
    group commit, coordinator pipelining): {!Sim.Batch} unit semantics,
    crash-inside-a-batch durability, levers-off byte-identity on the
    pinned regression seeds, lever-combination chaos/durability sweeps,
    and the group-commit amortization the bench measures. *)

module B = Sim.Batch
module KW = Kv.Kv_wal
module KC = Kv.Chaos_db
module KN = Kv.Node
module C = Engine.Chaos
module R = Engine.Runtime

let rb_c3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))

(* A manual timer queue standing in for the site-bound scheduler: the
   batcher only needs "run this later, unless crashed first". *)
let manual_clock () =
  let timers = Queue.create () in
  let schedule _delay k = Queue.push k timers in
  let fire_all () =
    while not (Queue.is_empty timers) do
      (Queue.pop timers) ()
    done
  in
  (schedule, fire_all)

(* ---------------- Sim.Batch unit semantics ---------------- *)

let test_batch_unattached_is_synchronous () =
  let syncs = ref 0 in
  let b = B.create ~group:{ B.max_batch = 8; max_wait = 1.0 } ~sync_latency:2.0
      ~sync:(fun () -> incr syncs) ()
  in
  let fired = ref false in
  B.submit b (fun () -> fired := true);
  Alcotest.(check bool) "callback ran synchronously" true !fired;
  Alcotest.(check int) "one sync" 1 !syncs;
  Alcotest.(check int) "nothing pending" 0 (B.pending b)

let test_batch_max_batch_coalesces () =
  let syncs = ref 0 and flushes = ref [] and order = ref [] in
  let b = B.create ~group:{ B.max_batch = 3; max_wait = 5.0 } ~sync:(fun () -> incr syncs) () in
  let schedule, fire_all = manual_clock () in
  B.attach b ~schedule ~on_flush:(fun ~batch -> flushes := batch :: !flushes) ();
  B.submit b (fun () -> order := 1 :: !order);
  B.submit b (fun () -> order := 2 :: !order);
  Alcotest.(check int) "below max_batch: no sync yet" 0 !syncs;
  Alcotest.(check int) "two pending" 2 (B.pending b);
  B.submit b (fun () -> order := 3 :: !order);
  Alcotest.(check int) "one shared sync" 1 !syncs;
  Alcotest.(check (list int)) "one flush of three records" [ 3 ] !flushes;
  Alcotest.(check (list int)) "callbacks in submission order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "drained" 0 (B.pending b);
  fire_all ();
  Alcotest.(check int) "stale max_wait timers are no-ops" 1 !syncs

let test_batch_max_wait_flushes_stragglers () =
  let syncs = ref 0 and flushes = ref [] and order = ref [] in
  let b = B.create ~group:{ B.max_batch = 8; max_wait = 0.05 } ~sync:(fun () -> incr syncs) () in
  let schedule, fire_all = manual_clock () in
  B.attach b ~schedule ~on_flush:(fun ~batch -> flushes := batch :: !flushes) ();
  B.submit b (fun () -> order := 1 :: !order);
  B.submit b (fun () -> order := 2 :: !order);
  Alcotest.(check int) "nothing flushed before the timer" 0 !syncs;
  fire_all ();
  Alcotest.(check int) "timer flushed the stragglers" 1 !syncs;
  Alcotest.(check (list int)) "both records in one batch" [ 2 ] !flushes;
  Alcotest.(check (list int)) "in order" [ 1; 2 ] (List.rev !order)

let test_batch_fifo_across_batches_under_latency () =
  (* the saturated-disk regime: arrivals accumulate while a sync is in
     flight, and the next batch forms the moment it completes *)
  let syncs = ref 0 and flushes = ref [] and order = ref [] in
  let b = B.create ~group:{ B.max_batch = 2; max_wait = 0.5 } ~sync_latency:1.0
      ~sync:(fun () -> incr syncs) ()
  in
  let schedule, fire_all = manual_clock () in
  B.attach b ~schedule ~on_flush:(fun ~batch -> flushes := batch :: !flushes) ();
  List.iter (fun i -> B.submit b (fun () -> order := i :: !order)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "first sync still in flight" 0 !syncs;
  Alcotest.(check int) "all five pending" 5 (B.pending b);
  fire_all ();
  Alcotest.(check int) "three syncs for five records" 3 !syncs;
  Alcotest.(check (list int)) "batch sizes 2,2,1" [ 2; 2; 1 ] (List.rev !flushes);
  Alcotest.(check (list int)) "strict FIFO across batches" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  Alcotest.(check int) "drained" 0 (B.pending b)

let test_batch_barrier_semantics () =
  let syncs = ref 0 and order = ref [] in
  let b = B.create ~group:{ B.max_batch = 4; max_wait = 0.05 } ~sync:(fun () -> incr syncs) () in
  let schedule, fire_all = manual_clock () in
  B.attach b ~schedule ();
  (* idle: a barrier runs immediately and never syncs *)
  let idle = ref false in
  B.barrier b (fun () -> idle := true);
  Alcotest.(check bool) "idle barrier immediate" true !idle;
  Alcotest.(check int) "no sync for a bare barrier" 0 !syncs;
  (* queued behind a record: rides the record's batch *)
  B.submit b (fun () -> order := 1 :: !order);
  B.barrier b (fun () -> order := 2 :: !order);
  Alcotest.(check (list int)) "barrier waits for the record" [] !order;
  fire_all ();
  Alcotest.(check (list int)) "record then barrier" [ 1; 2 ] (List.rev !order);
  Alcotest.(check int) "one sync covered both" 1 !syncs

let test_batch_crash_drops_queue_and_fences_inflight () =
  let syncs = ref 0 and order = ref [] in
  let b = B.create ~group:{ B.max_batch = 2; max_wait = 0.5 } ~sync_latency:1.0
      ~sync:(fun () -> incr syncs) ()
  in
  let schedule, fire_all = manual_clock () in
  B.attach b ~schedule ();
  (* batch of two in flight, a third queued behind it *)
  List.iter (fun i -> B.submit b (fun () -> order := i :: !order)) [ 1; 2; 3 ];
  B.crash b;
  Alcotest.(check int) "crash clears pending" 0 (B.pending b);
  fire_all ();
  Alcotest.(check int) "fenced in-flight completion never syncs" 0 !syncs;
  Alcotest.(check (list int)) "no callback survives the crash" [] !order;
  (* the batcher is usable again after the crash *)
  B.submit b (fun () -> order := 9 :: !order);
  fire_all ();
  Alcotest.(check (list int)) "post-crash submission completes" [ 9 ] !order;
  Alcotest.(check int) "post-crash sync ran" 1 !syncs

(* ---------------- crash inside a group-commit batch ---------------- *)

let test_kv_wal_crash_inside_batch_loses_decision () =
  (* a coordinator's decision record is appended and ticketed but the
     covering sync never completes: the crash must lose the record and
     the completion callback — the covered transaction never commits *)
  let wal = KW.create ~durable:true ~group_commit:{ KW.max_batch = 8; max_wait = 0.05 }
      ~sync_latency:0.5 ()
  in
  let schedule, fire_all = manual_clock () in
  KW.attach wal ~metrics:(Sim.Metrics.create ()) ~schedule;
  let committed = ref false in
  KW.force_k wal (KW.C_decided { txn = 1; commit = true }) (fun () -> committed := true);
  Alcotest.(check int) "force ticketed, not yet durable" 1 (KW.pending_forces wal);
  Alcotest.(check bool) "decision not yet acknowledged" false !committed;
  ignore (KW.crash wal);
  fire_all ();
  Alcotest.(check bool) "crash inside the batch: commit never acknowledged" false !committed;
  Alcotest.(check int) "no pending forces after crash" 0 (KW.pending_forces wal);
  (match KW.classify_coordinator wal ~txn:1 with
  | KW.C_unknown -> ()
  | c ->
      Alcotest.failf "decision record survived the crash: %s"
        (match c with
        | KW.C_unknown -> "unknown"
        | KW.C_collecting _ -> "collecting"
        | KW.C_in_precommit _ -> "in-precommit"
        | KW.C_resolved _ -> "resolved"));
  (* same force after recovery completes normally *)
  let committed' = ref false in
  KW.force_k wal (KW.C_decided { txn = 1; commit = true }) (fun () -> committed' := true);
  fire_all ();
  Alcotest.(check bool) "post-recovery force completes" true !committed'

(* ---------------- levers off: pinned seeds replay unchanged ---------------- *)

let test_kv_pinned_seeds_unchanged_with_levers_off () =
  List.iter
    (fun seed ->
      let a = KC.run_one ~n_sites:4 ~k:1 ~seed () in
      let b =
        KC.run_one ~presumption:KN.No_presumption ~read_only_opt:false ~sync_latency:0.0
          ~pipeline_depth:1 ~n_sites:4 ~k:1 ~seed ()
      in
      Alcotest.(check int) (Fmt.str "seed %d committed" seed) a.KC.result.Kv.Db.committed
        b.KC.result.Kv.Db.committed;
      Alcotest.(check int) (Fmt.str "seed %d aborted" seed) a.KC.result.Kv.Db.aborted
        b.KC.result.Kv.Db.aborted;
      Alcotest.(check int)
        (Fmt.str "seed %d messages" seed)
        a.KC.result.Kv.Db.messages_sent b.KC.result.Kv.Db.messages_sent;
      Alcotest.(check int) (Fmt.str "seed %d clean" seed) 0 (List.length b.KC.violations);
      Alcotest.(check string)
        (Fmt.str "seed %d metrics byte-identical" seed)
        (Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true a.KC.result.Kv.Db.run_metrics))
        (Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true b.KC.result.Kv.Db.run_metrics)))
    [ 48; 176 ]

let test_engine_seed34_ablation_unchanged_with_levers_off () =
  (* the pinned durability-ablation seed still breaches — and the
     explicit levers-off spelling changes nothing about the run *)
  let has_durability vs = List.exists (fun (v : C.violation) -> v.C.oracle = C.Durability) vs in
  let a = C.run_one ~late_force:true (Lazy.force rb_c3) ~k:1 ~seed:34 () in
  let b =
    C.run_one ~presumption:R.No_presumption ~read_only:[] ~sync_latency:0.0 ~late_force:true
      (Lazy.force rb_c3) ~k:1 ~seed:34 ()
  in
  Alcotest.(check bool) "seed 34 still breaches" true (has_durability a.C.violations);
  Alcotest.(check bool) "same plan" true (Engine.Failure_plan.equal a.C.plan b.C.plan);
  Alcotest.(check int) "same messages" a.C.result.R.messages_sent b.C.result.R.messages_sent;
  Alcotest.(check int) "same verdicts" (List.length a.C.violations) (List.length b.C.violations)

(* ---------------- lever combinations stay oracle-clean ---------------- *)

let gc = { KW.max_batch = 8; max_wait = 0.05 }

let test_kv_lever_combos_sweep_clean () =
  let sweep name f =
    let s = f () in
    Alcotest.(check int) (name ^ " clean") 0 (List.length s.KC.violations_by_oracle)
  in
  sweep "presume-abort" (fun () ->
      KC.sweep ~presumption:KN.Presume_abort ~durable_wal:true ~n_sites:4 ~k:1 ~seeds:10 ());
  sweep "presume-commit + read-only" (fun () ->
      KC.sweep ~presumption:KN.Presume_commit ~read_only_opt:true ~durable_wal:true ~n_sites:4
        ~k:1 ~seeds:10 ());
  sweep "group commit + pipelining" (fun () ->
      KC.sweep ~group_commit:gc ~sync_latency:0.3 ~pipeline_depth:4 ~durable_wal:true ~n_sites:4
        ~k:1 ~seeds:10 ());
  sweep "all levers" (fun () ->
      KC.sweep ~presumption:KN.Presume_commit ~read_only_opt:true ~group_commit:gc
        ~sync_latency:0.3 ~pipeline_depth:4 ~durable_wal:true ~n_sites:4 ~k:1 ~seeds:10 ())

let test_engine_lever_combos_sweep_clean () =
  let rb = Lazy.force rb_c3 in
  let egc = { Engine.Wal.max_batch = 4; max_wait = 0.05 } in
  let sweep name f =
    let s = f () in
    Alcotest.(check int) (name ^ " clean") 0 (List.length s.C.violations_by_oracle)
  in
  sweep "presume-abort" (fun () -> C.sweep ~presumption:R.Presume_abort rb ~k:1 ~seeds:15 ());
  sweep "presume-commit" (fun () -> C.sweep ~presumption:R.Presume_commit rb ~k:1 ~seeds:15 ());
  sweep "read-only participant" (fun () -> C.sweep ~read_only:[ 2 ] rb ~k:1 ~seeds:15 ());
  sweep "group commit + sync latency" (fun () ->
      C.sweep ~group_commit:egc ~sync_latency:0.3 rb ~k:1 ~seeds:15 ());
  sweep "all levers" (fun () ->
      C.sweep ~presumption:R.Presume_abort ~read_only:[ 2 ] ~group_commit:egc ~sync_latency:0.3
        rb ~k:1 ~seeds:15 ());
  sweep "all levers under detector" (fun () ->
      C.sweep ~presumption:R.Presume_abort ~read_only:[ 2 ] ~group_commit:egc ~sync_latency:0.3
        ~detector:true rb ~k:1 ~seeds:10 ())

(* ---------------- group commit amortizes, pipelining overlaps ---------------- *)

let test_kv_group_commit_amortizes_syncs () =
  let workload =
    Kv.Workload.bank (Sim.Rng.create ~seed:11) ~n_txns:40 ~accounts:64 ~arrival_rate:8.0
  in
  let initial_data = Kv.Workload.bank_initial ~accounts:64 ~initial_balance:100 in
  let run cfg = Kv.Db.run cfg workload in
  let base =
    run (Kv.Db.config ~n_sites:4 ~durable_wal:true ~sync_latency:0.4 ~initial_data ())
  in
  let levers =
    run
      (Kv.Db.config ~n_sites:4 ~durable_wal:true ~sync_latency:0.4 ~group_commit:gc
         ~pipeline_depth:8 ~initial_data ())
  in
  Alcotest.(check bool) "baseline commits" true (base.Kv.Db.committed > 0);
  Alcotest.(check bool) "levers commit at least as much" true
    (levers.Kv.Db.committed >= base.Kv.Db.committed);
  Alcotest.(check bool) "both atomic" true (base.Kv.Db.atomicity_ok && levers.Kv.Db.atomicity_ok);
  let counter r name = Sim.Metrics.counter r.Kv.Db.run_metrics name in
  let forces = counter levers "wal_forces" and flushes = counter levers "wal_group_flushes" in
  Alcotest.(check bool) "forces happened" true (forces > 0);
  Alcotest.(check bool)
    (Fmt.str "syncs amortized (%d flushes for %d forces)" flushes forces)
    true
    (flushes > 0 && flushes < forces);
  Alcotest.(check bool)
    (Fmt.str "pipelining finishes no later (%.1f vs %.1f)" levers.Kv.Db.duration
       base.Kv.Db.duration)
    true
    (levers.Kv.Db.duration <= base.Kv.Db.duration)

(* Regression: a chaos-delayed Prepare delivered after its coordinator's
   failure notification must be refused (unilateral abort + no vote), not
   voted on — nothing would ever re-examine the transaction, leaving the
   participant in-doubt at quiescence.  Seed 0 under presume-commit +
   sync latency at n=3 pins the original counterexample (shrunk plan:
   crash site 1 at t=27 with prepare #28 delayed past the crash). *)
let test_kv_orphan_prepare_is_refused () =
  let o =
    KC.run_one ~protocol:KN.Three_phase ~n_sites:3 ~presumption:KN.Presume_commit
      ~sync_latency:0.3 ~k:1 ~seed:0 ()
  in
  Alcotest.(check int) "no violations" 0 (List.length o.KC.violations);
  let refused = Sim.Metrics.counter o.KC.result.Kv.Db.run_metrics "orphan_prepare_refused" in
  Alcotest.(check bool)
    (Fmt.str "the orphaned prepare was exercised (%d refused)" refused)
    true (refused > 0)

let suite =
  [
    Alcotest.test_case "batch: unattached is synchronous" `Quick test_batch_unattached_is_synchronous;
    Alcotest.test_case "batch: max_batch coalesces" `Quick test_batch_max_batch_coalesces;
    Alcotest.test_case "batch: max_wait flushes stragglers" `Quick
      test_batch_max_wait_flushes_stragglers;
    Alcotest.test_case "batch: FIFO across batches under latency" `Quick
      test_batch_fifo_across_batches_under_latency;
    Alcotest.test_case "batch: barrier semantics" `Quick test_batch_barrier_semantics;
    Alcotest.test_case "batch: crash drops queue, fences in-flight" `Quick
      test_batch_crash_drops_queue_and_fences_inflight;
    Alcotest.test_case "kv wal: crash inside batch loses decision" `Quick
      test_kv_wal_crash_inside_batch_loses_decision;
    Alcotest.test_case "kv: pinned seeds unchanged with levers off" `Quick
      test_kv_pinned_seeds_unchanged_with_levers_off;
    Alcotest.test_case "engine: seed 34 ablation unchanged with levers off" `Quick
      test_engine_seed34_ablation_unchanged_with_levers_off;
    Alcotest.test_case "kv: orphaned prepare is refused" `Quick test_kv_orphan_prepare_is_refused;
    Alcotest.test_case "kv: lever combos sweep clean" `Quick test_kv_lever_combos_sweep_clean;
    Alcotest.test_case "engine: lever combos sweep clean" `Quick
      test_engine_lever_combos_sweep_clean;
    Alcotest.test_case "kv: group commit amortizes syncs" `Quick
      test_kv_group_commit_amortizes_syncs;
  ]
