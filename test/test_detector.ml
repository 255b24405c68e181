(** Tests for the unreliable failure detector ({!Sim.Detector} wired into
    {!Engine.Runtime}): crash-hook composability, suspicion-driven
    termination, false-suspicion retraction (and the thaw that undoes an
    unwarranted freeze), the stall grace on wake-up, oracle-mode runs
    staying detector-free, the election/rank differential against the
    paper's reliable-detector oracle, and the pinned epoch-fencing
    ablation that reproduces a split-brain when fencing is off. *)

module C = Engine.Chaos
module FP = Engine.Failure_plan
module R = Engine.Runtime
module M = Sim.Metrics

let rb_c3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let rb_c4 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 4))

let has o vs = List.exists (fun (v : C.violation) -> v.C.oracle = o) vs
let plan_of = FP.of_string_exn

(* ---------------- crash hooks compose ---------------- *)

let test_crash_hooks_compose () =
  (* the WAL layer and the detector both register crash hooks on the same
     world; each registration must append, and all hooks must run, in
     registration order, on every crash *)
  let world = Sim.World.create ~n_sites:3 ~seed:0 ~msg_to_string:(fun (s : string) -> s) () in
  let calls = ref [] in
  Sim.World.add_crash_hook world (fun s -> calls := ("first", s) :: !calls);
  Sim.World.add_crash_hook world (fun s -> calls := ("second", s) :: !calls);
  Sim.World.schedule_crash world ~at:1.0 2;
  Sim.World.schedule_crash world ~at:2.0 3;
  let nop _ =
    {
      Sim.World.on_start = (fun _ -> ());
      on_message = (fun _ ~src:_ _ -> ());
      on_peer_down = (fun _ _ -> ());
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run world ~handlers:nop ~until:5.0 ());
  Alcotest.(check (list (pair string int)))
    "both hooks fire on each crash, in registration order"
    [ ("first", 2); ("second", 2); ("first", 3); ("second", 3) ]
    (List.rev !calls)

(* ---------------- suspicion-driven termination ---------------- *)

let test_detector_terminates_after_real_crash () =
  (* no oracle: the survivors must suspect the crashed coordinator by
     timeout, elect a backup and finish the transaction on their own *)
  let result, violations =
    C.run_plan (Lazy.force rb_c3) ~detector:true ~plan:(plan_of "crash site=1 at=0.5") ~seed:3 ()
  in
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check bool) "consistent" true result.R.consistent;
  Alcotest.(check bool) "operational sites decided" true result.R.all_operational_decided;
  Alcotest.(check bool)
    "at least one election was started by suspicion" true
    (M.counter result.R.run_metrics "elections_started" >= 1);
  Alcotest.(check int) "a real crash is not a false suspicion" 0
    (M.counter result.R.run_metrics "false_suspicions")

(* ---------------- false suspicion: retraction and thaw ---------------- *)

let stall_plan = "stall site=2 from=2 until=10"

let test_false_suspicion_retracts_and_run_decides () =
  (* a GC pause longer than the suspicion timeout: site 2 is falsely
     suspected while stalled, the suspicion is retracted when its
     heartbeats resume, and the unwarranted freeze thaws — the run must
     still decide everywhere, with zero violations *)
  let result, violations =
    C.run_plan (Lazy.force rb_c3) ~detector:true ~plan:(plan_of stall_plan) ~seed:5 ()
  in
  Alcotest.(check bool) "somebody was falsely suspected" true
    (M.counter result.R.run_metrics "false_suspicions" >= 1);
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check bool) "consistent" true result.R.consistent;
  Alcotest.(check bool) "every operational site decided" true result.R.all_operational_decided

let test_stall_wakeup_grace () =
  (* waking from a stall refreshes the sleeper's last-heard table: site 2
     must not mass-suspect the peers whose messages were parked during
     its pause *)
  let result, _ =
    C.run_plan (Lazy.force rb_c3) ~detector:true ~tracing:true ~plan:(plan_of stall_plan) ~seed:5 ()
  in
  let offending =
    List.filter
      (fun (e : Sim.World.trace_entry) ->
        let w = e.Sim.World.what in
        let prefix = "site 2 FALSELY suspects" in
        String.length w >= String.length prefix && String.sub w 0 (String.length prefix) = prefix)
      result.R.trace
  in
  Alcotest.(check int) "the stalled site suspects nobody on wake-up" 0 (List.length offending)

(* ---------------- oracle mode stays detector-free ---------------- *)

let test_oracle_mode_has_no_detector_traffic () =
  (* the default (reliable-oracle) configuration must not grow
     heartbeats, suspicions or timeout elections: pre-detector runs
     replay unchanged *)
  let result, violations =
    C.run_plan (Lazy.force rb_c3) ~tracing:true ~plan:(plan_of "crash site=1 at=0.5") ~seed:3 ()
  in
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check int) "no false suspicions" 0 (M.counter result.R.run_metrics "false_suspicions");
  Alcotest.(check int) "no timeout elections" 0
    (M.counter result.R.run_metrics "elections_started");
  let suspicious =
    List.filter
      (fun (e : Sim.World.trace_entry) ->
        let w = e.Sim.World.what in
        let contains sub =
          let n = String.length w and m = String.length sub in
          let rec go i = i + m <= n && (String.sub w i m = sub || go (i + 1)) in
          go 0
        in
        contains "suspects" || contains "heartbeat")
      result.R.trace
  in
  Alcotest.(check int) "no suspicion or heartbeat trace lines" 0 (List.length suspicious)

(* ---------------- election vs. the paper's rank rule ---------------- *)

let leaders_of (r : R.result) =
  (* distinct leader sites in directive order *)
  List.rev
    (List.fold_left
       (fun acc (site, _) -> if List.mem site acc then acc else site :: acc)
       []
       r.R.directive_epochs)

let check_epochs_monotone name (r : R.result) =
  let rec go = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        Alcotest.(check bool) (Fmt.str "%s: epoch %d < %d" name a b) true (a < b);
        go rest
    | _ -> ()
  in
  go r.R.directive_epochs

let test_election_matches_rank_rule () =
  (* under pure crash schedules the timeout detector must elect exactly
     the site the paper's deterministic rank rule picks (smallest
     operational never-crashed id), and reach the same verdict *)
  List.iter
    (fun (plan, expected_leader) ->
      let oracle, ov = C.run_plan (Lazy.force rb_c3) ~plan:(plan_of plan) ~seed:11 () in
      let detect, dv =
        C.run_plan (Lazy.force rb_c3) ~detector:true ~plan:(plan_of plan) ~seed:11 ()
      in
      Alcotest.(check int) (plan ^ ": oracle run clean") 0 (List.length ov);
      Alcotest.(check int) (plan ^ ": detector run clean") 0 (List.length dv);
      Alcotest.(check (list int)) (plan ^ ": same leaders as the oracle") (leaders_of oracle)
        (leaders_of detect);
      Alcotest.(check (option int))
        (plan ^ ": rank rule elects the expected backup")
        (Some expected_leader)
        (match leaders_of detect with [] -> None | s :: _ -> Some s);
      Alcotest.(check bool)
        (plan ^ ": same global outcome")
        true
        (oracle.R.global_outcome = detect.R.global_outcome);
      check_epochs_monotone (plan ^ ": oracle") oracle;
      check_epochs_monotone (plan ^ ": detector") detect)
    [
      ("crash site=1 at=0.5", 2);
      ("crash site=1 at=0.5; crash site=2 at=1", 3);
    ]

(* ---------------- the epoch-fencing ablation ---------------- *)

(* The pinned split-brain schedule (experiment E16, n = 4): the
   coordinator logs its own precommit and reaches only site 2 before
   crashing; site 2 then stalls through the first termination round, so
   site 3 leads at epoch 2, plants that epoch at site 4 via its phase-1
   [Move_to], decides from the freshest state — and crashes before
   announcing ([sent=0]).  When site 2 wakes it leads at its stale epoch
   1 and moves everyone to its older state.  Fencing makes site 4 refuse
   the stale directive; without fencing site 2's branch decides against
   site 3's logged decision. *)
let fencing_pinned =
  "step-crash site=1 step=1 mode=after-logging:1; stall site=2 from=4 until=14; decide-crash \
   site=3 sent=0"

let test_fencing_ablation_pinned () =
  let _, off =
    C.run_plan (Lazy.force rb_c4) ~detector:true ~fencing:false ~plan:(plan_of fencing_pinned)
      ~seed:1 ()
  in
  Alcotest.(check bool) "no fencing: atomicity violated" true (has C.Atomicity off);
  let on_result, on_ =
    C.run_plan (Lazy.force rb_c4) ~detector:true ~plan:(plan_of fencing_pinned) ~seed:1 ()
  in
  Alcotest.(check bool) "fencing: atomicity holds" false (has C.Atomicity on_);
  Alcotest.(check bool) "fencing: no split-brain" false (has C.Split_brain on_);
  Alcotest.(check bool)
    "fencing: the stale directive was rejected" true
    (M.counter on_result.R.run_metrics "epoch_rejected_directives" >= 1)

let test_fencing_counterexample_shrinks_and_replays () =
  let minimal, _runs =
    C.shrink (Lazy.force rb_c4) ~detector:true ~fencing:false ~seed:1 ~oracle:C.Atomicity
      (plan_of fencing_pinned)
  in
  (* all three faults are load-bearing: drop any one and the split heals *)
  Alcotest.(check int) "three faults are minimal" 3 (FP.fault_count minimal);
  let reloaded = plan_of (FP.to_string minimal) in
  let _, violations =
    C.run_plan (Lazy.force rb_c4) ~detector:true ~fencing:false ~plan:reloaded ~seed:1 ()
  in
  Alcotest.(check bool) "reloaded plan still splits the brain" true (has C.Atomicity violations)

(* ---------------- pinned trace ---------------- *)

(* One detector run that walks every traced path of the simulator: a
   partition with false suspicion and healing, chaos drop / duplicate /
   delay, a latency spike, a stall, heartbeat loss, a crash and a
   recovery.  The digest pins the rendered trace (exact timestamps) and
   the deterministic metrics, so a rewrite of the event loop must
   reproduce the run byte for byte. *)
let pinned_trace_plan =
  "partition from=3 until=6 groups=1|2,3; msg nth=2 fault=drop; msg nth=4 fault=dup; msg nth=6 \
   fault=delay:2.5; delay site=2 from=1 until=12 extra=1.5; stall site=3 from=14 until=19; hb-loss \
   site=2 from=20 until=28; crash site=1 at=9; recover site=1 at=30"

let pinned_trace_digest = "16947840819c78373308c98758f18c9b"

let test_pinned_trace () =
  let result, _ =
    C.run_plan (Lazy.force rb_c3) ~detector:true ~tracing:true ~plan:(plan_of pinned_trace_plan)
      ~seed:7 ()
  in
  let rendered =
    String.concat "\n"
      (List.map
         (fun (e : Sim.World.trace_entry) -> Fmt.str "%h  %s" e.Sim.World.at e.Sim.World.what)
         result.R.trace)
    ^ "\n"
    ^ Sim.Json.to_string (M.to_json ~drop_wall:true result.R.run_metrics)
  in
  Alcotest.(check string) "trace and metrics digest" pinned_trace_digest
    (Digest.to_hex (Digest.string rendered))

(* ---------------- the database harness under the detector ---------------- *)

let kv_safety_violations (s : Kv.Chaos_db.summary) =
  List.filter
    (fun (o, _) ->
      match o with
      | Kv.Chaos_db.Atomicity | Kv.Chaos_db.Conservation | Kv.Chaos_db.Split_brain -> true
      | Kv.Chaos_db.Progress | Kv.Chaos_db.Durability | Kv.Chaos_db.Recovery_convergence -> false)
    s.Kv.Chaos_db.violations_by_oracle

let test_kv_detector_sweep_safe () =
  (* the end-to-end bank under timeout suspicion: slower terminations are
     acceptable, lost money or split decisions are not *)
  let s = Kv.Chaos_db.sweep ~n_sites:4 ~detector:true ~k:1 ~seeds:12 () in
  Alcotest.(check int) "12 seeds run" 12 s.Kv.Chaos_db.seeds_run;
  Alcotest.(check int) "no safety violations" 0 (List.length (kv_safety_violations s))

let suite =
  [
    Alcotest.test_case "crash hooks compose" `Quick test_crash_hooks_compose;
    Alcotest.test_case "detector terminates after a real crash" `Quick
      test_detector_terminates_after_real_crash;
    Alcotest.test_case "false suspicion retracts; run decides" `Quick
      test_false_suspicion_retracts_and_run_decides;
    Alcotest.test_case "stall wake-up grace" `Quick test_stall_wakeup_grace;
    Alcotest.test_case "oracle mode has no detector traffic" `Quick
      test_oracle_mode_has_no_detector_traffic;
    Alcotest.test_case "election matches the rank rule" `Quick test_election_matches_rank_rule;
    Alcotest.test_case "fencing ablation: pinned split-brain" `Quick test_fencing_ablation_pinned;
    Alcotest.test_case "fencing counterexample shrinks and replays" `Quick
      test_fencing_counterexample_shrinks_and_replays;
    Alcotest.test_case "pinned detector trace is byte-identical" `Quick test_pinned_trace;
    Alcotest.test_case "kv: detector sweep is safe" `Quick test_kv_detector_sweep_safe;
  ]
