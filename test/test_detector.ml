(** Tests for the unreliable failure detector ({!Sim.Detector} wired into
    {!Engine.Runtime}): crash-hook composability, suspicion-driven
    termination, false-suspicion retraction (and the thaw that undoes an
    unwarranted freeze), the stall grace on wake-up, oracle-mode runs
    staying detector-free, the election/rank differential against the
    paper's reliable-detector oracle, and the pinned epoch-fencing
    ablation that reproduces a split-brain when fencing is off, and
    pinned detector-fault sweeps on both harnesses. *)

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
   reproduce the run byte for byte.

   The run ends at quiescence, t = 32.14, after its last protocol
   message.  Before detector-mode runs ended there it went on to the
   1500.0 horizon (digest 16947840819c78373308c98758f18c9b); that
   rendered trace starts with this one's 313 lines byte for byte, and its
   other 17,610 lines are all heartbeat sends and deliveries. *)
let pinned_trace_plan =
  "partition from=3 until=6 groups=1|2,3; msg nth=2 fault=drop; msg nth=4 fault=dup; msg nth=6 \
   fault=delay:2.5; delay site=2 from=1 until=12 extra=1.5; stall site=3 from=14 until=19; hb-loss \
   site=2 from=20 until=28; crash site=1 at=9; recover site=1 at=30"

let pinned_trace_digest = "e6431103b76b9f044e24e03e673881ee"

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

(* ---------------- the stop at quiescence ---------------- *)

(* Three sites that only exchange heartbeats, with [faults] scheduled on
   the world before the run.  Returns the end time, the detector's
   suspicions and retractions in order, and the world.  [keep_alive]
   parks an ordinary timer at the horizon, so that the run cannot stop
   early: the reference a stopped run must agree with. *)
let bare_run ?(keep_alive = false) faults =
  let until = 200.0 in
  let w = Sim.World.create ~n_sites:3 ~seed:4 ~msg_to_string:(fun (s : string) -> s) () in
  let log = ref [] in
  let note kind (ctx : string Sim.World.ctx) p =
    log := (Sim.World.now w, ctx.Sim.World.self, p, kind) :: !log
  in
  let d =
    Sim.Detector.create ~world:w ~heartbeat:"hb" ~is_heartbeat:(String.equal "hb")
      ~on_suspect:(note "suspect") ~on_unsuspect:(note "retract") ()
  in
  faults w;
  let handlers _ =
    {
      Sim.World.on_start =
        (fun ctx ->
          Sim.Detector.start d ctx;
          if keep_alive && ctx.Sim.World.self = 1 then
            ignore (Sim.World.set_timer ctx ~delay:until ignore));
      on_message = (fun ctx ~src _ -> Sim.Detector.heard d ~self:ctx.Sim.World.self ~src);
      on_peer_down = (fun _ _ -> ());
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun ctx -> Sim.Detector.start d ctx);
    }
  in
  let t_end = Sim.World.run w ~handlers ~until () in
  (t_end, List.rev !log, w)

let log_t = Alcotest.(list (pair (float 0.0) (triple int int string)))
let flat = List.map (fun (t, o, p, k) -> (t, (o, p, k)))

(* The suspicions and retractions must be those of the run that goes on
   to the horizon, and the stop must come no earlier than [at_least].
   Returns the stopped run's log and world. *)
let check_stop name ?(at_least = 0.0) faults =
  let t_end, log, w = bare_run faults in
  let ref_end, ref_log, _ = bare_run ~keep_alive:true faults in
  Alcotest.(check (float 0.0)) (name ^ ": the reference runs to the horizon") 200.0 ref_end;
  Alcotest.(check bool)
    (Fmt.str "%s: stops at %.2f, not before %.2f" name t_end at_least)
    true (t_end >= at_least);
  Alcotest.(check bool)
    (Fmt.str "%s: stops at %.2f, before the horizon" name t_end)
    true (t_end < 100.0);
  Alcotest.check log_t (name ^ ": same suspicions and retractions") (flat ref_log) (flat log);
  (log, w)

let suspected_site_2 ?(after = neg_infinity) log =
  List.exists (fun (t, _, p, k) -> p = 2 && k = "suspect" && t > after) log

let test_quiet_detector_stops_at_once () =
  let t_end, log, _ = bare_run (fun _ -> ()) in
  Alcotest.(check (float 0.0)) "nothing can change: ends at the start" 0.0 t_end;
  Alcotest.check log_t "no suspicion" [] (flat log)

let test_hb_loss_blocks_stop () =
  let hb_loss ~from_t ~until_t w = Sim.World.schedule_hb_loss w ~site:2 ~from_t ~until_t in
  let log, _ = check_stop "open window" ~at_least:10.0 (hb_loss ~from_t:0.0 ~until_t:10.0) in
  Alcotest.(check bool) "site 2 was falsely suspected" true (suspected_site_2 log);
  ignore (check_stop "future window" ~at_least:30.0 (hb_loss ~from_t:20.0 ~until_t:30.0));
  (* closed at 4.5, before anyone suspects site 2; its first heartbeat
     after the window lands after the check at 6.0 has suspected it *)
  let log, _ = check_stop "short window" ~at_least:4.5 (hb_loss ~from_t:0.0 ~until_t:4.5) in
  Alcotest.(check bool) "site 2 was suspected after the window closed" true
    (suspected_site_2 ~after:4.5 log)

let test_future_msg_fault_blocks_stop () =
  (* heartbeats use up send indices: the stop waits until send #400 *)
  let _, w =
    check_stop "message fault" (fun w -> Sim.World.set_msg_faults w [ (400, Sim.World.Fault_drop) ])
  in
  Alcotest.(check bool) "send #400 happened before the stop" true (Sim.World.sends_attempted w > 400)

let test_unsuspected_dead_peer_blocks_stop () =
  let log, _ = check_stop "crash" (fun w -> Sim.World.schedule_crash w ~at:1.0 3) in
  Alcotest.(check (list (pair int int)))
    "both survivors suspect the dead site" [ (1, 3); (2, 3) ]
    (List.sort compare (List.map (fun (_, o, p, _) -> (o, p)) log))

let test_heartbeat_in_flight_from_dead_sender_blocks_stop () =
  (* site 3's first heartbeats are slowed past its crash and past its
     peers' suspicion of it: when they land, the suspicion is retracted
     and later raised again *)
  let faults w =
    Sim.World.schedule_latency_spike w ~site:3 ~from_t:0.0 ~until_t:0.5 ~extra:8.0;
    Sim.World.schedule_crash w ~at:0.5 3
  in
  let log, _ = check_stop "in flight" ~at_least:9.0 faults in
  Alcotest.(check (list string))
    "site 1 suspects, retracts, suspects again" [ "suspect"; "retract"; "suspect" ]
    (List.filter_map (fun (_, o, p, k) -> if o = 1 && p = 3 then Some k else None) log)

(* ---------------- detector-fault sweeps, pinned ---------------- *)

(* Latency spikes, stalls and heartbeat loss on top of the default
   faults (the overlay of [skeen chaos --detector-faults]), 200 seeds per
   sweep.  Pins what a sweep decides — the per-oracle tallies, the failing
   seeds and the summed detector counters — so that a change to how long
   a detector run lasts can be checked not to change any of it. *)
let detector_counters = [ "false_suspicions"; "elections_started"; "elections"; "epoch_rejected_directives" ]

let sweep_digest t =
  let failing, s = C.sweep_target ~max_counterexamples:0 t ~k:1 ~seeds:200 in
  Fmt.str "violations{%s} failing[%s] %s"
    (String.concat "," (List.map (fun (o, c) -> Fmt.str "%s=%d" (C.oracle_name o) c) s.C.violations_by_oracle))
    (String.concat ";" (List.map (fun (seed, _) -> string_of_int seed) failing))
    (String.concat ","
       (List.map (fun name -> Fmt.str "%s=%d" name (M.counter s.C.metrics name)) detector_counters))

let engine_sweep_digest protocol =
  sweep_digest
    (C.target
       ~profile:(Sim.Nemesis.detector_faults Sim.Nemesis.default_profile)
       (R.config ~until:C.stall_budget ~detector:true (Engine.Rulebook.compile protocol)))

let test_detector_sweeps_pinned () =
  List.iter
    (fun (name, digest, expected) -> Alcotest.(check string) name expected (Lazy.force digest))
    [
      ( "engine central-3pc n=3",
        lazy (engine_sweep_digest (Core.Catalog.central_3pc 3)),
        "violations{} failing[] \
         false_suspicions=222,elections_started=89,elections=235,epoch_rejected_directives=91" );
      ( "engine central-3pc n=4",
        lazy (engine_sweep_digest (Core.Catalog.central_3pc 4)),
        "violations{} failing[] \
         false_suspicions=412,elections_started=81,elections=250,epoch_rejected_directives=138" );
      ( "engine central-2pc n=3",
        lazy (engine_sweep_digest (Core.Catalog.central_2pc 3)),
        "violations{progress=3} failing[35;80;169] \
         false_suspicions=239,elections_started=100,elections=240,epoch_rejected_directives=90" );
      ( "kv central-3pc n=3",
        lazy
          (sweep_digest
             (Kv.Chaos_db.target
                ~profile:(Sim.Nemesis.detector_faults Kv.Chaos_db.default_profile)
                (Kv.Chaos_db.config ~n_sites:3 ~detector:true ()))),
        "violations{atomicity=1,progress=5,durability=1} failing[112;122;124;166;174;188] \
         false_suspicions=198,elections_started=0,elections=0,epoch_rejected_directives=9" );
    ]

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
    Alcotest.test_case "a quiet detector world ends at once" `Quick test_quiet_detector_stops_at_once;
    Alcotest.test_case "an open or future hb-loss window blocks the stop" `Quick
      test_hb_loss_blocks_stop;
    Alcotest.test_case "a message fault at a future send index blocks the stop" `Quick
      test_future_msg_fault_blocks_stop;
    Alcotest.test_case "an unsuspected dead peer blocks the stop" `Quick
      test_unsuspected_dead_peer_blocks_stop;
    Alcotest.test_case "a heartbeat in flight from a dead sender blocks the stop" `Quick
      test_heartbeat_in_flight_from_dead_sender_blocks_stop;
    Alcotest.test_case "detector-fault sweeps: tallies, failing seeds, counters" `Quick
      test_detector_sweeps_pinned;
  ]
