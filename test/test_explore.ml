(** Tests for the coverage-guided fault-space explorer:
    {!Sim.Coverage} accounting, mutation closure over the protocol's
    clause families, worker-count determinism of {!Engine.Explore.search},
    the pinned feature vocabulary of an engine and a kv search,
    the corpus save/load round-trip, guided rediscovery of the pinned
    2PC coordinator wedge — and regression pins for the masked
    crash-recover-window wedges the explorer itself found in 3PC. *)

module E = Engine.Explore
module FP = Engine.Failure_plan
module C = Sim.Coverage

let plan : FP.t Alcotest.testable = Alcotest.testable FP.pp FP.equal

(* ---------------- Sim.Coverage ---------------- *)

let test_coverage_accounting () =
  let t = C.create () in
  let k = C.symbol "k" in
  let f v = C.feat k (C.symbol v) in
  Alcotest.(check int) "empty accumulator" 0 (C.count t);
  Alcotest.(check int) "first fingerprint is all-new" 3 (C.add t [ f "a"; f "b"; f "c" ]);
  Alcotest.(check int) "duplicates within a fingerprint count once" 1 (C.add t [ f "c"; f "d"; f "d" ]);
  Alcotest.(check int) "a seen fingerprint adds nothing" 0 (C.add t [ f "d"; f "a" ]);
  Alcotest.(check int) "count is distinct features" 4 (C.count t);
  let w_yes = C.concat (C.symbol "w") (C.symbol "+y") in
  Alcotest.(check bool) "concat is the symbol of the joined name" true (w_yes = C.symbol "w+y");
  let e = C.edge ~class_:(C.symbol "coord") (C.symbol "q") w_yes in
  Alcotest.(check string) "an edge renders" "e:coord:q->w+y" (C.name e);
  Alcotest.(check int) "an edge and a feat of the same symbols differ" 2 (C.add t [ e; C.feat (C.symbol "q") w_yes ]);
  Alcotest.(check (list string))
    "features are rendered and sorted"
    [ "e:coord:q->w+y"; "k:a"; "k:b"; "k:c"; "k:d"; "q:w+y" ]
    (C.features t)

let test_bucket () =
  let bucket n = C.symbol_name (C.bucket n) in
  Alcotest.(check string) "exact below 5" "3" (bucket 3);
  Alcotest.(check string) "boundary 4 stays exact" "4" (bucket 4);
  Alcotest.(check string) "negative reads 0" "0" (bucket (-2));
  Alcotest.(check string) "5 coarsens" (bucket 7) (bucket 5);
  Alcotest.(check string) "log2 bucket" "le8" (bucket 5);
  Alcotest.(check string) "le16" (bucket 16) (bucket 9);
  Alcotest.(check string) "le1024" "le1024" (bucket 1000);
  Alcotest.(check bool) "bool" true (C.symbol_name (C.bool true) = "true" && C.symbol_name (C.bool false) = "false")

(* upper bound of the bucket a count landed in: "3" -> 3, "le16" -> 16 *)
let bucket_ceiling s =
  match int_of_string_opt s with
  | Some n -> n
  | None ->
      Scanf.sscanf s "le%d" Fun.id

let prop_bucket_total_and_monotone =
  Helpers.qtest "bucket is total, contains its input, and is monotone"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (a, b) ->
      let a, b = (min a b, max a b) in
      let ceiling n = bucket_ceiling (C.symbol_name (C.bucket n)) in
      a <= ceiling a && ceiling a <= ceiling b)

(* ---------------- mutation closure ---------------- *)

(* the family gate the CLI relies on: however many mutation steps run,
   a plan that started inside a protocol's families never grows a clause
   that protocol rejects *)
let prop_mutate_stays_in_families =
  Helpers.qtest ~count:100 "mutants never leave the protocol's clause families"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 12))
    (fun (seed, steps) ->
      List.for_all
        (fun protocol ->
          let families = E.protocol_families ~protocol in
          let rng = Sim.Rng.create ~seed in
          let p = ref FP.none in
          for _ = 1 to steps do
            p := E.mutate rng ~n_sites:3 ~horizon:300.0 ~families !p
          done;
          FP.unsupported_clauses ~protocol !p = [])
        [ "central-2pc"; "central-3pc"; "paxos-commit" ])

let prop_splice_draws_from_parents =
  (* crossover never invents a fault: every clause of the child appears
     in one of the parents (checked on the families text renders through) *)
  Helpers.qtest ~count:100 "splice only recombines parent faults"
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2, s3) ->
      let grow seed =
        let rng = Sim.Rng.create ~seed in
        let families = E.protocol_families ~protocol:"central-3pc" in
        let p = ref FP.none in
        for _ = 1 to 6 do
          p := E.mutate rng ~n_sites:3 ~horizon:300.0 ~families !p
        done;
        !p
      in
      let a = grow s1 and b = grow s2 in
      let child = E.splice (Sim.Rng.create ~seed:s3) a b in
      let clauses p =
        match FP.to_string p with
        | "" -> []
        | s -> List.map String.trim (String.split_on_char ';' s)
      in
      let pool = clauses a @ clauses b in
      List.for_all (fun c -> List.mem c pool) (clauses child))

(* ---------------- search determinism + rediscovery ---------------- *)

let engine_2pc () =
  E.engine_harness ~k:1 (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))

let test_search_rediscovers_wedge_and_is_worker_invariant () =
  (* one guided search at the smoke budget must rediscover the pinned
     2PC coordinator step-crash wedge shrunk to a single fault, and the
     result must be byte-identical whatever the worker count *)
  let budget = 96 in
  let r1 = E.search ~workers:1 (engine_2pc ()) ~mode:`Guided ~budget () in
  let r2 = E.search ~workers:2 (engine_2pc ()) ~mode:`Guided ~budget () in
  Alcotest.(check int) "coverage is worker-invariant" r1.E.coverage r2.E.coverage;
  Alcotest.(check (list string)) "features are worker-invariant" r1.E.features r2.E.features;
  Alcotest.(check (list plan))
    "corpus is worker-invariant"
    (List.map fst r1.E.corpus)
    (List.map fst r2.E.corpus);
  Alcotest.(check (list plan))
    "shrunk bugs are worker-invariant"
    (List.map (fun b -> b.E.bug_shrunk) r1.E.bugs)
    (List.map (fun b -> b.E.bug_shrunk) r2.E.bugs);
  let wedge =
    List.find_opt
      (fun b -> b.E.bug_oracle = "progress" && FP.fault_count b.E.bug_shrunk <= 1)
      r1.E.bugs
  in
  Alcotest.(check bool) "progress wedge rediscovered, shrunk to <= 1 fault" true (wedge <> None)

(* ---------------- pinned feature vocabulary ---------------- *)

(* The rendered features and corpus novelties of two searches, recorded
   when every feature was built as a string: an int encoding that merged
   two names or split one would move both lists. *)

let engine_features =
  [
    "blocked:0"; "consistent:true"; "e:coord:c->dec-commit"; "e:coord:p+y->c";
    "e:coord:p+y->dec-commit"; "e:coord:q->dec-abort"; "e:coord:q->w"; "e:coord:w->dec-abort";
    "e:coord:w->p+y"; "e:part:c->dec-commit"; "e:part:mv-p->dec-commit"; "e:part:mv-w->dec-abort";
    "e:part:p->c"; "e:part:p->dec-commit"; "e:part:q->dec-abort"; "e:part:q->mv-w";
    "e:part:q->w+y"; "e:part:w+y->dec-abort"; "e:part:w+y->dec-commit"; "e:part:w+y->mv-p";
    "e:part:w+y->p"; "elections:0"; "elections:1"; "elections:2"; "elections:3"; "elections:4";
    "elections:le8"; "elections_started:0"; "end-coord:abort"; "end-coord:abort+crashed";
    "end-coord:abort+crashed+down"; "end-coord:commit"; "end-coord:commit+crashed";
    "end-coord:commit+crashed+down"; "end-coord:undecided+crashed+down"; "end-part:abort";
    "end-part:abort+crashed"; "end-part:abort+crashed+down"; "end-part:commit";
    "end-part:commit+crashed"; "end-part:commit+crashed+down"; "end-part:undecided+crashed+down";
    "epoch-sites:0"; "epoch-sites:1"; "epoch-sites:2"; "epoch_rejected_directives:0"; "epochs:0";
    "epochs:1"; "epochs:2"; "epochs:3"; "epochs:4"; "epochs:le8"; "false_suspicions:0";
    "final-coord:a"; "final-coord:c"; "final-coord:p"; "final-coord:q"; "final-coord:w";
    "final-part:a"; "final-part:c"; "final-part:p"; "final-part:q"; "final-part:w";
    "outcome:abort"; "outcome:commit";
  ]

let engine_novelties =
  [
    22; 3; 7; 1; 3; 1; 1; 1; 2; 2; 4; 1; 2; 3; 1; 1; 1; 2; 1; 2; 1; 1; 2;
  ]

let kv_features =
  [
    "aborted:0"; "aborted:1"; "aborted:2"; "aborted:3"; "aborted:4"; "aborted:le8";
    "blocked-time:0"; "breaches:0"; "committed:0"; "committed:1"; "committed:2"; "committed:3";
    "committed:4"; "committed:le16"; "committed:le8"; "contradiction:false"; "crashes:1";
    "crashes:2"; "crashes:3"; "crashes:4"; "crashes:le8"; "deadlock-aborts:0";
    "deadlock-aborts:1"; "deadlock-aborts:2"; "deadlocks:1"; "epoch-sites:0"; "epoch-sites:1";
    "epochs:0"; "epochs:1"; "epochs:2"; "epochs:3"; "events_crash:1"; "events_crash:2";
    "events_crash:3"; "events_crash:4"; "events_crash:le8"; "events_deliver:le1024";
    "events_deliver:le128"; "events_deliver:le16"; "events_deliver:le256"; "events_deliver:le32";
    "events_deliver:le512"; "events_deliver:le64"; "events_detect_down:3";
    "events_detect_down:le16"; "events_detect_down:le32"; "events_detect_down:le8";
    "events_detect_up:3"; "events_detect_up:le16"; "events_detect_up:le8"; "events_recover:1";
    "events_recover:2"; "events_recover:3"; "events_recover:4"; "events_recover:le8";
    "events_stalled:1"; "events_stalled:2"; "events_stalled:3"; "events_timer:1";
    "events_timer:2"; "events_timer:3"; "events_timer:4"; "events_timer:le128";
    "events_timer:le16"; "events_timer:le256"; "events_timer:le64"; "events_timer:le8";
    "fate10:aborted"; "fate10:committed"; "fate10:pending"; "fate1:aborted"; "fate1:committed";
    "fate1:pending"; "fate2:aborted"; "fate2:committed"; "fate2:pending"; "fate3:aborted";
    "fate3:committed"; "fate3:pending"; "fate4:aborted"; "fate4:committed"; "fate4:pending";
    "fate5:aborted"; "fate5:committed"; "fate5:pending"; "fate6:aborted"; "fate6:committed";
    "fate6:pending"; "fate7:aborted"; "fate7:committed"; "fate7:pending"; "fate8:aborted";
    "fate8:committed"; "fate8:pending"; "fate9:aborted"; "fate9:committed"; "fate9:pending";
    "in-doubt:0"; "in-doubt:1"; "in-doubt:2"; "lock_timeouts:1"; "lock_timeouts:2";
    "lock_waits:1"; "lock_waits:2"; "lock_waits:3"; "lock_waits:4"; "lock_waits:le16";
    "lock_waits:le8"; "messages_chaos_delayed:1"; "messages_chaos_delayed:2";
    "messages_delivered:1"; "messages_delivered:2"; "messages_delivered:3";
    "messages_delivered:4"; "messages_delivered:le1024"; "messages_delivered:le128";
    "messages_delivered:le16"; "messages_delivered:le256"; "messages_delivered:le32";
    "messages_delivered:le512"; "messages_delivered:le64"; "messages_delivered:le8";
    "messages_dropped:1"; "messages_dropped:2"; "messages_dropped:3"; "messages_dropped:4";
    "messages_dropped:le128"; "messages_dropped:le16"; "messages_dropped:le256";
    "messages_dropped:le64"; "messages_dropped:le8"; "messages_duplicated:1";
    "messages_duplicated:2"; "messages_duplicated:3"; "messages_duplicated:4"; "messages_sent:1";
    "messages_sent:le1024"; "messages_sent:le128"; "messages_sent:le16"; "messages_sent:le256";
    "messages_sent:le32"; "messages_sent:le512"; "messages_sent:le64"; "messages_sent:le8";
    "missing-applied:0"; "missing-applied:1"; "orphan_prepare_refused:1"; "pending:0";
    "pending:1"; "pending:2"; "pending:3"; "pending:4"; "pending:le16"; "pending:le8";
    "recoveries:1"; "recoveries:2"; "recoveries:3"; "recoveries:4"; "recoveries:le8";
    "refused_participant_down:1"; "refused_participant_down:2"; "refused_participant_down:3";
    "refused_participant_down:4"; "refused_participant_down:le8"; "terminations:1";
    "terminations:2"; "terminations:3"; "terminations:4"; "terminations:le16"; "terminations:le8";
    "timers_in_flight_kv_lock_wait:1"; "timers_in_flight_kv_lock_wait:2";
    "timers_in_flight_kv_lock_wait:3"; "timers_in_flight_kv_lock_wait:4"; "wal_forces:1";
    "wal_forces:2"; "wal_forces:3"; "wal_forces:4"; "wal_forces:le128"; "wal_forces:le16";
    "wal_forces:le32"; "wal_forces:le64"; "wal_forces:le8";
  ]

let kv_novelties =
  [
    34; 4; 2; 12; 8; 3; 1; 8; 1; 2; 9; 2; 2; 3; 6; 2; 1; 3; 2; 2; 4; 1; 1; 1; 1; 4; 2; 4; 3; 1; 2;
    2; 4; 1; 5; 5; 1; 2; 1; 1; 3; 2; 2; 5; 2; 1; 2; 2; 1; 1; 7; 1; 1;
  ]

let test_pinned_vocabulary () =
  let novelties (r : E.result) = List.map snd r.E.corpus in
  let engine =
    E.search
      (E.engine_harness ~k:1 (Engine.Rulebook.compile (Core.Catalog.central_3pc 3)))
      ~mode:`Guided ~budget:4096 ~seed:0 ()
  in
  Alcotest.(check (list string)) "engine 3PC features" engine_features engine.E.features;
  Alcotest.(check (list int)) "engine 3PC corpus novelties" engine_novelties (novelties engine);
  let kv =
    E.search
      (Kv.Chaos_db.harness ~protocol:Kv.Node.Three_phase ~n_sites:4 ())
      ~mode:`Guided ~budget:512 ~seed:3 ()
  in
  Alcotest.(check (list string)) "kv 3PC features" kv_features kv.E.features;
  Alcotest.(check (list int)) "kv 3PC corpus novelties" kv_novelties (novelties kv)

let test_corpus_save_load_round_trip () =
  let r = E.search (engine_2pc ()) ~mode:`Guided ~budget:32 () in
  (* tests run in dune's per-test sandbox, so a fixed name cannot collide *)
  let dir = "explore-corpus-test" in
  E.save_corpus ~dir r;
  let loaded = E.load_corpus ~dir in
  let corpus_plans = List.map fst r.E.corpus in
  let bug_plans = List.map (fun b -> b.E.bug_shrunk) r.E.bugs in
  Alcotest.(check int)
    "one file per corpus entry plus one per shrunk bug"
    (List.length corpus_plans + List.length bug_plans)
    (List.length loaded);
  (* every persisted plan parses back to a plan the search produced *)
  List.iter
    (fun (file, p) ->
      Alcotest.(check bool)
        (Fmt.str "%s matches a search plan" file)
        true
        (List.exists (FP.equal p) (corpus_plans @ bug_plans)))
    loaded;
  Alcotest.(check (list string))
    "load_corpus on a missing dir is empty" []
    (List.map fst (E.load_corpus ~dir:"no-such-corpus-dir"));
  (* replay of the persisted corpus must reproduce at least one violation
     iff the search saw one *)
  if r.E.violating_runs > 0 then begin
    let reports = E.replay (engine_2pc ()) (List.map snd loaded) in
    Alcotest.(check bool) "replay reproduces a violation" true
      (List.exists (fun (_, (rep : E.report)) -> rep.E.violations <> []) reports)
  end

(* ---------------- pinned wedge regressions ---------------- *)

(* The explorer's first catch: a crash-recover window shorter than the
   world's detection delay produces NO failure report, so (a) an
   undecided waiter used to ignore the recoveree's outcome queries and
   (b) a recoveree that resolved locally never re-announced — either
   way the never-crashed sites waited forever.  Fixed in Runtime by
   treating a peer's outcome query as failure evidence and re-announcing
   on recovery; pinned here on the exact shrunk plans. *)
let test_masked_recovery_window_terminates () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  List.iter
    (fun text ->
      let plan = FP.of_string_exn text in
      let r = Engine.Runtime.run (Engine.Runtime.config ~plan rb) in
      Alcotest.(check bool)
        (Fmt.str "%S: all operational sites decide" text)
        true r.Engine.Runtime.all_operational_decided;
      Alcotest.(check bool) (Fmt.str "%S: consistent" text) true r.Engine.Runtime.consistent;
      Alcotest.(check int)
        (Fmt.str "%S: no blocked operational site" text)
        0 r.Engine.Runtime.blocked_operational)
    [
      "step-crash site=3 step=1 mode=before; recover site=3 at=4";
      "step-crash site=1 step=1 mode=before; recover site=1 at=3";
      "step-crash site=1 step=1 mode=before; recover site=1 at=4";
      "crash site=2 at=1; recover site=2 at=2";
    ]

let test_storm_plan_terminates () =
  (* a short storm is repeated masked windows back-to-back — the same
     fix must hold wave after wave *)
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let plan = FP.of_string_exn "storm site=3 first=2 waves=3 period=60 down=1.5" in
  let r = Engine.Runtime.run (Engine.Runtime.config ~plan ~until:1500.0 rb) in
  Alcotest.(check bool) "storm run consistent" true r.Engine.Runtime.consistent;
  Alcotest.(check int) "no blocked operational site" 0 r.Engine.Runtime.blocked_operational

let suite =
  [
    Alcotest.test_case "coverage accounting" `Quick test_coverage_accounting;
    Alcotest.test_case "bucket pins" `Quick test_bucket;
    prop_bucket_total_and_monotone;
    prop_mutate_stays_in_families;
    prop_splice_draws_from_parents;
    Alcotest.test_case "guided search: worker-invariant, rediscovers the 2PC wedge" `Slow
      test_search_rediscovers_wedge_and_is_worker_invariant;
    Alcotest.test_case "pinned feature vocabulary of an engine and a kv search" `Quick
      test_pinned_vocabulary;
    Alcotest.test_case "corpus save/load round trip" `Quick test_corpus_save_load_round_trip;
    Alcotest.test_case "masked crash-recover window terminates (pinned wedges)" `Quick
      test_masked_recovery_window_terminates;
    Alcotest.test_case "crash-recover storm terminates" `Quick test_storm_plan_terminates;
  ]
