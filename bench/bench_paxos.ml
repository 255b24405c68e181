(** Three-way fault-survival differential: 2PC vs 3PC+termination vs
    Paxos Commit, on the cost axis (messages, forced WAL writes, rounds
    to decision) and the survival axis (which pinned fault classes each
    family decides under).  Writes [BENCH_paxos.json] so every future PR
    carries the replicated-coordinator trajectory:

    - cost rows: one failure-free transaction at n=5 per family,
      including Paxos at F=0 (the degenerate 2PC configuration), F=1
      and F=2 — replication cost must grow with F;
    - fault matrix: every family against the pinned coordinator-crash
      plan (the seed-35 2PC blocker), the PR-5 three-fault split-brain
      plan, an acceptor crash and a lease fault, each cell judged
      survived / blocked / unsafe / unsupported;
    - sweep rows: 500-seed acceptor-crash + lease-fault chaos sweeps on
      both harnesses (engine F=1/F=2, database F=1), which must be
      clean on all five oracles.

    [--smoke] (wired to the [@paxos-smoke] dune alias) runs a
    seconds-long corpus asserting the differential's shape: 2PC blocks
    under the coordinator crash while Paxos F=1 stays live, Paxos F=1
    survives the split-brain plan outright, 3PC stays safe under both,
    F=1 costs more messages than F=0, and 25-seed sweeps on both
    harnesses are clean.  Exits non-zero on any unexpected result, and
    still writes a smoke-sized [BENCH_paxos.json] so CI always uploads
    differential evidence. *)

module EC = Engine.Chaos
module EP = Engine.Paxos
module FP = Engine.Failure_plan

let time = Helpers_bench.time
let rate = Helpers_bench.rate

let n_sites = 5

(* ---------------- the three families ---------------- *)

type family = Two_pc | Three_pc | Paxos of int

let family_label = function
  | Two_pc -> "central-2pc"
  | Three_pc -> "central-3pc"
  | Paxos _ -> "paxos-commit"

let family_name = function
  | Two_pc -> "central-2pc"
  | Three_pc -> "central-3pc"
  | Paxos f -> Fmt.str "paxos-commit f=%d" f

let families = [ Two_pc; Three_pc; Paxos 0; Paxos 1; Paxos 2 ]

let rb_2pc = lazy (Engine.Rulebook.compile (Core.Catalog.central_2pc n_sites))
let rb_3pc = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc n_sites))

(* ---------------- cost rows: one failure-free transaction ---------------- *)

let cost_row family =
  let r =
    match family with
    | Two_pc -> Engine.Runtime.run (Engine.Runtime.config (Lazy.force rb_2pc))
    | Three_pc -> Engine.Runtime.run (Engine.Runtime.config (Lazy.force rb_3pc))
    | Paxos f -> EP.run (EP.config ~n_sites ~f ())
  in
  let m = r.Engine.Runtime.run_metrics in
  let rounds =
    (* 2PC and 3PC rounds are structural (vote-req/vote/outcome, plus
       precommit/ack); Paxos rounds are measured — recovery ballots add
       phase-1/phase-2 round trips *)
    match family with
    | Two_pc -> 3.0
    | Three_pc -> 5.0
    | Paxos _ -> (
        match Sim.Metrics.summarize m "rounds_to_decision" with
        | Some s -> s.Sim.Metrics.mean
        | None -> Float.nan)
  in
  ( family,
    r,
    Sim.Json.Obj
      [
        ("family", Sim.Json.Str (family_name family));
        ("f", match family with Paxos f -> Sim.Json.Int f | _ -> Sim.Json.Null);
        ("n", Sim.Json.Int n_sites);
        ("messages", Sim.Json.Int r.Engine.Runtime.messages_sent);
        ("wal_forces", Sim.Json.Int (Sim.Metrics.counter m "wal_forces"));
        ("rounds_to_decision", Sim.Json.Float rounds);
        ("decided", Sim.Json.Bool r.Engine.Runtime.all_operational_decided);
      ] )

(* ---------------- fault matrix ---------------- *)

(* the seed-35 chaos counterexample: coordinator dies before its first
   transition — the textbook 2PC blocker *)
let coordinator_crash = "step-crash site=1 step=1 mode=before"

(* the PR-5 three-fault plan that forces fencing in 3PC: coordinator
   dies mid-broadcast, a backup stalls through the election, the
   elected backup decides and crashes before announcing *)
let split_brain =
  "step-crash site=1 step=1 mode=after-logging:1; stall site=2 from=4 until=14; decide-crash \
   site=3 sent=0"

(* Paxos-only clauses: 2PC/3PC cells report [unsupported], exactly what
   the CLI's family validation would tell the user *)
let acceptor_crash ~f = if f = 0 then "acceptor-crash site=1 at=2" else "acceptor-crash site=5 at=2"
let lease_fault = "lease-fault at=2"

let fault_classes =
  [
    ("coordinator-crash", fun _ -> coordinator_crash);
    ("split-brain-3fault", fun _ -> split_brain);
    ("acceptor-crash", fun f -> acceptor_crash ~f);
    ("lease-fault", fun _ -> lease_fault);
  ]

(* survived: every operational site decided and all five oracles are
   clean.  blocked: safety held but progress did not.  unsafe: a
   non-progress oracle fired — a regression whatever the family. *)
let status ~decided violations =
  if List.exists (fun (v : EC.violation) -> v.EC.oracle <> EC.Progress) violations then "unsafe"
  else if violations = [] && decided then "survived"
  else "blocked"

let matrix_cell family (class_name, plan_of) =
  let f = match family with Paxos f -> f | _ -> 0 in
  let plan_s = plan_of f in
  let plan = FP.of_string_exn plan_s in
  let unsupported = FP.unsupported_clauses ~protocol:(family_label family) plan in
  let cell_status, decided, violations =
    if unsupported <> [] then ("unsupported", Sim.Json.Null, [])
    else
      match family with
      | Two_pc | Three_pc ->
          let rb = Lazy.force (if family = Two_pc then rb_2pc else rb_3pc) in
          (* detector + fencing are the PR-5/PR-6 termination levers the
             split-brain plan was built to exercise *)
          let r, vs = EC.run_plan ~detector:true ~fencing:true rb ~plan ~seed:35 () in
          let d = r.Engine.Runtime.all_operational_decided in
          (status ~decided:d vs, Sim.Json.Bool d, vs)
      | Paxos f ->
          let cfg = EP.config ~plan ~seed:35 ~n_sites ~f () in
          let r = EP.run cfg in
          let vs = EP.violations ~cfg r in
          let d = r.Engine.Runtime.all_operational_decided in
          (status ~decided:d vs, Sim.Json.Bool d, vs)
  in
  ( (family, class_name, cell_status),
    Sim.Json.Obj
      [
        ("family", Sim.Json.Str (family_name family));
        ("fault_class", Sim.Json.Str class_name);
        ("plan", Sim.Json.Str plan_s);
        ("status", Sim.Json.Str cell_status);
        ("decided", decided);
        ( "violations",
          Sim.Json.List
            (List.map (fun (v : EC.violation) -> Sim.Json.Str (EC.oracle_name v.EC.oracle)) violations)
        );
      ] )

(* ---------------- sweep rows ---------------- *)

let engine_sweep_row ~f ~k ~seeds =
  Fmt.epr "paxos sweep (engine) n=%d f=%d k=%d seeds=%d...@." n_sites f k seeds;
  let (failing, s), wall = time (fun () -> EC.sweep_target (EP.target ~n_sites ~f ()) ~k ~seeds) in
  let failing = List.length failing in
  ( failing,
    Sim.Json.Obj
      [
        ("harness", Sim.Json.Str "engine");
        ("f", Sim.Json.Int f);
        ("n", Sim.Json.Int n_sites);
        ("k", Sim.Json.Int k);
        ("seeds", Sim.Json.Int s.EC.seeds_run);
        ("failing", Sim.Json.Int failing);
        ("wall_s", Sim.Json.Float wall);
        ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
      ] )

let kv_sweep_row ~f ~k ~seeds =
  Fmt.epr "paxos sweep (kv) n=%d f=%d k=%d seeds=%d...@." n_sites f k seeds;
  let s, wall =
    time (fun () ->
        Kv.Chaos_db.sweep ~profile:(Kv.Chaos_db.paxos_profile ~f Kv.Chaos_db.default_profile) ~protocol:(Kv.Node.Paxos f) ~n_sites ~k
          ~seeds ())
  in
  ( List.length s.Kv.Chaos_db.failing,
    Sim.Json.Obj
      [
        ("harness", Sim.Json.Str "kv");
        ("f", Sim.Json.Int f);
        ("n", Sim.Json.Int n_sites);
        ("k", Sim.Json.Int k);
        ("seeds", Sim.Json.Int s.Kv.Chaos_db.seeds_run);
        ("failing", Sim.Json.Int (List.length s.Kv.Chaos_db.failing));
        ("wall_s", Sim.Json.Float wall);
        ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
      ] )

(* ---------------- report + gates ---------------- *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Fmt.epr "UNEXPECTED %s@." what
  end

let cell_status cells family class_name =
  let (_, _, s), _ =
    List.find (fun ((fam, c, _), _) -> fam = family && c = class_name) cells
  in
  s

let run ~smoke =
  let sweep_seeds = if smoke then 25 else 500 in
  let costs = List.map cost_row families in
  let cells = List.concat_map (fun fam -> List.map (matrix_cell fam) fault_classes) families in
  let e1_failing, e1_row = engine_sweep_row ~f:1 ~k:2 ~seeds:sweep_seeds in
  let e2_failing, e2_row = engine_sweep_row ~f:2 ~k:2 ~seeds:sweep_seeds in
  let kv_failing, kv_row = kv_sweep_row ~f:1 ~k:2 ~seeds:sweep_seeds in

  (* the differential's shape — every gate is a regression alarm *)
  let msgs fam =
    let _, r, _ = List.find (fun (f, _, _) -> f = fam) costs in
    r.Engine.Runtime.messages_sent
  in
  List.iter
    (fun (fam, r, _) ->
      check
        (Fmt.str "%s did not decide failure-free" (family_name fam))
        r.Engine.Runtime.all_operational_decided)
    costs;
  check "paxos f=1 not costlier than f=0 in messages" (msgs (Paxos 1) > msgs (Paxos 0));
  check "paxos f=2 not costlier than f=1 in messages" (msgs (Paxos 2) > msgs (Paxos 1));
  check "2pc survived the coordinator crash"
    (cell_status cells Two_pc "coordinator-crash" = "blocked");
  check "3pc blocked on the coordinator crash"
    (cell_status cells Three_pc "coordinator-crash" = "survived");
  check "3pc unsafe under the split-brain plan"
    (cell_status cells Three_pc "split-brain-3fault" <> "unsafe");
  List.iter
    (fun cls ->
      check
        (Fmt.str "paxos f=1 did not survive %s" cls)
        (cell_status cells (Paxos 1) cls = "survived");
      check
        (Fmt.str "paxos f=2 did not survive %s" cls)
        (cell_status cells (Paxos 2) cls = "survived"))
    [ "coordinator-crash"; "split-brain-3fault"; "acceptor-crash"; "lease-fault" ];
  (* f=0 is the degenerate single-replica configuration: losing its one
     acceptor must block it (never corrupt it) *)
  check "paxos f=0 survived losing its only acceptor"
    (cell_status cells (Paxos 0) "acceptor-crash" = "blocked");
  List.iter
    (fun ((fam, cls, s), _) ->
      check (Fmt.str "%s unsafe under %s" (family_name fam) cls) (s <> "unsafe"))
    cells;
  check "engine f=1 sweep not clean" (e1_failing = 0);
  check "engine f=2 sweep not clean" (e2_failing = 0);
  check "kv f=1 sweep not clean" (kv_failing = 0);

  let report = Sim.Report.create ~bench_name:"paxos" () in
  Sim.Report.add report "smoke" (Sim.Json.Bool smoke);
  Sim.Report.add report "cost" (Sim.Json.List (List.map (fun (_, _, j) -> j) costs));
  Sim.Report.add report "fault_matrix" (Sim.Json.List (List.map snd cells));
  Sim.Report.add report "sweeps" (Sim.Json.List [ e1_row; e2_row; kv_row ]);
  let file = "BENCH_paxos.json" in
  Sim.Report.write report ~file;
  Fmt.pr "wrote %s@." file;
  if !failures > 0 then begin
    Fmt.epr "paxos%s: %d unexpected result(s)@." (if smoke then "-smoke" else "") !failures;
    exit 1
  end;
  if smoke then
    Fmt.pr
      "paxos-smoke: 2PC blocks on the coordinator crash, Paxos F>=1 survives all four fault \
       classes, F=0 degenerates safely, and %d-seed sweeps on both harnesses are clean@."
      sweep_seeds

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> run ~smoke:true
  | _ -> run ~smoke:false
