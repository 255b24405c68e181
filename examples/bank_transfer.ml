(** Bank transfers on the distributed key-value store: the workload the
    paper's introduction motivates.  Money moves between accounts spread
    over four sites; a coordinator crash mid-commit shows the operational
    difference between blocking 2PC and nonblocking 3PC — under 2PC the
    in-doubt transfer pins its locks (and the affected accounts) until the
    coordinator comes back; under 3PC the survivors terminate it.

    Run with: dune exec examples/bank_transfer.exe *)

let accounts = 32
let initial_balance = 100
let expected_total = Kv.Workload.bank_total ~accounts ~initial_balance

let run ?(quiet = false) ~label ~protocol ~seed ~plan () =
  let rng = Sim.Rng.create ~seed in
  let workload = Kv.Workload.bank rng ~n_txns:200 ~accounts ~arrival_rate:2.0 in
  let cfg =
    Kv.Db.config ~n_sites:4 ~protocol ~seed ~plan:(Engine.Failure_plan.of_string_exn plan)
      ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance)
      ()
  in
  let r = Kv.Db.run cfg workload in
  if not quiet then begin
    Fmt.pr "--- %s ---@.%a@." label Kv.Db.pp_result r;
    Fmt.pr "conservation of money: expected %d, measured %d -> %s@.@." expected_total
      r.Kv.Db.storage_totals
      (if r.Kv.Db.storage_totals = expected_total then "OK"
       else "pending at crashed sites (applied on recovery)")
  end;
  r

let () =
  Fmt.pr "Bank workload: 200 transfers across %d accounts on 4 sites@.@." accounts;

  ignore
    (run ~label:"3PC, no failures" ~protocol:Kv.Node.Three_phase ~seed:2024 ~plan:"" ());
  ignore
    (run ~label:"2PC, no failures" ~protocol:Kv.Node.Two_phase ~seed:2024 ~plan:"" ());

  (* Site 2 hosts a quarter of the accounts and coordinates a quarter of
     the transfers; kill it mid-run.  Whether the crash catches transfers
     in their in-doubt window (prepared, awaiting the verdict) depends on
     timing, so aggregate over ten seeds. *)
  let crash = "crash site=2 at=25" in
  let seeds = List.init 10 (fun i -> 3000 + i) in
  let aggregate protocol =
    List.fold_left
      (fun (blocked, pending) seed ->
        let r = run ~quiet:true ~label:"" ~protocol ~seed ~plan:crash () in
        assert r.Kv.Db.atomicity_ok;
        (blocked +. r.Kv.Db.blocked_time, pending + r.Kv.Db.pending))
      (0.0, 0) seeds
  in
  Fmt.pr "--- site 2 dies at t=25, 10 seeds, no recovery ---@.";
  let blocked2, pending2 = aggregate Kv.Node.Two_phase in
  let blocked3, pending3 = aggregate Kv.Node.Three_phase in
  Fmt.pr "=> total lock time pinned by in-doubt transfers: 2PC %.1f vs 3PC %.1f@." blocked2 blocked3;
  Fmt.pr "=> unresolved transfers at quiescence:           2PC %d  vs 3PC %d@.@." pending2 pending3;
  Fmt.pr "Under 2PC a transfer caught between its yes vote and the verdict@.";
  Fmt.pr "keeps its accounts locked until the coordinator returns; under 3PC@.";
  Fmt.pr "the surviving sites elect a backup and settle it immediately.@.@.";

  (* with recovery, even 2PC eventually resolves and the invariant holds *)
  let r =
    run ~label:"2PC, site 2 dies at t=25 and recovers at t=200" ~protocol:Kv.Node.Two_phase
      ~seed:3004 ~plan:(crash ^ "; recover site=2 at=200") ()
  in
  assert r.Kv.Db.atomicity_ok;
  Fmt.pr "2PC resolves once the coordinator recovers — but only then.@."
