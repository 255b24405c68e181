(** Randomized property suites spanning the whole stack: the design
    method on random skeletons, the runtime under random fault plans, and
    the database under random workloads with random failure schedules. *)

module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* the design method on random canonical skeletons                     *)
(* ------------------------------------------------------------------ *)

(* Random layered, acyclic skeletons in the shape of commit protocols:
   an initial state, a chain of wait layers, final commit and abort
   states, random forward edges, and a committability marking constrained
   as in real protocols (committable states are never adjacent to abort
   states: a state implying "everyone voted yes" cannot sit next to a
   unilateral abort). *)
let gen_skeleton : Core.Skeleton.t Gen.t =
  let open Gen in
  let* n_waits = int_range 1 4 in
  let wait i = Fmt.str "w%d" i in
  let waits = List.init n_waits wait in
  (* chain edges q -> w0 -> w1 ... -> c, plus q -> a and random extras *)
  let base_states =
    [ ("q", Core.Types.Initial); ("a", Core.Types.Abort); ("c", Core.Types.Commit) ]
    @ List.map (fun w -> (w, Core.Types.Wait)) waits
  in
  let order = ("q" :: waits) @ [ "c" ] in
  let chain = List.map2 (fun a b -> (a, b)) (List.filteri (fun i _ -> i < List.length order - 1) order)
      (List.tl order) in
  (* optional extra abort edges from waits, and skip edges forward *)
  let* abort_edges =
    flatten_l
      (List.map (fun w -> map (fun b -> if b then [ (w, "a") ] else []) bool) ("q" :: waits))
  in
  let* skip_edges =
    flatten_l
      (List.mapi
         (fun i w ->
           if i + 2 < List.length order then
             map (fun b -> if b then [ (w, List.nth order (i + 2)) ] else []) bool
           else return [])
         order)
  in
  let edges = List.sort_uniq compare (chain @ List.concat abort_edges @ List.concat skip_edges) in
  (* committable marking: suffix of the wait chain that has no abort edge
     (and c itself); q never committable *)
  let adjacent_to_abort s = List.mem (s, "a") edges || List.mem ("a", s) edges in
  let* commit_depth = int_range 0 n_waits in
  let committable s =
    s = "c"
    || (List.exists (fun w -> w = s) waits
       && (not (adjacent_to_abort s))
       &&
       let idx = List.mapi (fun i w -> (w, i)) waits |> List.assoc s in
       idx >= n_waits - commit_depth)
  in
  (* a committable wait adjacent to a noncommittable neighbour with abort
     edges is fine; only direct adjacency to the abort state is excluded,
     matching the generator's constraint above *)
  let states =
    List.map (fun (id, kind) -> { Core.Skeleton.id; kind; committable = committable id }) base_states
  in
  return (Core.Skeleton.make ~name:"random" ~states ~initial:"q" ~edges)

let prop_synthesis_yields_nonblocking =
  Helpers.qtest ~count:300 "buffer synthesis yields a nonblocking skeleton" gen_skeleton
    (fun sk -> Core.Skeleton.is_nonblocking (Core.Synthesis.buffer_skeleton sk))

let prop_synthesis_idempotent =
  Helpers.qtest ~count:300 "buffer synthesis is idempotent" gen_skeleton (fun sk ->
      let once = Core.Synthesis.buffer_skeleton sk in
      Core.Skeleton.equal once (Core.Synthesis.buffer_skeleton once))

let prop_synthesis_preserves_states =
  Helpers.qtest ~count:300 "buffer synthesis only adds states" gen_skeleton (fun sk ->
      let once = Core.Synthesis.buffer_skeleton sk in
      List.for_all
        (fun (s : Core.Skeleton.state) ->
          List.exists (fun (s' : Core.Skeleton.state) -> s'.Core.Skeleton.id = s.Core.Skeleton.id) once.Core.Skeleton.states)
        sk.Core.Skeleton.states)

(* ------------------------------------------------------------------ *)
(* the runtime under random fault plans                                *)
(* ------------------------------------------------------------------ *)

let rulebooks =
  lazy
    [
      Engine.Rulebook.compile (Core.Catalog.central_2pc 3);
      Engine.Rulebook.compile (Core.Catalog.central_3pc 3);
      Engine.Rulebook.compile (Core.Catalog.decentralized_2pc 3);
      Engine.Rulebook.compile (Core.Catalog.decentralized_3pc 3);
    ]

let gen_fault_scenario =
  let open Gen in
  let* rb_ix = int_range 0 3 in
  let* votes = flatten_l (List.map (fun s -> map (fun no -> (s, no)) (frequencyl [ (4, false); (1, true) ])) [ 1; 2; 3 ]) in
  let gen_mode =
    oneof
      [
        return Engine.Failure_plan.Before_transition;
        map (fun k -> Engine.Failure_plan.After_logging k) (int_range 0 2);
        return Engine.Failure_plan.After_transition;
      ]
  in
  let gen_crash =
    let* site = int_range 1 3 in
    let* step = int_range 0 3 in
    let* mode = gen_mode in
    return (site, step, mode)
  in
  let* n_crashes = int_range 0 2 in
  let* crashes = list_repeat n_crashes gen_crash in
  (* at most one step-crash per site, else the plan is ambiguous *)
  let crashes =
    List.fold_left
      (fun acc c ->
        if List.exists (fun (site, _, _) -> let s, _, _ = c in site = s) acc then acc else c :: acc)
      [] crashes
  in
  let* recover = bool in
  let* seed = int_range 1 100_000 in
  return (rb_ix, votes, crashes, recover, seed)

let step_crashes = List.map (fun (site, step, mode) -> Sim.Nemesis.Step_crash { site; step; mode })

let prop_runtime_always_consistent =
  Helpers.qtest ~count:150 "runtime: atomicity under random faults" gen_fault_scenario
    (fun (rb_ix, votes, crashes, recover, seed) ->
      let rb = List.nth (Lazy.force rulebooks) rb_ix in
      let plan =
        step_crashes crashes
        @
        if recover then
          List.map (fun (site, _, _) -> Sim.Nemesis.Recover { site; at = 70.0 }) crashes
        else []
      in
      let votes =
        List.filter_map (fun (s, no) -> if no then Some (s, Core.Types.No) else None) votes
      in
      let r = Engine.Runtime.run (Engine.Runtime.config ~votes ~plan ~seed rb) in
      r.Engine.Runtime.consistent)

let prop_3pc_runtime_nonblocking =
  Helpers.qtest ~count:150 "runtime: 3PC operational sites always decide" gen_fault_scenario
    (fun (rb_ix, votes, crashes, _recover, seed) ->
      (* force a 3PC rulebook; no recoveries needed for the property *)
      let rb = List.nth (Lazy.force rulebooks) (1 + (rb_ix land 1) * 2) in
      let plan = step_crashes crashes in
      let votes =
        List.filter_map (fun (s, no) -> if no then Some (s, Core.Types.No) else None) votes
      in
      let r = Engine.Runtime.run (Engine.Runtime.config ~votes ~plan ~seed rb) in
      r.Engine.Runtime.consistent && r.Engine.Runtime.all_operational_decided)

let prop_runtime_validity =
  Helpers.qtest ~count:100 "runtime: outcome respects the votes (no failures)"
    Gen.(pair (int_range 0 3) (flatten_l (List.map (fun s -> map (fun no -> (s, no)) bool) [ 1; 2; 3 ])))
    (fun (rb_ix, votes) ->
      let rb = List.nth (Lazy.force rulebooks) rb_ix in
      let any_no = List.exists snd votes in
      let votes = List.filter_map (fun (s, no) -> if no then Some (s, Core.Types.No) else None) votes in
      let r = Engine.Runtime.run (Engine.Runtime.config ~votes rb) in
      let expected = if any_no then Core.Types.Aborted else Core.Types.Committed in
      List.for_all (fun (s : Engine.Runtime.site_report) -> s.outcome = Some expected) r.Engine.Runtime.reports)

(* ------------------------------------------------------------------ *)
(* the database under random workloads and failures                    *)
(* ------------------------------------------------------------------ *)

let gen_db_scenario =
  let open Gen in
  let* seed = int_range 1 10_000 in
  let* protocol = oneofl [ Kv.Node.Two_phase; Kv.Node.Three_phase ] in
  let* n_txns = int_range 10 60 in
  let* crash = opt (pair (int_range 1 3) (float_range 5.0 60.0)) in
  let* recover = bool in
  return (seed, protocol, n_txns, crash, recover)

let prop_db_atomicity =
  Helpers.qtest ~count:40 "db: atomicity + conservation under random schedules" gen_db_scenario
    (fun (seed, protocol, n_txns, crash, recover) ->
      let accounts = 12 in
      let rng = Sim.Rng.create ~seed in
      let wl = Kv.Workload.bank rng ~n_txns ~accounts ~arrival_rate:1.5 in
      let crashes = match crash with Some (s, t) -> [ (s, t) ] | None -> [] in
      let recoveries =
        match crash with Some (s, t) when recover -> [ (s, t +. 120.0) ] | _ -> []
      in
      let cfg =
        Kv.Db.config ~n_sites:3 ~protocol ~seed ~plan:(Helpers.timed_plan ~crashes ~recoveries ())
          ~initial_data:(Kv.Workload.bank_initial ~accounts ~initial_balance:50)
          ()
      in
      let r = Kv.Db.run cfg wl in
      r.Kv.Db.atomicity_ok
      && ((not (crashes = [] || recoveries <> []))
         || r.Kv.Db.storage_totals = Kv.Workload.bank_total ~accounts ~initial_balance:50))

let suite =
  [
    prop_synthesis_yields_nonblocking;
    prop_synthesis_idempotent;
    prop_synthesis_preserves_states;
    prop_runtime_always_consistent;
    prop_3pc_runtime_nonblocking;
    prop_runtime_validity;
    prop_db_atomicity;
  ]
