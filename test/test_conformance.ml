(** Conformance pin for {!Engine.Runtime}'s FSA interpreter.

    Each configuration below (the central and decentralized 2PC and 3PC
    at n = 3 and 4, quorum termination, a group-commit log with sync
    latency, the timeout detector, and one protocol with a genuine choice
    of transition) runs once fault-free and then under the plans of
    {!Engine.Chaos.schedule} seeds 0-199 (two faults each), traced.
    Every run is hashed over its rendered trace (exact timestamps), its
    site reports, its leadership epochs and its deterministic metrics;
    the hashes of one configuration's 201 runs are hashed again into the
    digest pinned here.  The digests were captured from the
    string-interpreting runtime (site states as strings, a sorted message
    multiset per inbox), so the int-coded interpreter that replaced it
    must reproduce every run byte for byte: which transition fires, what
    is logged and sent, and when. *)

module R = Engine.Runtime
module C = Engine.Chaos

let seeds = 200

let render_report (s : R.site_report) =
  let outcome = function
    | None -> "-"
    | Some Core.Types.Committed -> "C"
    | Some Core.Types.Aborted -> "A"
  in
  Fmt.str "site=%d outcome=%s wal=%s state=%s up=%b crashed=%b at=%s yes=%b announced=%s"
    s.R.site (outcome s.R.outcome) (outcome s.R.wal_outcome) s.R.final_state s.R.operational
    s.R.ever_crashed
    (match s.R.decided_at with None -> "-" | Some t -> Fmt.str "%h" t)
    s.R.sent_yes (outcome s.R.announced)

let run_digest (r : R.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Sim.World.trace_entry) ->
      Buffer.add_string b (Fmt.str "%h  %s\n" e.Sim.World.at e.Sim.World.what))
    r.R.trace;
  List.iter (fun s -> Buffer.add_string b (render_report s ^ "\n")) r.R.reports;
  List.iter (fun (s, e) -> Buffer.add_string b (Fmt.str "epoch %d %d\n" s e)) r.R.directive_epochs;
  Buffer.add_string b (Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true r.R.run_metrics));
  Digest.string (Buffer.contents b)

let config ?(termination = R.Skeen) ?(sync_latency = 0.0) ?group_commit ?(detector = false)
    protocol =
  R.config ~until:C.stall_budget ~termination ~sync_latency ?group_commit ~detector ~tracing:true
    (Engine.Rulebook.compile protocol)

let config_digest cfg =
  let t = C.target cfg in
  let runs =
    R.run cfg
    :: List.init seeds (fun seed ->
           let plan = Engine.Failure_plan.of_schedule (C.schedule t ~k:2 ~seed) in
           R.run { cfg with plan; seed })
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map run_digest runs)))

(* Central 2PC whose coordinator's veto is not a vote: with every yes
   vote in, its commit and abort transitions are both enabled and both
   allowed, so the run pins the tie-break itself (the first transition in
   {!Core.Automaton.transitions_from} order fires). *)
let unvoted_veto_2pc =
  let base = Core.Catalog.central_2pc 3 in
  let coord = Core.Protocol.automaton base 1 in
  let unvote (tr : Core.Automaton.transition) =
    if tr.Core.Automaton.vote = Some Core.Types.No then { tr with Core.Automaton.vote = None }
    else tr
  in
  Core.Protocol.make ~name:"central-2pc-unvoted-veto-3" ~paradigm:Core.Protocol.Central_site
    ~automata:
      (Array.init 3 (fun i ->
           if i = 0 then
             Core.Automaton.make ~site:1 ~states:coord.Core.Automaton.states
               ~initial:coord.Core.Automaton.initial
               ~transitions:(List.map unvote coord.Core.Automaton.transitions)
           else Core.Protocol.automaton base (i + 1)))
    ~initial_network:base.Core.Protocol.initial_network

let pinned =
  let c2 = Core.Catalog.central_2pc and c3 = Core.Catalog.central_3pc in
  let d2 = Core.Catalog.decentralized_2pc and d3 = Core.Catalog.decentralized_3pc in
  let q2 = R.Quorum in
  [
    ("central-2pc n=3", config (c2 3), "800ac6e1cbebc7bce2ea3cb0ecdd2af5");
    ("central-2pc n=4", config (c2 4), "2c1bd338e8b94f9690813f966b1199e2");
    ("central-3pc n=3", config (c3 3), "a5b77c3050d9824cfaf5db1410e70d8e");
    ("central-3pc n=4", config (c3 4), "5e511d790716d610a24c514f5800eb0e");
    ("decentralized-2pc n=3", config (d2 3), "a09267b0ac8d3316e62c7f5cfa42c522");
    ("decentralized-2pc n=4", config (d2 4), "5b8257fb2bfb62fc354b8812eaaeb81c");
    ("decentralized-3pc n=3", config (d3 3), "6cc628019ff17bdd39b4dcf950ad5aab");
    ("decentralized-3pc n=4", config (d3 4), "ac16f0e31838c049c8d1542c8afd1dbb");
    ("central-2pc n=3 quorum 2", config ~termination:q2 (c2 3), "e96e39d6e9fcc3cc3314d92318c9ce12");
    ("central-3pc n=3 quorum 2", config ~termination:q2 (c3 3), "898bd721224ddf91e8e1fed4d022fc1a");
    ("central-2pc n=3 unvoted veto", config unvoted_veto_2pc, "ecfaa37e099c87ebee062c5f9102b865");
    ( "central-3pc n=3 group commit, sync latency 0.5",
      config ~sync_latency:0.5 ~group_commit:{ Engine.Wal.max_batch = 2; max_wait = 0.2 } (c3 3),
      "4c2ad70a3faa169be761d533cee66ae8" );
    ("central-3pc n=3 detector", config ~detector:true (c3 3), "3f223bc68d29b476743975ac5ad06a71");
  ]

let test_pinned () =
  Alcotest.(check (list (pair string string)))
    "per-protocol digests"
    (List.map (fun (name, _, expected) -> (name, expected)) pinned)
    (List.map (fun (name, cfg, _) -> (name, config_digest cfg)) pinned)

let suite = [ Alcotest.test_case "traced runs match the string interpreter" `Quick test_pinned ]
