(** Tests for the partition ablation: what happens when the paper's
    reliable-failure-detection assumption is violated.

    The headline negative result (well known since the paper): under a
    network partition, 3PC's termination protocol can split-brain — the
    minority side elects its own backup and decides from its local state
    while the majority decides the other way.  2PC, by contrast, merely
    blocks the orphaned side.  Skeen's assumptions exclude partitions for
    exactly this reason; these tests pin the behaviour down. *)

module R = Engine.Runtime
module FP = Engine.Failure_plan

let rb3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let rb2 = lazy (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))

(* World-level sanity: partitions drop cross-group messages and produce
   false suspicions, and heal cleanly. *)
let test_world_partition_drops () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:(fun s -> s) () in
  Sim.World.schedule_partition w ~from_t:0.0 ~until_t:50.0 [ [ 1 ]; [ 2 ] ];
  let got = ref 0 and suspected = ref [] in
  let handlers _site =
    {
      Sim.World.on_start = (fun ctx -> if ctx.Sim.World.self = 1 then Sim.World.send ctx ~dst:2 "hi");
      on_message = (fun _ ~src:_ _ -> incr got);
      on_peer_down = (fun ctx s -> suspected := (ctx.Sim.World.self, s) :: !suspected);
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check int) "message dropped" 0 !got;
  Alcotest.(check (list (pair int int))) "mutual false suspicion" [ (1, 2); (2, 1) ]
    (List.sort compare !suspected);
  Alcotest.(check int) "partition drop counted" 1
    (Sim.Metrics.counter (Sim.World.metrics w) "messages_partitioned")

let test_world_partition_heals () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:(fun s -> s) () in
  Sim.World.schedule_partition w ~from_t:0.0 ~until_t:5.0 [ [ 1 ]; [ 2 ] ];
  let ups = ref [] and got = ref 0 in
  let handlers _site =
    {
      Sim.World.on_start = (fun _ -> ());
      on_message = (fun _ ~src:_ _ -> incr got);
      on_peer_down = (fun _ _ -> ());
      on_peer_up =
        (fun ctx s ->
          ups := (ctx.Sim.World.self, s) :: !ups;
          (* the link works again *)
          Sim.World.send ctx ~dst:s "hello-again");
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check (list (pair int int))) "mutual recovery report" [ (1, 2); (2, 1) ]
    (List.sort compare !ups);
  Alcotest.(check int) "post-heal messages flow" 2 !got

let test_short_partition_invisible () =
  (* healed before the detection delay: no false suspicion fires *)
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~detection_delay:2.0 ~msg_to_string:(fun s -> s) () in
  Sim.World.schedule_partition w ~from_t:0.0 ~until_t:1.0 [ [ 1 ]; [ 2 ] ];
  let suspected = ref 0 in
  let handlers _site =
    {
      Sim.World.on_start = (fun _ -> ());
      on_message = (fun _ ~src:_ _ -> ());
      on_peer_down = (fun _ _ -> incr suspected);
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check int) "no suspicion" 0 !suspected

(* Send-time semantics: whether a message crosses a partition is decided
   the moment it is sent, not when it would be delivered.  A message
   already in flight when the partition opens still arrives (the packets
   left the site); a message sent inside the window is lost for good even
   if the network heals before its would-be delivery time. *)
let test_send_before_partition_delivered () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:(fun s -> s) () in
  (* sent at t=0, delivered ~1.05 — the window covers the delivery time only *)
  Sim.World.schedule_partition w ~from_t:0.5 ~until_t:5.0 [ [ 1 ]; [ 2 ] ];
  let got = ref 0 in
  let handlers _site =
    {
      Sim.World.on_start = (fun ctx -> if ctx.Sim.World.self = 1 then Sim.World.send ctx ~dst:2 "early");
      on_message = (fun _ ~src:_ _ -> incr got);
      on_peer_down = (fun _ _ -> ());
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check int) "in-flight message survives" 1 !got;
  Alcotest.(check int) "no partition drop" 0
    (Sim.Metrics.counter (Sim.World.metrics w) "messages_partitioned")

let test_send_during_partition_dropped () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:(fun s -> s) () in
  (* sent at t=0.5 inside the window, would-be delivery ~1.55 after the
     heal at 1.0 — still dropped, because the send happened while cut *)
  Sim.World.schedule_partition w ~from_t:0.0 ~until_t:1.0 [ [ 1 ]; [ 2 ] ];
  let got = ref 0 in
  let handlers _site =
    {
      Sim.World.on_start =
        (fun ctx ->
          if ctx.Sim.World.self = 1 then
            ignore
              (Sim.World.set_timer ctx ~delay:0.5 (fun () -> Sim.World.send ctx ~dst:2 "mid-window")));
      on_message = (fun _ ~src:_ _ -> incr got);
      on_peer_down = (fun _ _ -> ());
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check int) "mid-window message lost despite heal" 0 !got;
  Alcotest.(check int) "partition drop counted" 1
    (Sim.Metrics.counter (Sim.World.metrics w) "messages_partitioned")

(* Protocol-level ablation.  Partition the lone slave 3 away from {1,2}
   after the votes are sent but before the coordinator's precommit goes
   out (t = 1.5; the partition check happens at send time, so a window
   opening at 1.5 lets the in-flight votes through and drops the
   precommit): under 3PC both sides terminate — in opposite directions;
   under 2PC the minority blocks instead. *)
let vote_window_partition = Helpers.partition (1.5, 200.0, [ [ 1; 2 ]; [ 3 ] ])

let test_3pc_splits_brain_under_partition () =
  let r =
    R.run (R.config ~seed:1 ~plan:[ vote_window_partition ] (Lazy.force rb3))
  in
  Alcotest.(check bool) "INCONSISTENT outcome (split brain)" false r.R.consistent;
  (* majority side committed, minority aborted *)
  let outcome s = (List.nth r.R.reports (s - 1)).R.outcome in
  Alcotest.(check (option Helpers.outcome)) "site 1 committed" (Some Core.Types.Committed) (outcome 1);
  Alcotest.(check (option Helpers.outcome)) "site 2 committed" (Some Core.Types.Committed) (outcome 2);
  Alcotest.(check (option Helpers.outcome)) "site 3 aborted" (Some Core.Types.Aborted) (outcome 3)

let test_2pc_blocks_but_stays_consistent () =
  let r =
    R.run (R.config ~seed:1 ~plan:[ vote_window_partition ] (Lazy.force rb2))
  in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  let outcome s = (List.nth r.R.reports (s - 1)).R.outcome in
  Alcotest.(check (option Helpers.outcome)) "site 1 committed" (Some Core.Types.Committed) (outcome 1);
  (* the partitioned slave eventually learns the outcome after healing *)
  Alcotest.(check (option Helpers.outcome)) "site 3 resolves after heal"
    (Some Core.Types.Committed) (outcome 3)

let test_no_partition_no_difference () =
  (* a partition clause with no groups behaves like a plain run *)
  let r =
    R.run (R.config ~seed:1 ~plan:[ Helpers.partition (0.0, 0.0, []) ] (Lazy.force rb3))
  in
  Alcotest.(check bool) "consistent" true r.R.consistent;
  Alcotest.(check bool) "all decided" true r.R.all_operational_decided

let suite =
  [
    Alcotest.test_case "partition drops messages + false suspicion" `Quick
      test_world_partition_drops;
    Alcotest.test_case "partition heals" `Quick test_world_partition_heals;
    Alcotest.test_case "short partition invisible" `Quick test_short_partition_invisible;
    Alcotest.test_case "in-flight message survives partition" `Quick
      test_send_before_partition_delivered;
    Alcotest.test_case "mid-window send dropped despite heal" `Quick
      test_send_during_partition_dropped;
    Alcotest.test_case "3PC split-brain under partition (known limit)" `Quick
      test_3pc_splits_brain_under_partition;
    Alcotest.test_case "2PC blocks but stays consistent" `Quick
      test_2pc_blocks_but_stays_consistent;
    Alcotest.test_case "ablation with no partition" `Quick test_no_partition_no_difference;
  ]
