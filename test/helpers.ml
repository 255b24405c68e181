(** Shared alcotest testables and small utilities for the test suites. *)

let msg : Core.Message.t Alcotest.testable =
  Alcotest.testable Core.Message.pp Core.Message.equal

let outcome : Core.Types.outcome Alcotest.testable =
  Alcotest.testable Core.Types.pp_outcome Core.Types.equal_outcome

let state_kind : Core.Types.state_kind Alcotest.testable =
  Alcotest.testable Core.Types.pp_state_kind Core.Types.equal_state_kind

let verdict : Engine.Rulebook.verdict Alcotest.testable =
  Alcotest.testable Engine.Rulebook.pp_verdict Engine.Rulebook.equal_verdict

let lock_outcome : Kv.Lock_table.outcome Alcotest.testable =
  Alcotest.testable Kv.Lock_table.pp_outcome Kv.Lock_table.equal_outcome

let sorted_strings l = List.sort_uniq compare l

(** merged concurrency set of [state] as a sorted string list *)
let cs_ids graph state =
  let cs = Core.Concurrency.compute graph in
  Core.Concurrency.String_set.elements (Core.Concurrency.merged_ids cs ~state)

let graph_of protocol = Core.Reachability.build protocol

let check_sorted_list name = Alcotest.(check (list string)) name

(** Quick constructor for qcheck tests registered as alcotest cases. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(** A plan of timed crashes and recoveries, [(site, at)] each. *)
let timed_plan ?(crashes = []) ?(recoveries = []) () =
  List.map (fun (site, at) -> Sim.Nemesis.Crash { site; at }) crashes
  @ List.map (fun (site, at) -> Sim.Nemesis.Recover { site; at }) recoveries

(** A partition clause: [groups] cut apart from [from_t] to [until_t]. *)
let partition (from_t, until_t, groups) = Sim.Nemesis.Partition { from_t; until_t; groups }
