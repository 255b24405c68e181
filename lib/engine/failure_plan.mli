(** Failure injection plans: a {!Sim.Nemesis.schedule} in clause order —
    which sites crash, when, and how cleanly, pinned to protocol progress
    (a site's k-th transition, possibly part-way through its message
    sends: the paper's partially completed transition) or to simulation
    time, plus the network, storage and detector faults. *)

type crash_mode = Sim.Nemesis.crash_mode =
  | Before_transition  (** crash before logging/acting on the transition *)
  | After_logging of int
      (** complete the forced log write, then send only the first [k]
          messages of the transition before crashing *)
  | After_transition  (** crash after the transition completes fully *)

val pp_crash_mode : Format.formatter -> crash_mode -> unit

type t = Sim.Nemesis.schedule

val pp : Format.formatter -> t -> unit
(** {!to_string}. *)

val equal : t -> t -> bool
val none : t

val of_schedule : Sim.Nemesis.schedule -> t
(** A stable sort into clause order: step crashes, timed crashes,
    recoveries, move crashes, decide crashes, partitions, message
    faults, disk faults, delay spikes, stalls, heartbeat losses,
    acceptor crashes, lease faults, storms.  Within a family, the
    schedule's order is kept.  Idempotent. *)

val crash_at_step : site:Core.Types.site -> step:int -> mode:crash_mode -> t
(** The simplest single-crash plan. *)

val find_step_crash : t -> site:Core.Types.site -> step:int -> crash_mode option
(** The mode of the first step crash pinned to [site]'s [step]-th
    transition. *)

val backup_crash : t -> site:Core.Types.site -> phase:Sim.Nemesis.backup_phase -> int option
(** [sent] of the first backup crash on [site] in [phase]: crash the
    backup after sending that many of the phase's messages. *)

val crashing_sites : t -> Core.Types.site list

val sites : t -> Core.Types.site list
(** Every site a clause names (crashes, recoveries, partition groups,
    disk faults and detector windows), sorted, without duplicates. *)

val fault_count : t -> int
(** Total number of discrete faults (every clause counts, recoveries
    included) — the size a chaos counterexample is shrunk against. *)

exception Parse_error of string

val to_string : t -> string
(** {!Sim.Nemesis.to_string}: one clause per fault, "; "-separated —
    e.g. ["crash site=1 at=3.5; msg nth=4 fault=dup"] — printable into a
    regression test and read back by {!of_string} exactly. *)

val of_string : string -> (t, string) result
(** {!Sim.Nemesis.of_string}, then {!of_schedule}.  Total: malformed
    input becomes [Error message] — what the CLI's [--plan] and any
    pasted counterexample should go through. *)

val of_string_exn : string -> t
(** As {!of_string} but raising {!Parse_error} — for pinned plans in
    tests where a parse failure is itself the test failure. *)

val unsupported_clauses : protocol:string -> t -> string list
(** Clauses the named protocol family cannot execute, one human-readable
    message each: [move-crash] needs a 3PC protocol, [decide-crash]
    needs 3PC or Paxos Commit, [acceptor-crash]/[lease-fault] need Paxos
    Commit.  Empty means every clause in the plan is runnable — what the
    CLI's [--plan] checks before launching a run. *)
