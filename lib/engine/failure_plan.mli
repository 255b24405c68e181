(** Failure injection plans: which sites crash, when, and how cleanly —
    pinned to protocol progress (a site's k-th transition, possibly
    part-way through its message sends: the paper's partially completed
    transition) or to simulation time.  Recoveries are timed. *)

type crash_mode =
  | Before_transition  (** crash before logging/acting on the transition *)
  | After_logging of int
      (** complete the forced log write, then send only the first [k]
          messages of the transition before crashing *)
  | After_transition

val pp_crash_mode : Format.formatter -> crash_mode -> unit
val show_crash_mode : crash_mode -> string
val equal_crash_mode : crash_mode -> crash_mode -> bool

type step_crash = { site : Core.Types.site; step : int; mode : crash_mode }

val pp_step_crash : Format.formatter -> step_crash -> unit

type partition_spec = { from_t : float; until_t : float; groups : Core.Types.site list list }

val pp_partition_spec : Format.formatter -> partition_spec -> unit
val equal_partition_spec : partition_spec -> partition_spec -> bool

type delay_spec = {
  d_site : Core.Types.site;
  d_from : float;
  d_until : float;
  d_extra : float;  (** added to every message touching the site in the window *)
}

val pp_delay_spec : Format.formatter -> delay_spec -> unit
val equal_delay_spec : delay_spec -> delay_spec -> bool

type window_spec = { w_site : Core.Types.site; w_from : float; w_until : float }

val pp_window_spec : Format.formatter -> window_spec -> unit
val equal_window_spec : window_spec -> window_spec -> bool

type storm_spec = {
  s_site : Core.Types.site;
  s_first : float;  (** first wave's crash time *)
  s_waves : int;
  s_period : float;  (** crash-to-crash spacing between waves *)
  s_down : float;  (** downtime per wave, [< s_period] *)
}

val pp_storm_spec : Format.formatter -> storm_spec -> unit
val equal_storm_spec : storm_spec -> storm_spec -> bool

type t = {
  step_crashes : step_crash list;
  timed_crashes : (Core.Types.site * float) list;
  recoveries : (Core.Types.site * float) list;
  move_crashes : (Core.Types.site * int) list;
      (** crash a backup after sending the first [k] Move_to messages *)
  decide_crashes : (Core.Types.site * int) list;
      (** crash a backup after sending the first [k] Decide messages *)
  partitions : partition_spec list;
  msg_faults : (int * Sim.World.msg_fault) list;
      (** the nth global send attempt suffers the paired fault *)
  disk_faults : (Core.Types.site * Sim.Disk.injection) list;
      (** storage faults armed on the site's log device *)
  delay_spikes : delay_spec list;  (** latency-spike windows *)
  stalls : window_spec list;  (** slow-site ("GC pause") windows *)
  hb_losses : window_spec list;  (** heartbeat-loss bursts *)
  acceptor_crashes : (Core.Types.site * float) list;
      (** timed crashes aimed at Paxos-Commit acceptor sites *)
  lease_faults : float list;
      (** leader-lease expiries: a standby acceptor opens a higher-ballot
          recovery round while the leader is still alive *)
  storms : storm_spec list;
      (** crash-recover storms: repeated crash/recover waves on one site,
          expanded at lowering time via {!Sim.Nemesis.storm_events} *)
}

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val none : t

val make :
  ?step_crashes:step_crash list ->
  ?timed_crashes:(Core.Types.site * float) list ->
  ?recoveries:(Core.Types.site * float) list ->
  ?move_crashes:(Core.Types.site * int) list ->
  ?decide_crashes:(Core.Types.site * int) list ->
  ?partitions:partition_spec list ->
  ?msg_faults:(int * Sim.World.msg_fault) list ->
  ?disk_faults:(Core.Types.site * Sim.Disk.injection) list ->
  ?delay_spikes:delay_spec list ->
  ?stalls:window_spec list ->
  ?hb_losses:window_spec list ->
  ?acceptor_crashes:(Core.Types.site * float) list ->
  ?lease_faults:float list ->
  ?storms:storm_spec list ->
  unit ->
  t

val crash_at_step : site:Core.Types.site -> step:int -> mode:crash_mode -> t
(** The simplest single-crash plan. *)

val find_step_crash : t -> site:Core.Types.site -> step:int -> crash_mode option
val crashing_sites : t -> Core.Types.site list

val sites : t -> Core.Types.site list
(** Every site a clause names (crashes, recoveries, partition groups,
    disk faults and detector windows), sorted, without duplicates. *)

val storm_events : storm_spec -> (Core.Types.site * float * float) list
(** [(site, crash_at, recover_at)] per wave — {!Sim.Nemesis.storm_events}
    on the spec, so runtimes lower plan storms exactly as the kv chaos
    layer lowers schedule storms. *)

val fault_count : t -> int
(** Total number of discrete faults (every clause counts, recoveries
    included) — the size a chaos counterexample is shrunk against. *)

val of_schedule : Sim.Nemesis.schedule -> t
(** Lower a generated nemesis schedule into an executable plan:
    [Step_crash] becomes a [step_crash] ([sent = None] ⇒
    [Before_transition], [Some j] ⇒ [After_logging j]), [Backup_crash]
    becomes a move/decide crash, and the rest map one-to-one. *)

val to_schedule : t -> Sim.Nemesis.schedule
(** Inverse of {!of_schedule} on its image, family-grouped in clause
    order — [of_schedule (to_schedule p) = p] for any plan without
    [After_transition] step crashes (which {!of_schedule} never emits;
    they lower, lossily, to a before-transition crash).  Lets harnesses
    that consume schedules — the kv chaos layer — replay corpus entries
    persisted as plan text. *)

exception Parse_error of string

val to_string : t -> string
(** One clause per fault, "; "-separated — e.g.
    ["crash site=1 at=3.5; msg nth=4 fault=dup"] — printable into a
    regression test and read back by {!of_string} exactly
    ([of_string (to_string p)] equals [p]). *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; clauses separated by ';' or newlines.
    Total: malformed input becomes [Error message] — what the CLI's
    [--plan] and any pasted counterexample should go through. *)

val of_string_exn : string -> t
(** As {!of_string} but raising {!Parse_error} — for pinned plans in
    tests where a parse failure is itself the test failure. *)

val unsupported_clauses : protocol:string -> t -> string list
(** Clauses the named protocol family cannot execute, one human-readable
    message each: [move-crash] needs a 3PC protocol, [decide-crash]
    needs 3PC or Paxos Commit, [acceptor-crash]/[lease-fault] need Paxos
    Commit.  Empty means every clause in the plan is runnable — what the
    CLI's [--plan] checks before launching a run. *)
