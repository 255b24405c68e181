(** The fault vocabulary and randomized schedule generation: seeded,
    discrete, shrinkable, printable.

    A schedule composes timed crashes with optional recoveries,
    protocol-step-pinned crashes (interpreted by the engine layer),
    backup-phase crashes, at most one partition window, and message-level
    faults keyed by global send index.  Generation is a pure function of
    the {!Rng.t} handed in — same stream, same schedule, byte for byte —
    and the generated crash incidents never exceed [k] concurrent
    failures (step-pinned crashes are conservatively treated as down from
    time 0). *)

type backup_phase = Move | Decide

type crash_mode =
  | Before_transition  (** crash before logging/acting on the transition *)
  | After_logging of int
      (** complete the forced log write, then send only the first [k]
          messages of the transition before crashing *)
  | After_transition  (** crash after the transition completes fully *)

val pp_crash_mode : Format.formatter -> crash_mode -> unit

type fault =
  | Crash of { site : int; at : float }
  | Step_crash of { site : int; step : int; mode : crash_mode }
      (** crash at the site's [step]-th protocol transition (0-based),
          in [mode] *)
  | Backup_crash of { site : int; phase : backup_phase; sent : int }
      (** crash mid-broadcast while acting as elected backup *)
  | Recover of { site : int; at : float }
  | Partition of { from_t : float; until_t : float; groups : int list list }
  | Msg of { nth : int; fault : World.msg_fault }
  | Disk_fault of { site : int; fault : Disk.fault; nth : int }
      (** storage fault on the site's log device: [Torn]/[Corrupt] fire
          at the disk's [nth] crash, [Lost_flush] at its [nth] sync *)
  | Delay_window of { site : int; from_t : float; until_t : float; extra : float }
      (** latency spike on every message touching [site] in the window *)
  | Stall of { site : int; from_t : float; until_t : float }
      (** "GC pause": the site freezes for the window — alive but silent *)
  | Hb_loss of { site : int; from_t : float; until_t : float }
      (** detector heartbeats from [site] suppressed; protocol traffic
          untouched — the canonical false-suspicion provocation *)
  | Acceptor_crash of { site : int; at : float }
      (** timed crash aimed at a Paxos-Commit acceptor site — a [Crash]
          semantically, distinct so sweeps and the CLI family check can
          target the replicated coordinator state *)
  | Lease_fault of { at : float }
      (** leader-lease expiry: a standby acceptor opens a higher-ballot
          recovery round while the leader is still alive *)
  | Storm of { site : int; first : float; waves : int; period : float; down : float }
      (** crash-recover storm: [waves] crash/recover cycles on one site —
          wave [i] crashes at [first + i*period], recovers [down] seconds
          later ([down < period]).  One discrete fault: shrinking drops
          the whole storm, {!install} expands it via {!storm_events}. *)

val equal_fault : fault -> fault -> bool

type schedule = fault list

val equal_schedule : schedule -> schedule -> bool

type profile = {
  horizon : float;
  p_step_crash : float;
  p_backup_crash : float;
  p_recover : float;
  recover_delay_min : float;
  recover_delay_max : float;
  max_steps : int;
  max_msg_faults : int;
  send_window : int;
  dup_weight : int;
  delay_weight : int;
  drop_weight : int;
  delay_max : float;
  p_partition : float;
  partition_min_len : float;
  partition_max_len : float;
  p_disk_fault : float;
      (** probability a crash incident carries a storage fault on the
          crashing site's log device; when 0 (the default) generation
          draws nothing extra from the stream, keeping schedules
          byte-identical to a disk-fault-free profile *)
  torn_weight : int;
  corrupt_weight : int;
  lost_flush_weight : int;
      (** relative weights of the three {!Disk.fault} kinds; lost
          flushes default to 0 — a lying sync violates the paper's
          stable-storage axiom, so they are ablation-only, like drops *)
  disk_sync_window : int;
  p_delay_spike : float;
      (** probability of one latency-spike window; 0 (the default) draws
          nothing from the stream — the [p_disk_fault] replay discipline *)
  spike_extra_min : float;
  spike_extra_max : float;
  p_stall : float;  (** probability of one slow-site ("GC pause") window; default 0 *)
  p_hb_loss : float;  (** probability of one heartbeat-loss burst; default 0 *)
  detector_window_min : float;
  detector_window_max : float;
  p_acceptor_crash : float;
      (** per-candidate probability an acceptor site crashes; 0 (the
          default) draws nothing from the stream — the [p_disk_fault]
          replay discipline *)
  acceptor_sites : int list;  (** candidate acceptor sites; empty disables *)
  max_acceptor_crashes : int;  (** cap per schedule — sweeps set it to the Paxos F *)
  p_lease_fault : float;  (** probability of one leader-lease expiry; default 0 *)
  p_storm : float;
      (** probability of one crash-recover storm; 0 (the default) draws
          nothing from the stream — the [p_disk_fault] replay discipline *)
  storm_waves_min : int;
  storm_waves_max : int;
  storm_period_min : float;
  storm_period_max : float;
  storm_down_frac_min : float;
  storm_down_frac_max : float;
      (** each wave's downtime is [frac * period] with [frac] drawn from
          this range; keeping [frac < 1] guarantees the site is back up
          before the next wave crashes it *)
}

val default_profile : profile
(** Crashes (timed, step-pinned, backup-pinned) with recoveries, plus
    duplicate and extra-delay message faults.  Message drops and
    partitions are OFF: both violate the paper's network assumptions, so
    they belong to ablation profiles ([drop_weight > 0],
    [p_partition > 0]), not the correctness profile. *)

val detector_faults : profile -> profile
(** [base] plus the faults that provoke false suspicion without killing
    any site: latency-spike windows (1–3.5 s extra), stall ("GC pause")
    windows and heartbeat-loss bursts, each 4–14 s long. *)

val generate : Rng.t -> n_sites:int -> k:int -> profile -> schedule
(** Deterministic in the stream: crash incidents hit distinct sites and
    stay within [k] concurrent failures. *)

val interval : fault -> (float * float) option
(** Conservative down-interval of a crash fault ([None] for recoveries,
    partitions and message faults); exposed for the ≤ k bound tests.  A
    storm's interval is its whole envelope — first crash to last
    recovery — so the ≤ k bound holds even mid-storm. *)

val storm_events : fault -> (int * float * float) list
(** [(site, crash_at, recover_at)] per wave of a [Storm]; [[]] for every
    other fault. *)

(** {1 Installing a schedule} *)

val install : 'msg World.t -> schedule -> unit
(** Arm every time-pinned fault on the world: timed and acceptor
    crashes, recoveries, storms (expanded by {!storm_events}),
    partitions, message faults, latency spikes, stalls and
    heartbeat-loss windows.  They go in by one fixed family rank, in
    that order, and within a family in list order; the rank shows only
    when two faults fire at the same instant.  Step and backup crashes,
    disk faults and lease faults belong to the harness that runs the
    protocol and its log: it reads them off the list. *)

val disk_faults : schedule -> (int * Disk.injection) list
(** The [Disk_fault] clauses as [(site, injection)], in list order. *)

val crash_times : schedule -> (int * float) list
(** [(site, at)] for every timed crash: [Crash], [Acceptor_crash] and
    each storm wave. *)

val recovery_times : schedule -> (int * float) list
(** [(site, at)] for every [Recover] and each storm wave's recovery. *)

(** {1 Text} *)

val to_string : schedule -> string
(** One clause per fault in list order, "; "-separated, floats as
    [%.17g] — e.g. ["crash site=1 at=3.5; msg nth=4 fault=dup"].
    {!of_string} reads it back exactly. *)

val pp : Format.formatter -> schedule -> unit
(** {!to_string}. *)

exception Parse_error of string

val of_string : string -> (schedule, string) result
(** Inverse of {!to_string}, in text order; clauses are separated by
    ';' or newlines.  Total: malformed input is [Error message]. *)

val of_string_exn : string -> schedule
(** As {!of_string} but raising {!Parse_error}. *)
