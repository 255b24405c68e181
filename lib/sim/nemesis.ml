(** Randomized fault-schedule generation.

    A nemesis schedule is a list of discrete faults — timed crashes with
    optional recoveries, protocol-step-pinned crashes (interpreted by the
    engine layer), backup-phase crashes, partitions with heals, and
    message-level faults keyed by global send index ({!World.msg_fault}).
    Discreteness is the point: a schedule shrinks by dropping one fault at
    a time, and it round-trips through text, so a minimal counterexample
    can be pasted into a regression test.

    Generation is a pure function of the {!Rng.t} handed in: the same
    stream yields the same schedule, byte for byte. *)

type backup_phase = Move | Decide [@@deriving show { with_path = false }, eq]

type fault =
  | Crash of { site : int; at : float }
  | Step_crash of { site : int; step : int; sent : int option }
      (** crash while executing the [step]-th protocol transition; [sent]
          is how many of the transition's messages were sent after the
          forced log write ([None] = before the write).  Interpreted by
          the engine layer; sim-only drivers ignore it. *)
  | Backup_crash of { site : int; phase : backup_phase; sent : int }
      (** crash while acting as elected backup, mid-broadcast of the
          termination protocol's phase-1 moves or phase-2 decides *)
  | Recover of { site : int; at : float }
  | Partition of { from_t : float; until_t : float; groups : int list list }
  | Msg of { nth : int; fault : World.msg_fault }
  | Disk_fault of { site : int; fault : Disk.fault; nth : int }
      (** storage fault on the site's log device: [Torn]/[Corrupt] fire
          at the disk's [nth] crash, [Lost_flush] at its [nth] sync *)
  | Delay_window of { site : int; from_t : float; until_t : float; extra : float }
      (** latency spike: every message touching [site] in the window gets
          [extra] added on top of its normal draw *)
  | Stall of { site : int; from_t : float; until_t : float }
      (** "GC pause": the site's processor freezes for the window — alive
          but silent, the canonical false-suspicion provocation *)
  | Hb_loss of { site : int; from_t : float; until_t : float }
      (** heartbeat-loss burst: the site's detector heartbeats are
          suppressed while protocol traffic flows untouched *)
  | Acceptor_crash of { site : int; at : float }
      (** timed crash aimed at a Paxos-Commit acceptor site: semantically
          a [Crash], kept distinct so acceptor-targeted sweeps (and the
          family validation in the CLI) can tell replicated-state faults
          from ordinary participant crashes *)
  | Lease_fault of { at : float }
      (** leader-lease expiry at [at]: a standby acceptor starts a
          higher-ballot recovery round even though the current leader is
          alive — exercising ballot fencing the way stale-epoch
          directives exercise epoch fencing *)
  | Storm of { site : int; first : float; waves : int; period : float; down : float }
      (** crash-recover storm: [waves] crash/recover cycles on one site —
          wave [i] crashes at [first + i*period] and recovers [down]
          seconds later ([down < period], so the site is up between
          waves and up at the end).  A single discrete fault, so
          shrinking drops the whole storm at once; lowering expands it
          to timed crash/recover pairs ({!storm_events}). *)
[@@deriving show { with_path = false }, eq]

type schedule = fault list [@@deriving show { with_path = false }, eq]

type profile = {
  horizon : float;  (** timed crashes land in [0, horizon) *)
  p_step_crash : float;  (** a crash incident is step-pinned rather than timed *)
  p_backup_crash : float;  (** ... or pinned to the backup's own broadcasts *)
  p_recover : float;  (** a crashed site later recovers *)
  recover_delay_min : float;
  recover_delay_max : float;
  max_steps : int;  (** step-pinned crashes draw their step from [0, max_steps) *)
  max_msg_faults : int;
  send_window : int;  (** message-fault indices are drawn from [0, send_window) *)
  dup_weight : int;
  delay_weight : int;
  drop_weight : int;
      (** relative weights for duplicate / extra-delay / drop message
          faults.  Drops default to 0: dropping a message violates the
          paper's reliable-network assumption outright, so they are
          opt-in for ablation profiles, like partitions. *)
  delay_max : float;  (** extra delay drawn from (0, delay_max] *)
  p_partition : float;
      (** probability the schedule includes one partition window.
          Default 0: under partitions the Skeen termination rule is
          *known* to split-brain (ablation E13), so partition chaos is an
          ablation profile, not a correctness profile. *)
  partition_min_len : float;
  partition_max_len : float;
  p_disk_fault : float;
      (** probability a crash incident carries a storage fault on the
          crashing site's log device.  Default 0 — and generation draws
          nothing from the stream when 0, so schedules (and everything
          downstream of them) are byte-identical to a profile without
          disk faults. *)
  torn_weight : int;
  corrupt_weight : int;
  lost_flush_weight : int;
      (** relative weights of the three {!Disk.fault} kinds.  Lost
          flushes default to 0: a lying sync violates the paper's
          stable-storage axiom outright, so they are opt-in for ablation
          profiles, exactly like message drops. *)
  disk_sync_window : int;  (** [Lost_flush] sync indices are drawn from [0, disk_sync_window) *)
  p_delay_spike : float;
      (** probability the schedule includes one latency-spike window.
          Default 0 — and generation draws nothing from the stream when
          0, so detector-era profiles leave earlier schedules
          byte-identical (the same discipline as [p_disk_fault]). *)
  spike_extra_min : float;
  spike_extra_max : float;  (** extra latency drawn from [spike_extra_min, spike_extra_max) *)
  p_stall : float;  (** probability of one slow-site ("GC pause") stall window; default 0 *)
  p_hb_loss : float;  (** probability of one heartbeat-loss burst; default 0 *)
  detector_window_min : float;
  detector_window_max : float;
      (** spike/stall/heartbeat-loss window lengths are drawn from
          [detector_window_min, detector_window_max) *)
  p_acceptor_crash : float;
      (** per-candidate probability an acceptor site crashes.  Default 0
          — and generation draws nothing from the stream when 0, the
          same replay discipline as [p_disk_fault]. *)
  acceptor_sites : int list;
      (** the candidate acceptor sites acceptor crashes are drawn from;
          empty (the default) disables them regardless of probability *)
  max_acceptor_crashes : int;
      (** at most this many acceptor crashes per schedule — sweeps set
          it to the Paxos F so generated schedules stay survivable *)
  p_lease_fault : float;
      (** probability of one leader-lease expiry; default 0 (zero draws) *)
  p_storm : float;
      (** probability of one crash-recover storm.  Default 0 — and
          generation draws nothing from the stream when 0, the same
          replay discipline as [p_disk_fault]: every pre-storm schedule
          replays byte-identically. *)
  storm_waves_min : int;
  storm_waves_max : int;  (** wave count drawn from [storm_waves_min, storm_waves_max] *)
  storm_period_min : float;
  storm_period_max : float;  (** crash-to-crash period drawn from [storm_period_min, storm_period_max) *)
  storm_down_frac_min : float;
  storm_down_frac_max : float;
      (** each wave's downtime is this fraction of the period, drawn from
          [storm_down_frac_min, storm_down_frac_max) — strictly below 1
          so the site is up between waves and after the last one *)
}

let default_profile =
  {
    horizon = 12.0;
    p_step_crash = 0.35;
    p_backup_crash = 0.15;
    p_recover = 0.6;
    recover_delay_min = 5.0;
    recover_delay_max = 80.0;
    max_steps = 5;
    max_msg_faults = 3;
    send_window = 40;
    dup_weight = 3;
    delay_weight = 3;
    drop_weight = 0;
    delay_max = 8.0;
    p_partition = 0.0;
    partition_min_len = 5.0;
    partition_max_len = 40.0;
    p_disk_fault = 0.0;
    torn_weight = 1;
    corrupt_weight = 1;
    lost_flush_weight = 0;
    disk_sync_window = 16;
    p_delay_spike = 0.0;
    spike_extra_min = 2.0;
    spike_extra_max = 12.0;
    p_stall = 0.0;
    p_hb_loss = 0.0;
    detector_window_min = 4.0;
    detector_window_max = 15.0;
    p_acceptor_crash = 0.0;
    acceptor_sites = [];
    max_acceptor_crashes = 0;
    p_lease_fault = 0.0;
    p_storm = 0.0;
    storm_waves_min = 2;
    storm_waves_max = 4;
    storm_period_min = 60.0;
    storm_period_max = 160.0;
    storm_down_frac_min = 0.25;
    storm_down_frac_max = 0.75;
  }

let detector_faults base =
  {
    base with
    p_delay_spike = 0.4;
    spike_extra_min = 1.0;
    spike_extra_max = 3.5;
    p_stall = 0.45;
    p_hb_loss = 0.5;
    detector_window_min = 4.0;
    detector_window_max = 14.0;
  }

(* The (site, crash_at, recover_at) events a storm expands to at lowering
   time; [] for every other fault. *)
let storm_events = function
  | Storm { site; first; waves; period; down } ->
      List.init waves (fun i ->
          let at = first +. (float_of_int i *. period) in
          (site, at, at +. down))
  | Crash _ | Step_crash _ | Backup_crash _ | Recover _ | Partition _ | Msg _ | Disk_fault _
  | Delay_window _ | Stall _ | Hb_loss _ | Acceptor_crash _ | Lease_fault _ ->
      []

(* Conservative activity interval of a crash incident, for the ≤ k
   concurrent-failures bound: step- and backup-pinned crashes have no
   a-priori firing time, so they are treated as down from time 0. *)
let interval = function
  | Crash { at; _ } | Acceptor_crash { at; _ } -> Some (at, infinity)
  | Step_crash _ | Backup_crash _ -> Some (0.0, infinity)
  | Storm { first; waves; period; down; _ } ->
      (* whole-envelope: the site is intermittently down from the first
         crash to the last recovery; treating the envelope as solid keeps
         the ≤ k bound conservative *)
      Some (first, first +. (float_of_int (waves - 1) *. period) +. down)
  | Recover _ | Partition _ | Msg _ | Disk_fault _ | Delay_window _ | Stall _ | Hb_loss _
  | Lease_fault _ ->
      None

let close_interval recovery_at = function
  | Some (from_t, _) -> Some (from_t, recovery_at)
  | None -> None

let overlaps (a0, a1) (b0, b1) = a0 < b1 && b0 < a1

(* Would adding [iv] push some instant above [k] concurrent failures? *)
let fits_k k existing iv =
  let concurrent = List.filter (fun iv' -> overlaps iv iv') existing in
  List.length concurrent < k

let gen_crash_incident rng ~n_sites ~site profile =
  let kind =
    let x = Rng.float rng 1.0 in
    if x < profile.p_step_crash then `Step
    else if x < profile.p_step_crash +. profile.p_backup_crash then `Backup
    else `Timed
  in
  let crash =
    match kind with
    | `Timed -> Crash { site; at = Rng.float rng profile.horizon }
    | `Step ->
        let step = Rng.int rng profile.max_steps in
        let sent = if Rng.bool rng then None else Some (Rng.int rng (n_sites + 1)) in
        Step_crash { site; step; sent }
    | `Backup ->
        let phase = if Rng.bool rng then Move else Decide in
        Backup_crash { site; phase; sent = Rng.int rng n_sites }
  in
  let recovery =
    if Rng.flip rng ~p:profile.p_recover then begin
      let base = match crash with Crash { at; _ } -> at | _ -> profile.horizon in
      let delay =
        profile.recover_delay_min
        +. Rng.float rng (profile.recover_delay_max -. profile.recover_delay_min)
      in
      Some (Recover { site; at = base +. delay })
    end
    else None
  in
  (* The [p_disk_fault > 0.0] short-circuit is load-bearing: with disk
     faults off this consumes zero draws, so the stream — and every
     schedule generated from it — is byte-identical to before the
     durability layer existed. *)
  let disk =
    let total = profile.torn_weight + profile.corrupt_weight + profile.lost_flush_weight in
    if profile.p_disk_fault > 0.0 && total > 0 && Rng.flip rng ~p:profile.p_disk_fault then begin
      let x = Rng.int rng total in
      if x < profile.torn_weight then
        (* this site's first crash of the run — the incident's own *)
        Some (Disk_fault { site; fault = Disk.Torn; nth = 0 })
      else if x < profile.torn_weight + profile.corrupt_weight then
        Some (Disk_fault { site; fault = Disk.Corrupt; nth = 0 })
      else
        Some (Disk_fault { site; fault = Disk.Lost_flush; nth = Rng.int rng profile.disk_sync_window })
    end
    else None
  in
  (crash, recovery, disk)

let gen_msg_fault rng profile =
  let total = profile.dup_weight + profile.delay_weight + profile.drop_weight in
  if total = 0 then None
  else begin
    let nth = Rng.int rng profile.send_window in
    let x = Rng.int rng total in
    let fault =
      if x < profile.dup_weight then World.Fault_duplicate
      else if x < profile.dup_weight + profile.delay_weight then
        World.Fault_delay (0.25 +. Rng.float rng profile.delay_max)
      else World.Fault_drop
    in
    Some (Msg { nth; fault })
  end

let gen_partition rng ~n_sites profile =
  if n_sites < 2 || not (Rng.flip rng ~p:profile.p_partition) then None
  else begin
    let from_t = Rng.float rng profile.horizon in
    let len =
      profile.partition_min_len
      +. Rng.float rng (profile.partition_max_len -. profile.partition_min_len)
    in
    (* isolate one site from the rest — the minimal, and per the paper the
       canonical, partition shape *)
    let isolated = 1 + Rng.int rng n_sites in
    let rest = List.filter (fun s -> s <> isolated) (List.init n_sites (fun i -> i + 1)) in
    Some (Partition { from_t; until_t = from_t +. len; groups = [ [ isolated ]; rest ] })
  end

(* One detector-fault window.  Each [p_X > 0.0] guard is load-bearing,
   like [p_disk_fault]'s: with the knob at its default 0 the generator
   consumes zero draws, so pre-detector schedules replay byte-identically. *)
let gen_window rng ~n_sites ~p profile =
  if p > 0.0 && Rng.flip rng ~p then begin
    let site = 1 + Rng.int rng n_sites in
    let from_t = Rng.float rng profile.horizon in
    let len =
      profile.detector_window_min
      +. Rng.float rng (profile.detector_window_max -. profile.detector_window_min)
    in
    Some (site, from_t, from_t +. len)
  end
  else None

let gen_delay_spike rng ~n_sites profile =
  match gen_window rng ~n_sites ~p:profile.p_delay_spike profile with
  | Some (site, from_t, until_t) ->
      let extra =
        profile.spike_extra_min
        +. Rng.float rng (profile.spike_extra_max -. profile.spike_extra_min)
      in
      Some (Delay_window { site; from_t; until_t; extra })
  | None -> None

let gen_stall rng ~n_sites profile =
  match gen_window rng ~n_sites ~p:profile.p_stall profile with
  | Some (site, from_t, until_t) -> Some (Stall { site; from_t; until_t })
  | None -> None

let gen_hb_loss rng ~n_sites profile =
  match gen_window rng ~n_sites ~p:profile.p_hb_loss profile with
  | Some (site, from_t, until_t) -> Some (Hb_loss { site; from_t; until_t })
  | None -> None

let generate rng ~n_sites ~k profile =
  if n_sites < 1 then invalid_arg "Nemesis.generate: need at least one site";
  if k < 0 then invalid_arg "Nemesis.generate: k must be >= 0";
  let n_incidents = if k = 0 then 0 else Rng.int rng (k + 2) in
  let sites = Rng.shuffle rng (List.init n_sites (fun i -> i + 1)) in
  let rec build taken intervals = function
    | [] -> ([], intervals)
    | _ when taken >= n_incidents -> ([], intervals)
    | site :: rest ->
        let crash, recovery, disk = gen_crash_incident rng ~n_sites ~site profile in
        let iv =
          match recovery with
          | Some (Recover { at; _ }) -> close_interval at (interval crash)
          | _ -> interval crash
        in
        let keep = match iv with None -> false | Some iv -> fits_k k intervals iv in
        if keep then
          let faults = (crash :: Option.to_list disk) @ Option.to_list recovery in
          let rest_faults, intervals =
            build (taken + 1)
              (match iv with Some iv -> iv :: intervals | None -> intervals)
              rest
          in
          (faults @ rest_faults, intervals)
        else build taken intervals rest
  in
  let crashes, crash_intervals = build 0 [] sites in
  let msg_faults =
    let m = Rng.int rng (profile.max_msg_faults + 1) in
    List.filter_map (fun _ -> gen_msg_fault rng profile) (List.init m Fun.id)
  in
  let partition = Option.to_list (gen_partition rng ~n_sites profile) in
  (* detector-fault draws come last so the stream prefix — and therefore
     every pre-detector schedule — is unchanged when the knobs are 0 *)
  let detector_faults =
    Option.to_list (gen_delay_spike rng ~n_sites profile)
    @ Option.to_list (gen_stall rng ~n_sites profile)
    @ Option.to_list (gen_hb_loss rng ~n_sites profile)
  in
  (* Paxos-fault draws come after everything else for the same reason the
     detector draws come after the crash draws: with the knobs at their
     default 0 this consumes nothing, so every earlier schedule — pinned
     seeds included — replays byte-identically with the Paxos code
     compiled in but unselected. *)
  let paxos_faults =
    let acceptor_crashes =
      if profile.p_acceptor_crash > 0.0 && profile.acceptor_sites <> []
         && profile.max_acceptor_crashes > 0
      then begin
        let order = Rng.shuffle rng profile.acceptor_sites in
        let rec take budget = function
          | [] -> []
          | _ when budget = 0 -> []
          | site :: rest ->
              if Rng.flip rng ~p:profile.p_acceptor_crash then
                Acceptor_crash { site; at = Rng.float rng profile.horizon }
                :: take (budget - 1) rest
              else take budget rest
        in
        take profile.max_acceptor_crashes order
      end
      else []
    in
    let lease =
      if profile.p_lease_fault > 0.0 && Rng.flip rng ~p:profile.p_lease_fault then
        [ Lease_fault { at = Rng.float rng profile.horizon } ]
      else []
    in
    acceptor_crashes @ lease
  in
  (* Storm draws come last of all — the [p_storm > 0.0] guard keeps every
     pre-storm schedule byte-identical, and the whole-envelope interval
     check keeps the ≤ k concurrency bound sound against the crash
     incidents drawn above. *)
  let storms =
    if k > 0 && profile.p_storm > 0.0 && Rng.flip rng ~p:profile.p_storm then begin
      let site = 1 + Rng.int rng n_sites in
      let first = Rng.float rng profile.horizon in
      let waves =
        profile.storm_waves_min
        + Rng.int rng (max 1 (profile.storm_waves_max - profile.storm_waves_min + 1))
      in
      let period =
        profile.storm_period_min
        +. Rng.float rng (profile.storm_period_max -. profile.storm_period_min)
      in
      let frac =
        profile.storm_down_frac_min
        +. Rng.float rng (profile.storm_down_frac_max -. profile.storm_down_frac_min)
      in
      let storm = Storm { site; first; waves; period; down = frac *. period } in
      match interval storm with
      | Some iv when fits_k k crash_intervals iv -> [ storm ]
      | Some _ | None -> []
    end
    else []
  in
  crashes @ partition @ detector_faults @ msg_faults @ paxos_faults @ storms

let to_string schedule =
  String.concat "\n" (List.map show_fault schedule)

let pp = pp_schedule
