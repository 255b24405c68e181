(** Failure injection plans.

    A plan describes, for a single simulated run, which sites crash, when,
    and how "cleanly".  Crashes can be pinned to protocol progress — before
    a site's k-th state transition, or part-way through the message sends of
    that transition (the paper's partially completed transition: "only part
    of the messages that should be sent during a transition are actually
    transmitted") — or to wall-clock simulation time.  Recoveries are
    scheduled by time.  Plans also carry the network-level faults a chaos
    schedule composes: partition windows and message-level faults keyed by
    global send index.

    Plans round-trip through a compact text form ({!to_string} /
    {!of_string}), so a shrunk chaos counterexample can be pasted into a
    deterministic regression test. *)

type crash_mode =
  | Before_transition  (** crash before logging/acting on the transition *)
  | After_logging of int
      (** complete the forced log write, then send only the first [k]
          messages of the transition before crashing *)
  | After_transition  (** crash after the transition completes fully *)
[@@deriving show { with_path = false }, eq]

type step_crash = {
  site : Core.Types.site;
  step : int;  (** the site's n-th protocol transition, 0-based *)
  mode : crash_mode;
}
[@@deriving show { with_path = false }, eq]

type partition_spec = {
  from_t : float;
  until_t : float;
  groups : Core.Types.site list list;
}
[@@deriving show { with_path = false }, eq]

type delay_spec = {
  d_site : Core.Types.site;
  d_from : float;
  d_until : float;
  d_extra : float;  (** added to every message touching the site in the window *)
}
[@@deriving show { with_path = false }, eq]

type window_spec = { w_site : Core.Types.site; w_from : float; w_until : float }
[@@deriving show { with_path = false }, eq]

type storm_spec = {
  s_site : Core.Types.site;
  s_first : float;  (** first wave's crash time *)
  s_waves : int;
  s_period : float;  (** crash-to-crash spacing between waves *)
  s_down : float;  (** downtime per wave, [< s_period] *)
}
[@@deriving show { with_path = false }, eq]

type t = {
  step_crashes : step_crash list;
  timed_crashes : (Core.Types.site * float) list;
  recoveries : (Core.Types.site * float) list;
  move_crashes : (Core.Types.site * int) list;
      (** crash a backup coordinator after sending the first [k] Move_to
          messages of termination phase 1 (cascading-failure experiments) *)
  decide_crashes : (Core.Types.site * int) list;
      (** crash a backup coordinator after sending the first [k] Decide
          messages of termination phase 2 *)
  partitions : partition_spec list;
  msg_faults : (int * Sim.World.msg_fault) list;
      (** the nth global send attempt suffers the paired fault *)
  disk_faults : (Core.Types.site * Sim.Disk.injection) list;
      (** storage faults armed on the site's log device *)
  delay_spikes : delay_spec list;  (** latency-spike windows *)
  stalls : window_spec list;  (** slow-site ("GC pause") windows *)
  hb_losses : window_spec list;  (** heartbeat-loss bursts *)
  acceptor_crashes : (Core.Types.site * float) list;
      (** timed crashes aimed at Paxos-Commit acceptor sites; a plain
          crash semantically, kept distinct so family validation and
          acceptor-targeted sweeps can tell them apart *)
  lease_faults : float list;
      (** leader-lease expiries: at each time a standby acceptor opens a
          higher-ballot recovery round while the leader is still alive *)
  storms : storm_spec list;
      (** crash-recover storms: repeated crash/recover waves on one site,
          expanded at lowering time via {!Sim.Nemesis.storm_events} *)
}
[@@deriving show { with_path = false }, eq]

let none =
  {
    step_crashes = [];
    timed_crashes = [];
    recoveries = [];
    move_crashes = [];
    decide_crashes = [];
    partitions = [];
    msg_faults = [];
    disk_faults = [];
    delay_spikes = [];
    stalls = [];
    hb_losses = [];
    acceptor_crashes = [];
    lease_faults = [];
    storms = [];
  }

let make ?(step_crashes = []) ?(timed_crashes = []) ?(recoveries = []) ?(move_crashes = [])
    ?(decide_crashes = []) ?(partitions = []) ?(msg_faults = []) ?(disk_faults = [])
    ?(delay_spikes = []) ?(stalls = []) ?(hb_losses = []) ?(acceptor_crashes = [])
    ?(lease_faults = []) ?(storms = []) () =
  {
    step_crashes;
    timed_crashes;
    recoveries;
    move_crashes;
    decide_crashes;
    partitions;
    msg_faults;
    disk_faults;
    delay_spikes;
    stalls;
    hb_losses;
    acceptor_crashes;
    lease_faults;
    storms;
  }

(** [crash_at_step ~site ~step ~mode] : the simplest single-crash plan. *)
let crash_at_step ~site ~step ~mode = { none with step_crashes = [ { site; step; mode } ] }

let find_step_crash t ~site ~step =
  List.find_opt (fun c -> c.site = site && c.step = step) t.step_crashes
  |> Option.map (fun c -> c.mode)

let storm_events (s : storm_spec) =
  Sim.Nemesis.storm_events
    (Sim.Nemesis.Storm
       { site = s.s_site; first = s.s_first; waves = s.s_waves; period = s.s_period; down = s.s_down })

let crashing_sites t =
  List.map (fun c -> c.site) t.step_crashes
  @ List.map fst t.timed_crashes @ List.map fst t.move_crashes @ List.map fst t.decide_crashes
  @ List.map fst t.acceptor_crashes
  @ List.map (fun s -> s.s_site) t.storms
  |> List.sort_uniq compare

let sites t =
  crashing_sites t
  @ List.map fst t.recoveries
  @ List.concat_map (fun p -> List.concat p.groups) t.partitions
  @ List.map fst t.disk_faults
  @ List.map (fun d -> d.d_site) t.delay_spikes
  @ List.map (fun w -> w.w_site) (t.stalls @ t.hb_losses)
  |> List.sort_uniq compare

let fault_count t =
  List.length t.step_crashes + List.length t.timed_crashes + List.length t.recoveries
  + List.length t.move_crashes + List.length t.decide_crashes + List.length t.partitions
  + List.length t.msg_faults + List.length t.disk_faults + List.length t.delay_spikes
  + List.length t.stalls + List.length t.hb_losses + List.length t.acceptor_crashes
  + List.length t.lease_faults + List.length t.storms

(** Lower a generated {!Sim.Nemesis} schedule into a plan the runtime can
    execute.  Order within each fault family is preserved. *)
let of_schedule (schedule : Sim.Nemesis.schedule) =
  List.fold_left
    (fun plan fault ->
      match fault with
      | Sim.Nemesis.Crash { site; at } ->
          { plan with timed_crashes = plan.timed_crashes @ [ (site, at) ] }
      | Sim.Nemesis.Step_crash { site; step; sent } ->
          let mode =
            match sent with None -> Before_transition | Some j -> After_logging j
          in
          { plan with step_crashes = plan.step_crashes @ [ { site; step; mode } ] }
      | Sim.Nemesis.Backup_crash { site; phase = Sim.Nemesis.Move; sent } ->
          { plan with move_crashes = plan.move_crashes @ [ (site, sent) ] }
      | Sim.Nemesis.Backup_crash { site; phase = Sim.Nemesis.Decide; sent } ->
          { plan with decide_crashes = plan.decide_crashes @ [ (site, sent) ] }
      | Sim.Nemesis.Recover { site; at } ->
          { plan with recoveries = plan.recoveries @ [ (site, at) ] }
      | Sim.Nemesis.Partition { from_t; until_t; groups } ->
          { plan with partitions = plan.partitions @ [ { from_t; until_t; groups } ] }
      | Sim.Nemesis.Msg { nth; fault } ->
          { plan with msg_faults = plan.msg_faults @ [ (nth, fault) ] }
      | Sim.Nemesis.Disk_fault { site; fault; nth } ->
          { plan with disk_faults = plan.disk_faults @ [ (site, { Sim.Disk.fault; nth }) ] }
      | Sim.Nemesis.Delay_window { site; from_t; until_t; extra } ->
          {
            plan with
            delay_spikes =
              plan.delay_spikes
              @ [ { d_site = site; d_from = from_t; d_until = until_t; d_extra = extra } ];
          }
      | Sim.Nemesis.Stall { site; from_t; until_t } ->
          {
            plan with
            stalls = plan.stalls @ [ { w_site = site; w_from = from_t; w_until = until_t } ];
          }
      | Sim.Nemesis.Hb_loss { site; from_t; until_t } ->
          {
            plan with
            hb_losses = plan.hb_losses @ [ { w_site = site; w_from = from_t; w_until = until_t } ];
          }
      | Sim.Nemesis.Acceptor_crash { site; at } ->
          { plan with acceptor_crashes = plan.acceptor_crashes @ [ (site, at) ] }
      | Sim.Nemesis.Lease_fault { at } ->
          { plan with lease_faults = plan.lease_faults @ [ at ] }
      | Sim.Nemesis.Storm { site; first; waves; period; down } ->
          {
            plan with
            storms =
              plan.storms
              @ [ { s_site = site; s_first = first; s_waves = waves; s_period = period; s_down = down } ];
          })
    none schedule

(** Inverse of {!of_schedule} on its image: rebuild a {!Sim.Nemesis}
    schedule from a plan, family-grouped in clause order.  The only lossy
    corner is [After_transition] step crashes, which {!of_schedule} never
    produces — they lower to a before-transition crash of the same step.
    This is what lets the kv harness (which consumes schedules, not
    plans) replay corpus entries persisted as plan text. *)
let to_schedule t =
  List.map
    (fun c ->
      let sent =
        match c.mode with
        | Before_transition | After_transition -> None
        | After_logging k -> Some k
      in
      Sim.Nemesis.Step_crash { site = c.site; step = c.step; sent })
    t.step_crashes
  @ List.map (fun (site, at) -> Sim.Nemesis.Crash { site; at }) t.timed_crashes
  @ List.map (fun (site, at) -> Sim.Nemesis.Recover { site; at }) t.recoveries
  @ List.map
      (fun (site, sent) -> Sim.Nemesis.Backup_crash { site; phase = Sim.Nemesis.Move; sent })
      t.move_crashes
  @ List.map
      (fun (site, sent) -> Sim.Nemesis.Backup_crash { site; phase = Sim.Nemesis.Decide; sent })
      t.decide_crashes
  @ List.map
      (fun p -> Sim.Nemesis.Partition { from_t = p.from_t; until_t = p.until_t; groups = p.groups })
      t.partitions
  @ List.map (fun (nth, fault) -> Sim.Nemesis.Msg { nth; fault }) t.msg_faults
  @ List.map
      (fun (site, { Sim.Disk.fault; nth }) -> Sim.Nemesis.Disk_fault { site; fault; nth })
      t.disk_faults
  @ List.map
      (fun d ->
        Sim.Nemesis.Delay_window
          { site = d.d_site; from_t = d.d_from; until_t = d.d_until; extra = d.d_extra })
      t.delay_spikes
  @ List.map
      (fun w -> Sim.Nemesis.Stall { site = w.w_site; from_t = w.w_from; until_t = w.w_until })
      t.stalls
  @ List.map
      (fun w -> Sim.Nemesis.Hb_loss { site = w.w_site; from_t = w.w_from; until_t = w.w_until })
      t.hb_losses
  @ List.map (fun (site, at) -> Sim.Nemesis.Acceptor_crash { site; at }) t.acceptor_crashes
  @ List.map (fun at -> Sim.Nemesis.Lease_fault { at }) t.lease_faults
  @ List.map
      (fun s ->
        Sim.Nemesis.Storm
          { site = s.s_site; first = s.s_first; waves = s.s_waves; period = s.s_period; down = s.s_down })
      t.storms

(* ------------------------------------------------------------------ *)
(* Textual round-trip.  One clause per fault, "; "-separated, so a
   shrunk counterexample pastes into a test as a single string.  Floats
   print with %.17g, which [float_of_string] reads back exactly. *)

let float_str x = Printf.sprintf "%.17g" x

let mode_str = function
  | Before_transition -> "before"
  | After_logging k -> Printf.sprintf "after-logging:%d" k
  | After_transition -> "after-transition"

let clause_strings t =
  List.map
    (fun c -> Printf.sprintf "step-crash site=%d step=%d mode=%s" c.site c.step (mode_str c.mode))
    t.step_crashes
  @ List.map (fun (s, at) -> Printf.sprintf "crash site=%d at=%s" s (float_str at)) t.timed_crashes
  @ List.map (fun (s, at) -> Printf.sprintf "recover site=%d at=%s" s (float_str at)) t.recoveries
  @ List.map (fun (s, k) -> Printf.sprintf "move-crash site=%d sent=%d" s k) t.move_crashes
  @ List.map (fun (s, k) -> Printf.sprintf "decide-crash site=%d sent=%d" s k) t.decide_crashes
  @ List.map
      (fun p ->
        Printf.sprintf "partition from=%s until=%s groups=%s" (float_str p.from_t)
          (float_str p.until_t)
          (String.concat "|"
             (List.map (fun g -> String.concat "," (List.map string_of_int g)) p.groups)))
      t.partitions
  @ List.map
      (fun (nth, f) ->
        let f_str =
          match f with
          | Sim.World.Fault_drop -> "drop"
          | Sim.World.Fault_duplicate -> "dup"
          | Sim.World.Fault_delay extra -> Printf.sprintf "delay:%s" (float_str extra)
        in
        Printf.sprintf "msg nth=%d fault=%s" nth f_str)
      t.msg_faults
  @ List.map
      (fun (site, { Sim.Disk.fault; nth }) ->
        let f_str =
          match fault with
          | Sim.Disk.Torn -> "torn"
          | Sim.Disk.Corrupt -> "corrupt"
          | Sim.Disk.Lost_flush -> "lost-flush"
        in
        Printf.sprintf "disk site=%d fault=%s nth=%d" site f_str nth)
      t.disk_faults
  @ List.map
      (fun d ->
        Printf.sprintf "delay site=%d from=%s until=%s extra=%s" d.d_site (float_str d.d_from)
          (float_str d.d_until) (float_str d.d_extra))
      t.delay_spikes
  @ List.map
      (fun w ->
        Printf.sprintf "stall site=%d from=%s until=%s" w.w_site (float_str w.w_from)
          (float_str w.w_until))
      t.stalls
  @ List.map
      (fun w ->
        Printf.sprintf "hb-loss site=%d from=%s until=%s" w.w_site (float_str w.w_from)
          (float_str w.w_until))
      t.hb_losses
  @ List.map
      (fun (s, at) -> Printf.sprintf "acceptor-crash site=%d at=%s" s (float_str at))
      t.acceptor_crashes
  @ List.map (fun at -> Printf.sprintf "lease-fault at=%s" (float_str at)) t.lease_faults
  @ List.map
      (fun s ->
        Printf.sprintf "storm site=%d first=%s waves=%d period=%s down=%s" s.s_site
          (float_str s.s_first) s.s_waves (float_str s.s_period) (float_str s.s_down))
      t.storms

let to_string t = String.concat "; " (clause_strings t)

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let kv_of_token token =
  match String.index_opt token '=' with
  | Some i ->
      (String.sub token 0 i, String.sub token (i + 1) (String.length token - i - 1))
  | None -> parse_fail "expected key=value, got %S" token

let get key kvs =
  match List.assoc_opt key kvs with
  | Some v -> v
  | None -> parse_fail "missing %s=..." key

let int_of key v = try int_of_string v with _ -> parse_fail "bad int for %s: %S" key v
let float_of key v = try float_of_string v with _ -> parse_fail "bad float for %s: %S" key v

let parse_mode = function
  | "before" -> Before_transition
  | "after-transition" -> After_transition
  | v -> (
      match String.split_on_char ':' v with
      | [ "after-logging"; k ] -> After_logging (int_of "mode" k)
      | _ -> parse_fail "bad mode: %S" v)

let parse_groups v =
  String.split_on_char '|' v
  |> List.map (fun g ->
         String.split_on_char ',' g
         |> List.filter (fun s -> s <> "")
         |> List.map (fun s -> int_of "groups" s))

let parse_msg_fault = function
  | "drop" -> Sim.World.Fault_drop
  | "dup" -> Sim.World.Fault_duplicate
  | v -> (
      match String.split_on_char ':' v with
      | [ "delay"; x ] -> Sim.World.Fault_delay (float_of "fault" x)
      | _ -> parse_fail "bad msg fault: %S" v)

let parse_clause plan clause =
  match
    String.split_on_char ' ' (String.trim clause) |> List.filter (fun s -> s <> "")
  with
  | [] -> plan
  | verb :: tokens -> (
      let kvs = List.map kv_of_token tokens in
      match verb with
      | "step-crash" ->
          let c =
            {
              site = int_of "site" (get "site" kvs);
              step = int_of "step" (get "step" kvs);
              mode = parse_mode (get "mode" kvs);
            }
          in
          { plan with step_crashes = plan.step_crashes @ [ c ] }
      | "crash" ->
          let c = (int_of "site" (get "site" kvs), float_of "at" (get "at" kvs)) in
          { plan with timed_crashes = plan.timed_crashes @ [ c ] }
      | "recover" ->
          let r = (int_of "site" (get "site" kvs), float_of "at" (get "at" kvs)) in
          { plan with recoveries = plan.recoveries @ [ r ] }
      | "move-crash" ->
          let c = (int_of "site" (get "site" kvs), int_of "sent" (get "sent" kvs)) in
          { plan with move_crashes = plan.move_crashes @ [ c ] }
      | "decide-crash" ->
          let c = (int_of "site" (get "site" kvs), int_of "sent" (get "sent" kvs)) in
          { plan with decide_crashes = plan.decide_crashes @ [ c ] }
      | "partition" ->
          let p =
            {
              from_t = float_of "from" (get "from" kvs);
              until_t = float_of "until" (get "until" kvs);
              groups = parse_groups (get "groups" kvs);
            }
          in
          { plan with partitions = plan.partitions @ [ p ] }
      | "msg" ->
          let f = (int_of "nth" (get "nth" kvs), parse_msg_fault (get "fault" kvs)) in
          { plan with msg_faults = plan.msg_faults @ [ f ] }
      | "disk" ->
          let fault =
            match get "fault" kvs with
            | "torn" -> Sim.Disk.Torn
            | "corrupt" -> Sim.Disk.Corrupt
            | "lost-flush" -> Sim.Disk.Lost_flush
            | v -> parse_fail "bad disk fault: %S" v
          in
          let d = (int_of "site" (get "site" kvs), { Sim.Disk.fault; nth = int_of "nth" (get "nth" kvs) }) in
          { plan with disk_faults = plan.disk_faults @ [ d ] }
      | "delay" ->
          let d =
            {
              d_site = int_of "site" (get "site" kvs);
              d_from = float_of "from" (get "from" kvs);
              d_until = float_of "until" (get "until" kvs);
              d_extra = float_of "extra" (get "extra" kvs);
            }
          in
          { plan with delay_spikes = plan.delay_spikes @ [ d ] }
      | "stall" ->
          let w =
            {
              w_site = int_of "site" (get "site" kvs);
              w_from = float_of "from" (get "from" kvs);
              w_until = float_of "until" (get "until" kvs);
            }
          in
          { plan with stalls = plan.stalls @ [ w ] }
      | "hb-loss" ->
          let w =
            {
              w_site = int_of "site" (get "site" kvs);
              w_from = float_of "from" (get "from" kvs);
              w_until = float_of "until" (get "until" kvs);
            }
          in
          { plan with hb_losses = plan.hb_losses @ [ w ] }
      | "acceptor-crash" ->
          let c = (int_of "site" (get "site" kvs), float_of "at" (get "at" kvs)) in
          { plan with acceptor_crashes = plan.acceptor_crashes @ [ c ] }
      | "lease-fault" ->
          { plan with lease_faults = plan.lease_faults @ [ float_of "at" (get "at" kvs) ] }
      | "storm" ->
          let s =
            {
              s_site = int_of "site" (get "site" kvs);
              s_first = float_of "first" (get "first" kvs);
              s_waves = int_of "waves" (get "waves" kvs);
              s_period = float_of "period" (get "period" kvs);
              s_down = float_of "down" (get "down" kvs);
            }
          in
          { plan with storms = plan.storms @ [ s ] }
      | v -> parse_fail "unknown fault kind: %S" v)

(** Inverse of {!to_string}; clauses separated by ';' or newlines.
    @raise Parse_error on malformed input. *)
let of_string_exn s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ';')
  |> List.fold_left parse_clause none

(** Total version for anything that parses user input — the CLI's
    [--plan], a counterexample pasted from a report: a malformed clause
    becomes a friendly [Error message], never a backtrace. *)
let of_string s = match of_string_exn s with p -> Ok p | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Protocol-family validation.  Some clauses only make sense against a
   runtime that actually has the targeted machinery: termination-phase
   crashes need 3PC's backup coordinators, acceptor/lease faults need
   Paxos Commit's replicated coordinator, and decide-crashes need either
   (both broadcast a decision from an elected backup/leader). *)

let is_3pc protocol =
  match protocol with "central-3pc" | "decentralized-3pc" -> true | _ -> false

let is_paxos protocol =
  String.length protocol >= 5 && String.sub protocol 0 5 = "paxos"

let unsupported_clauses ~protocol t =
  let reject clauses fmt_clause needs =
    List.map
      (fun c ->
        Printf.sprintf "%s: %s (protocol %s does not implement it)" (fmt_clause c) needs protocol)
      clauses
  in
  (if is_3pc protocol then []
   else
     reject t.move_crashes
       (fun (s, k) -> Printf.sprintf "move-crash site=%d sent=%d" s k)
       "termination phase 1 requires a 3PC protocol")
  @ (if is_3pc protocol || is_paxos protocol then []
     else
       reject t.decide_crashes
         (fun (s, k) -> Printf.sprintf "decide-crash site=%d sent=%d" s k)
         "a backup/leader decision broadcast requires 3PC or Paxos Commit")
  @ (if is_paxos protocol then []
     else
       reject t.acceptor_crashes
         (fun (s, at) -> Printf.sprintf "acceptor-crash site=%d at=%s" s (float_str at))
         "acceptors exist only under Paxos Commit")
  @
  if is_paxos protocol then []
  else
    reject t.lease_faults
      (fun at -> Printf.sprintf "lease-fault at=%s" (float_str at))
      "leader leases exist only under Paxos Commit"
