(** Coverage-guided exploration of the fault-schedule space: a fuzzer
    whose inputs are {!Failure_plan}s instead of byte strings.

    The classic chaos sweeps sample schedules independently at random,
    so the rare interleavings Skeen's nonblocking claims live or die on
    are reached last.  This module searches instead: every run is
    summarized by a {!Sim.Coverage} fingerprint (protocol-state edges
    walked, bucketed election/detector activity, oracle near-miss
    flags); any run contributing an unseen feature joins a corpus; new
    candidates are mutants of corpus entries — add / remove / retime /
    retarget a fault clause, widen a window, splice two plans — so the
    search climbs towards behaviours it has not seen yet.  Violations
    are auto-shrunk with the harness's greedy shrinker and the corpus
    persists as replayable {!Failure_plan} text files.

    The module is generic over a {!harness} record, and every harness is
    {!of_target} over a {!Chaos.target}: the engine's is built here, the
    database's in [Kv.Chaos_db].  Both explore through the same loop and
    are comparable in the same report.

    Determinism: candidates are derived sequentially from the search's
    own {!Sim.Rng} stream, evaluated in parallel via {!Sim.Sweep.map}
    (worker assignment is unobservable), then folded sequentially — the
    whole search is a pure function of [(harness, mode, budget, seed)]
    whatever [workers] is. *)

module N = Sim.Nemesis

(* ------------------------------------------------------------------ *)
(* Clause families a mutation may add.  Partitions, message drops and
   disk faults are deliberately absent: they violate the paper's model,
   so a violation found through them would be an ablation finding, not
   a protocol bug.  Mutations never introduce a family outside the
   harness's list, which is what keeps [Failure_plan.unsupported_clauses]
   empty across a whole search (property-tested). *)

type family =
  | Step_crashes
  | Timed_crashes
  | Recoveries
  | Move_crashes
  | Decide_crashes
  | Msg_faults
  | Delay_spikes
  | Stalls
  | Hb_losses
  | Acceptor_crashes
  | Lease_faults
  | Storms
[@@deriving show { with_path = false }, eq]

let protocol_families ~protocol =
  let is_3pc = protocol = "central-3pc" || protocol = "decentralized-3pc" in
  let is_paxos = String.length protocol >= 5 && String.sub protocol 0 5 = "paxos" in
  [ Step_crashes; Timed_crashes; Recoveries; Msg_faults; Delay_spikes; Stalls; Hb_losses; Storms ]
  @ (if is_3pc then [ Move_crashes; Decide_crashes ] else [])
  @ if is_paxos then [ Decide_crashes; Acceptor_crashes; Lease_faults ] else []

let family_of : N.fault -> family option = function
  | Step_crash _ -> Some Step_crashes
  | Crash _ -> Some Timed_crashes
  | Recover _ -> Some Recoveries
  | Backup_crash { phase = Move; _ } -> Some Move_crashes
  | Backup_crash { phase = Decide; _ } -> Some Decide_crashes
  | Msg _ -> Some Msg_faults
  | Delay_window _ -> Some Delay_spikes
  | Stall _ -> Some Stalls
  | Hb_loss _ -> Some Hb_losses
  | Acceptor_crash _ -> Some Acceptor_crashes
  | Lease_fault _ -> Some Lease_faults
  | Storm _ -> Some Storms
  | Partition _ | Disk_fault _ -> None

(* A plan's clauses of one family, as a plan of their own. *)
let clauses_of (p : Failure_plan.t) family = List.filter (fun f -> family_of f = Some family) p

let unsupported ~families plan =
  List.filter_map
    (fun family ->
      if List.mem family families then None
      else match Failure_plan.to_string (clauses_of plan family) with "" -> None | s -> Some s)
    [
      Step_crashes; Timed_crashes; Recoveries; Move_crashes; Decide_crashes; Msg_faults;
      Delay_spikes; Stalls; Hb_losses; Acceptor_crashes; Lease_faults; Storms;
    ]

(* ------------------------------------------------------------------ *)

type report = {
  fingerprint : Sim.Coverage.feature list;
  violations : (string * string) list;  (** (oracle name, detail) *)
}

type harness = {
  name : string;
  n_sites : int;
  horizon : float;  (** time scale mutations draw crash/window times from *)
  families : family list;  (** clause families mutations may add *)
  run : seed:int -> Failure_plan.t -> report;
  shrink : seed:int -> oracle:string -> Failure_plan.t -> Failure_plan.t * int;
  random_plan : seed:int -> Failure_plan.t;
      (** the equal-budget baseline: what one classic chaos-sweep seed
          would have executed *)
}

(* ------------------------------------------------------------------ *)
(* Mutation operators, one match arm per fault kind. *)

let random_fault rng ~n_sites ~horizon family =
  let site () = 1 + Sim.Rng.int rng n_sites in
  let time () = Sim.Rng.float rng horizon in
  let window () =
    let from_t = time () in
    (from_t, from_t +. (0.1 *. horizon) +. Sim.Rng.float rng (0.4 *. horizon))
  in
  match family with
  | Step_crashes ->
      let mode =
        if Sim.Rng.bool rng then N.Before_transition else N.After_logging (Sim.Rng.int rng 3)
      in
      N.Step_crash { site = site (); step = Sim.Rng.int rng 4; mode }
  | Timed_crashes -> N.Crash { site = site (); at = time () }
  | Recoveries -> N.Recover { site = site (); at = time () }
  | Move_crashes -> N.Backup_crash { site = site (); phase = N.Move; sent = Sim.Rng.int rng 4 }
  | Decide_crashes -> N.Backup_crash { site = site (); phase = N.Decide; sent = Sim.Rng.int rng 4 }
  | Msg_faults ->
      let fault =
        if Sim.Rng.bool rng then Sim.World.Fault_duplicate
        else Sim.World.Fault_delay (1.0 +. Sim.Rng.float rng 7.0)
      in
      N.Msg { nth = Sim.Rng.int rng 200; fault }
  | Delay_spikes ->
      let from_t, until_t = window () in
      N.Delay_window { site = site (); from_t; until_t; extra = 1.0 +. Sim.Rng.float rng 9.0 }
  | Stalls ->
      let from_t, until_t = window () in
      N.Stall { site = site (); from_t; until_t }
  | Hb_losses ->
      let from_t, until_t = window () in
      N.Hb_loss { site = site (); from_t; until_t }
  | Acceptor_crashes -> N.Acceptor_crash { site = site (); at = time () }
  | Lease_faults -> N.Lease_fault { at = time () }
  | Storms ->
      (* periods of a few horizons: waves land well after the initial
         exchange, exercising repeated WAL replay and re-election *)
      let period = horizon *. (2.0 +. Sim.Rng.float rng 4.0) in
      N.Storm
        {
          site = site ();
          first = time ();
          waves = 2 + Sim.Rng.int rng 3;
          period;
          down = period *. (0.25 +. Sim.Rng.float rng 0.5);
        }

let retime rng ~horizon fault =
  let t () = Sim.Rng.float rng horizon in
  match fault with
  | N.Crash { site; _ } -> N.Crash { site; at = t () }
  | N.Step_crash { site; mode; _ } -> N.Step_crash { site; step = Sim.Rng.int rng 4; mode }
  | N.Backup_crash { site; phase; _ } -> N.Backup_crash { site; phase; sent = Sim.Rng.int rng 4 }
  | N.Recover { site; _ } -> N.Recover { site; at = t () }
  | N.Partition { groups; from_t; until_t } ->
      let shift = t () -. from_t in
      N.Partition { groups; from_t = from_t +. shift; until_t = until_t +. shift }
  | N.Msg { fault; _ } -> N.Msg { nth = Sim.Rng.int rng 200; fault }
  | N.Disk_fault { site; fault; _ } -> N.Disk_fault { site; fault; nth = Sim.Rng.int rng 3 }
  | N.Delay_window { site; from_t; until_t; extra } ->
      let len = until_t -. from_t in
      let from_t = t () in
      N.Delay_window { site; from_t; until_t = from_t +. len; extra }
  | N.Stall { site; from_t; until_t } ->
      let len = until_t -. from_t in
      let from_t = t () in
      N.Stall { site; from_t; until_t = from_t +. len }
  | N.Hb_loss { site; from_t; until_t } ->
      let len = until_t -. from_t in
      let from_t = t () in
      N.Hb_loss { site; from_t; until_t = from_t +. len }
  | N.Acceptor_crash { site; _ } -> N.Acceptor_crash { site; at = t () }
  | N.Lease_fault _ -> N.Lease_fault { at = t () }
  | N.Storm { site; waves; period; down; _ } -> N.Storm { site; first = t (); waves; period; down }

let retarget rng ~n_sites fault =
  let site = 1 + Sim.Rng.int rng n_sites in
  match fault with
  | N.Crash { at; _ } -> Some (N.Crash { site; at })
  | N.Step_crash { step; mode; _ } -> Some (N.Step_crash { site; step; mode })
  | N.Backup_crash { phase; sent; _ } -> Some (N.Backup_crash { site; phase; sent })
  | N.Recover { at; _ } -> Some (N.Recover { site; at })
  | N.Delay_window { from_t; until_t; extra; _ } ->
      Some (N.Delay_window { site; from_t; until_t; extra })
  | N.Stall { from_t; until_t; _ } -> Some (N.Stall { site; from_t; until_t })
  | N.Hb_loss { from_t; until_t; _ } -> Some (N.Hb_loss { site; from_t; until_t })
  | N.Acceptor_crash { at; _ } -> Some (N.Acceptor_crash { site; at })
  | N.Disk_fault { fault; nth; _ } -> Some (N.Disk_fault { site; fault; nth })
  | N.Storm { first; waves; period; down; _ } -> Some (N.Storm { site; first; waves; period; down })
  | N.Partition _ | N.Msg _ | N.Lease_fault _ -> None

let widen rng fault =
  let grow len = len *. (1.25 +. Sim.Rng.float rng 0.75) in
  match fault with
  | N.Delay_window { site; from_t; until_t; extra } ->
      Some (N.Delay_window { site; from_t; until_t = from_t +. grow (until_t -. from_t); extra })
  | N.Stall { site; from_t; until_t } ->
      Some (N.Stall { site; from_t; until_t = from_t +. grow (until_t -. from_t) })
  | N.Hb_loss { site; from_t; until_t } ->
      Some (N.Hb_loss { site; from_t; until_t = from_t +. grow (until_t -. from_t) })
  | N.Partition { groups; from_t; until_t } ->
      Some (N.Partition { groups; from_t; until_t = from_t +. grow (until_t -. from_t) })
  | N.Storm { site; first; waves; period; down } ->
      Some
        (if Sim.Rng.bool rng then N.Storm { site; first; waves = waves + 1; period; down }
         else N.Storm { site; first; waves; period; down = Float.min (grow down) (0.9 *. period) })
  | N.Crash _ | N.Step_crash _ | N.Backup_crash _ | N.Recover _ | N.Msg _ | N.Disk_fault _
  | N.Acceptor_crash _ | N.Lease_fault _ ->
      None

let remove_nth n l = List.filteri (fun i _ -> i <> n) l
let replace_nth n x l = List.mapi (fun i y -> if i = n then x else y) l

let mutate rng ~n_sites ~horizon ~families sched =
  let add () = sched @ [ random_fault rng ~n_sites ~horizon (Sim.Rng.choice rng families) ] in
  let sched' =
    if sched = [] then add ()
    else
      let i = Sim.Rng.int rng (List.length sched) in
      let chosen = List.nth sched i in
      match Sim.Rng.int rng 5 with
      | 0 -> add ()
      | 1 -> remove_nth i sched
      | 2 -> replace_nth i (retime rng ~horizon chosen) sched
      | 3 -> (
          match retarget rng ~n_sites chosen with
          | Some f -> replace_nth i f sched
          | None -> replace_nth i (retime rng ~horizon chosen) sched)
      | _ -> (
          match widen rng chosen with
          | Some f -> replace_nth i f sched
          | None -> replace_nth i (retime rng ~horizon chosen) sched)
  in
  Failure_plan.of_schedule sched'

let splice rng a b =
  let keep l = List.filter (fun _ -> Sim.Rng.bool rng) l in
  Failure_plan.of_schedule (keep a @ keep b)

(* ------------------------------------------------------------------ *)

type bug = {
  bug_oracle : string;
  bug_detail : string;
  bug_found_at : int;  (** global run index that first tripped it *)
  bug_plan : Failure_plan.t;  (** as found *)
  bug_shrunk : Failure_plan.t;
  bug_shrink_runs : int;
}

type result = {
  harness_name : string;
  mode : [ `Guided | `Random ];
  budget : int;
  runs : int;
  coverage : int;  (** distinct features at the end *)
  features : string list;
  curve : (int * int) list;  (** (runs completed, cumulative coverage) per batch *)
  corpus : (Failure_plan.t * int) list;
      (** admitted plans, admission order, with the novelty each brought *)
  violating_runs : int;
  bugs : bug list;  (** deduplicated, shrunk; at most [max_shrunk] *)
}

let mode_name = function `Guided -> "guided" | `Random -> "random"

(* Parent selection: half the draws from the top-novelty quartile, half
   uniform — exploit what paid off without starving the long tail.  The
   corpus changes only in a batch's sequential fold, so both pools are
   built once per batch: [all] is the corpus newest first, [top] its
   first quarter (at least one entry) by novelty, ties newest first. *)
type pools = { all : (Failure_plan.t * int) array; top : (Failure_plan.t * int) array }

let pools corpus =
  let all = Array.of_list corpus in
  let sorted = Array.copy all in
  Array.stable_sort (fun (_, a) (_, b) -> compare (b : int) a) sorted;
  { all; top = Array.sub sorted 0 (min (Array.length sorted) (max 1 (Array.length sorted / 4))) }

let pick_parent rng { all; top } =
  let pool = if Sim.Rng.bool rng then top else all in
  fst pool.(Sim.Rng.int rng (Array.length pool))

let search ?(workers = 1) ?(batch = 16) ?(max_shrunk = 4) ?(seed = 0) ?(initial = [])
    ?progress harness ~mode ~budget () =
  let rng = Sim.Rng.create ~seed in
  let cov = Sim.Coverage.create () in
  let corpus = ref [] (* newest first *) in
  let curve = ref [] in
  let bugs = ref [] in
  let seen_violations = Hashtbl.create 16 in
  let violating_runs = ref 0 in
  let runs = ref 0 in
  (* user-provided plans join the corpus before the budget starts *)
  List.iter
    (fun plan ->
      match mode with
      | `Random -> ()
      | `Guided -> corpus := (plan, 1) :: !corpus)
    initial;
  while !runs < budget do
    let n = min batch (budget - !runs) in
    (* candidate derivation is sequential in the search rng: worker
       count must never influence what gets run *)
    let parents = pools (match mode with `Guided -> !corpus | `Random -> []) in
    let candidates =
      Array.init n (fun i ->
          match mode with
          | `Random -> harness.random_plan ~seed:(!runs + i)
          | `Guided ->
              if Array.length parents.all = 0 then harness.random_plan ~seed:(!runs + i)
              else begin
                let parent = pick_parent rng parents in
                if Sim.Rng.flip rng ~p:0.3 && Array.length parents.all > 1 then
                  splice rng parent (pick_parent rng parents)
                else
                  mutate rng ~n_sites:harness.n_sites ~horizon:harness.horizon
                    ~families:harness.families parent
              end)
    in
    let base = !runs in
    let reports =
      Sim.Sweep.map ~workers ~seed_base:base ~seeds:n (fun ~seed ->
          harness.run ~seed candidates.(seed - base))
    in
    (* sequential fold: admission order and shrink selection are
       identical whatever the worker count *)
    Array.iteri
      (fun i report ->
        let plan = candidates.(i) in
        let novelty = Sim.Coverage.add cov report.fingerprint in
        if novelty > 0 then corpus := (plan, novelty) :: !corpus;
        if report.violations <> [] then begin
          incr violating_runs;
          let oracle, detail = List.hd report.violations in
          if
            (not (Hashtbl.mem seen_violations (oracle, detail)))
            && List.length !bugs < max_shrunk
          then begin
            Hashtbl.replace seen_violations (oracle, detail) ();
            let shrunk, shrink_runs = harness.shrink ~seed:(base + i) ~oracle plan in
            let key = (oracle, Failure_plan.to_string shrunk) in
            if
              not
                (List.exists
                   (fun b -> (b.bug_oracle, Failure_plan.to_string b.bug_shrunk) = key)
                   !bugs)
            then
              bugs :=
                {
                  bug_oracle = oracle;
                  bug_detail = detail;
                  bug_found_at = base + i;
                  bug_plan = plan;
                  bug_shrunk = shrunk;
                  bug_shrink_runs = shrink_runs;
                }
                :: !bugs
          end
        end)
      reports;
    runs := base + n;
    curve := (!runs, Sim.Coverage.count cov) :: !curve;
    match progress with
    | Some f -> f ~runs:!runs ~coverage:(Sim.Coverage.count cov) ~bugs:(List.length !bugs)
    | None -> ()
  done;
  {
    harness_name = harness.name;
    mode;
    budget;
    runs = !runs;
    coverage = Sim.Coverage.count cov;
    features = Sim.Coverage.features cov;
    curve = List.rev !curve;
    corpus = List.rev !corpus;
    violating_runs = !violating_runs;
    bugs = List.rev !bugs;
  }

let replay ?(workers = 1) harness plans =
  let arr = Array.of_list plans in
  let reports =
    Sim.Sweep.map ~workers ~seeds:(Array.length arr) (fun ~seed -> harness.run ~seed arr.(seed))
  in
  List.mapi (fun i plan -> (plan, reports.(i))) plans

(* ------------------------------------------------------------------ *)
(* Corpus persistence: one [Failure_plan.to_string] per file, so every
   entry pastes straight into a regression test or `skeen chaos
   --plan`.  File order encodes admission order. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let save_corpus ~dir result =
  mkdir_p dir;
  List.iteri
    (fun i (plan, _) ->
      write_file
        (Filename.concat dir (Printf.sprintf "%03d.plan" i))
        (Failure_plan.to_string plan ^ "\n"))
    result.corpus;
  List.iteri
    (fun i b ->
      write_file
        (Filename.concat dir (Printf.sprintf "bug-%d-%s.plan" i b.bug_oracle))
        (Failure_plan.to_string b.bug_shrunk ^ "\n"))
    result.bugs

let load_corpus ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".plan")
    |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in (Filename.concat dir f) in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           (f, Failure_plan.of_string_exn s))

(* ------------------------------------------------------------------ *)
(* Harnesses over chaos targets: [run] and [shrink] are the target's, and
   [random_plan] draws exactly the plan a chaos-sweep seed would run. *)

let of_target (t : _ Chaos.target) ~fingerprint ~families ~k =
  let run ~seed plan =
    let result, violations = t.run ~metrics:None ~tracing:false ~seed plan in
    {
      fingerprint = fingerprint result;
      violations =
        List.map (fun (v : Chaos.violation) -> (Chaos.oracle_name v.oracle, v.detail)) violations;
    }
  in
  let shrink ~seed ~oracle plan =
    match Chaos.oracle_of_name oracle with
    | None -> (plan, 0)
    | Some oracle -> Chaos.shrink_target t ~seed ~oracle plan
  in
  {
    name = t.name;
    n_sites = t.n_sites;
    horizon = t.profile.Sim.Nemesis.horizon;
    families;
    run;
    shrink;
    random_plan = (fun ~seed -> Failure_plan.of_schedule (Chaos.schedule t ~k ~seed));
  }

let engine_harness ?profile ?(k = 1) rulebook =
  of_target
    (Chaos.target ?profile (Runtime.config ~until:Chaos.stall_budget rulebook))
    ~fingerprint:Chaos.fingerprint_of
    ~families:(protocol_families ~protocol:rulebook.Rulebook.protocol.Core.Protocol.name)
    ~k
