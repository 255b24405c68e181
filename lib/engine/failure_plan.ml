(** Failure injection plans.

    A plan is a {!Sim.Nemesis.schedule} kept in clause order: which sites
    crash, when, and how "cleanly".  Crashes can be pinned to protocol
    progress — before a site's k-th state transition, or part-way through
    the message sends of that transition (the paper's partially
    completed transition: "only part of the messages that should be sent
    during a transition are actually transmitted") — or to simulation
    time, alongside the network, storage and detector faults a chaos
    schedule composes.

    Plans round-trip through the schedule's text form ({!to_string} /
    {!of_string}), so a shrunk chaos counterexample can be pasted into a
    deterministic regression test. *)

type crash_mode = Sim.Nemesis.crash_mode =
  | Before_transition
  | After_logging of int
  | After_transition

let pp_crash_mode = Sim.Nemesis.pp_crash_mode

type t = Sim.Nemesis.schedule

let pp = Sim.Nemesis.pp
let equal = Sim.Nemesis.equal_schedule
let none = []

(* The clause order: the order plans print, count and shrink in. *)
let clause_rank : Sim.Nemesis.fault -> int = function
  | Step_crash _ -> 0
  | Crash _ -> 1
  | Recover _ -> 2
  | Backup_crash { phase = Move; _ } -> 3
  | Backup_crash { phase = Decide; _ } -> 4
  | Partition _ -> 5
  | Msg _ -> 6
  | Disk_fault _ -> 7
  | Delay_window _ -> 8
  | Stall _ -> 9
  | Hb_loss _ -> 10
  | Acceptor_crash _ -> 11
  | Lease_fault _ -> 12
  | Storm _ -> 13

let of_schedule schedule =
  List.stable_sort (fun a b -> Int.compare (clause_rank a) (clause_rank b)) schedule

let crash_at_step ~site ~step ~mode = [ Sim.Nemesis.Step_crash { site; step; mode } ]

(* Asked at every transition, so a plain loop: no closure per call. *)
let rec find_step_crash t ~site ~step =
  match t with
  | [] -> None
  | Sim.Nemesis.Step_crash c :: _ when c.site = site && c.step = step -> Some c.mode
  | _ :: rest -> find_step_crash rest ~site ~step

let backup_crash t ~site ~phase =
  List.find_map
    (function
      | Sim.Nemesis.Backup_crash c when c.site = site && c.phase = phase -> Some c.sent
      | _ -> None)
    t

let crashing_sites t =
  List.filter_map
    (function
      | Sim.Nemesis.Step_crash { site; _ }
      | Crash { site; _ }
      | Backup_crash { site; _ }
      | Acceptor_crash { site; _ }
      | Storm { site; _ } ->
          Some site
      | _ -> None)
    t
  |> List.sort_uniq compare

let sites t =
  List.concat_map
    (function
      | Sim.Nemesis.Step_crash { site; _ }
      | Crash { site; _ }
      | Backup_crash { site; _ }
      | Acceptor_crash { site; _ }
      | Storm { site; _ }
      | Recover { site; _ }
      | Disk_fault { site; _ }
      | Delay_window { site; _ }
      | Stall { site; _ }
      | Hb_loss { site; _ } ->
          [ site ]
      | Partition { groups; _ } -> List.concat groups
      | Msg _ | Lease_fault _ -> [])
    t
  |> List.sort_uniq compare

let fault_count = List.length

exception Parse_error = Sim.Nemesis.Parse_error

let to_string = Sim.Nemesis.to_string
let of_string_exn s = of_schedule (Sim.Nemesis.of_string_exn s)
let of_string s = Result.map of_schedule (Sim.Nemesis.of_string s)

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
  List.filter_map
    (fun f ->
      let needs =
        match (f : Sim.Nemesis.fault) with
        | Backup_crash { phase = Move; _ } when not (is_3pc protocol) ->
            Some "termination phase 1 requires a 3PC protocol"
        | Backup_crash { phase = Decide; _ } when not (is_3pc protocol || is_paxos protocol) ->
            Some "a backup/leader decision broadcast requires 3PC or Paxos Commit"
        | Acceptor_crash _ when not (is_paxos protocol) ->
            Some "acceptors exist only under Paxos Commit"
        | Lease_fault _ when not (is_paxos protocol) ->
            Some "leader leases exist only under Paxos Commit"
        | _ -> None
      in
      Option.map
        (fun needs ->
          Printf.sprintf "%s: %s (protocol %s does not implement it)"
            (Sim.Nemesis.to_string [ f ]) needs protocol)
        needs)
    (of_schedule t)
