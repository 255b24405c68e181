(* The backup protocol's per-site rules; see the interface for the
   protocol and for where the drivers and Paxos recovery differ. *)

type site = Core.Types.site
type rule = Skeen | Quorum

let majority n = (n / 2) + 1

type phase =
  | Moving of { target : int; awaiting : site list }
  | Polling of { awaiting : site list; reps : (site * int) list }

let without site = List.filter (fun x -> x <> site)

let drop phase site =
  match phase with
  | Moving m -> Moving { m with awaiting = without site m.awaiting }
  | Polling p -> Polling { p with awaiting = without site p.awaiting }

let report phase site code =
  match phase with
  | Polling { awaiting; reps } ->
      let reps = if List.mem_assoc site reps then reps else (site, code) :: reps in
      Polling { awaiting = without site awaiting; reps }
  | Moving _ -> phase

type opening = Announce of Core.Types.outcome | Start of phase | Blocked

let open_round ?row rule rb ~site ~code ~outcome ~participants =
  match (outcome, rule) with
  | Some o, _ -> Announce o
  | None, Quorum -> Start (Polling { awaiting = participants; reps = [ (site, code) ] })
  | None, Skeen -> (
      match Rulebook.verdict_of_code rb ~site:(Option.value row ~default:site) ~code with
      | Rulebook.Decide _ -> Start (Moving { target = code; awaiting = participants })
      | Rulebook.Blocked -> Blocked)

type move_answer = Reply of Core.Types.outcome | Ignore | Fence | Adopt of int

let answer_move ~outcome ~recovered ~fencing ~epoch_seen ~epoch =
  match outcome with
  | Some o -> Reply o
  | None when recovered -> Ignore
  | None when fencing && epoch < epoch_seen -> Fence
  | None -> Adopt (max epoch epoch_seen)

let close_phase1 rb ~site ~code ~awaiting ~failed =
  if List.for_all failed awaiting then Some (Rulebook.verdict_of_code rb ~site ~code) else None

type 'b view =
  | Seen of Core.Types.outcome
  | Move_up of 'b * int
  | Unprepared of int
  | No_buffer
  | Short of int * int

let quorum ~n_sites ~buffer kinds =
  let q = majority n_sites in
  let prepared =
    List.length (List.filter (fun k -> k = Core.Types.Buffer || Core.Types.is_commit k) kinds)
  in
  let unprepared = List.length kinds - prepared in
  if List.exists Core.Types.is_commit kinds then Seen Core.Types.Committed
  else if List.exists Core.Types.is_abort kinds then Seen Core.Types.Aborted
  else if prepared >= q then match buffer with Some b -> Move_up (b, prepared) | None -> No_buffer
  else if unprepared >= q && buffer <> None then Unprepared unprepared
  else Short (prepared, unprepared)

type decide_answer = Fenced | Known | Learn

let learn_decide ~fencing ~epoch_seen ~epoch ~outcome =
  if fencing && epoch < epoch_seen then Fenced else if outcome <> None then Known else Learn
