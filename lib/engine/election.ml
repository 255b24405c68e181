(** A distributed election protocol (bully algorithm).

    The paper's termination protocol begins by electing a backup
    coordinator and notes that "any distributed election mechanism can be
    used".  The {!Runtime} uses the deterministic rank rule induced by the
    reliable failure detector (lowest operational never-crashed site);
    this module provides a full message-based alternative — Garcia-Molina's
    bully algorithm — as a standalone substrate, so the election cost and
    behaviour under cascading failures can be studied in isolation.

    Protocol (highest id wins):
    - a site starting an election sends [Election] to every higher id;
    - an operational higher site replies [Answer] and starts its own
      election (thereby bullying the lower candidate out);
    - a candidate hearing no [Answer] within the timeout declares itself
      by broadcasting [Coordinator];
    - the failure detector restarts the election when the incumbent
      crashes, and a recovered higher site usurps on restart. *)

type msg = Election | Answer | Coordinator of int

let msg_to_string = function
  | Election -> "election"
  | Answer -> "answer"
  | Coordinator c -> Fmt.str "coordinator(%d)" c

type site_state = {
  site : int;
  mutable leader : int option;
  mutable awaiting_answers : bool;
  mutable answer_timer : int option;
  mutable leaders_seen : (float * int) list;  (** (time, leader) history, newest first *)
}

type t = {
  world : msg Sim.World.t;
  states : site_state array;
  answer_timeout : float;
}

let state t site = t.states.(site - 1)

let higher t site = List.filter (fun s -> s > site) (Sim.World.sites t.world)
let everyone_else t site = List.filter (fun s -> s <> site) (Sim.World.sites t.world)

let note_leader t st leader =
  (match st.leaders_seen with
  | (_, l) :: _ when l = leader -> ()
  | _ -> st.leaders_seen <- (Sim.World.now t.world, leader) :: st.leaders_seen);
  st.leader <- Some leader

let l_elections_won = Sim.Metrics.label "elections_won"
let l_elections_started = Sim.Metrics.label "elections_started"

let declare_victory t ctx =
  let self = ctx.Sim.World.self in
  let st = state t self in
  st.awaiting_answers <- false;
  if st.leader <> Some self then Sim.Metrics.bump (Sim.World.metrics t.world) l_elections_won;
  note_leader t st self;
  (* re-broadcast even as the incumbent: a requester that just started an
     election is waiting to hear who is in charge *)
  Sim.World.broadcast ctx ~dsts:(everyone_else t self) (Coordinator self)

let rec start_election t ctx =
  let self = ctx.Sim.World.self in
  let st = state t self in
  if not st.awaiting_answers then begin
    Sim.Metrics.bump (Sim.World.metrics t.world) l_elections_started;
    match higher t self with
    | [] -> declare_victory t ctx
    | rivals ->
        st.awaiting_answers <- true;
        Sim.World.broadcast ctx ~dsts:rivals Election;
        let timer =
          Sim.World.set_timer ctx ~delay:t.answer_timeout (fun () ->
              if st.awaiting_answers then declare_victory t ctx)
        in
        st.answer_timer <- Some timer
  end

and on_message t ctx ~src msg =
  let self = ctx.Sim.World.self in
  let st = state t self in
  match msg with
  | Election ->
      (* a lower site wants the job: bully it and run ourselves *)
      Sim.World.send ctx ~dst:src Answer;
      start_election t ctx
  | Answer ->
      (* a higher site is alive: stand down and wait for its declaration *)
      st.awaiting_answers <- false;
      (match st.answer_timer with
      | Some id ->
          Sim.World.cancel_timer ctx id;
          st.answer_timer <- None
      | None -> ())
  | Coordinator c ->
      st.awaiting_answers <- false;
      note_leader t st c

let on_peer_down t ctx failed =
  let st = state t ctx.Sim.World.self in
  (* restart the election if the incumbent died, or if we were waiting on
     the failed rival's answer *)
  if st.leader = Some failed then begin
    st.leader <- None;
    start_election t ctx
  end
  else if st.awaiting_answers && failed > ctx.Sim.World.self then start_election t ctx

let on_restart t ctx =
  let st = state t ctx.Sim.World.self in
  st.leader <- None;
  st.awaiting_answers <- false;
  st.answer_timer <- None;
  (* a recovered site re-enters the fray: if it outranks the incumbent it
     will usurp *)
  start_election t ctx

(** [create ~n_sites ~seed ()] sets up an election world; call {!run} to
    execute it with a crash/recovery schedule. *)
let create ?(answer_timeout = 4.0) ~n_sites ~seed () =
  let world = Sim.World.create ~n_sites ~seed ~msg_to_string () in
  {
    world;
    states =
      Array.init n_sites (fun i ->
          { site = i + 1; leader = None; awaiting_answers = false; answer_timer = None; leaders_seen = [] });
    answer_timeout;
  }

(** [run t ~crashes ~recoveries ()] starts an election at every site at
    time 0 and plays out the failure schedule.  Returns the final
    simulation time. *)
let run t ?(crashes = []) ?(recoveries = []) ?(until = 10_000.0) () =
  List.iter (fun (s, at) -> Sim.World.schedule_crash t.world ~at s) crashes;
  List.iter (fun (s, at) -> Sim.World.schedule_recovery t.world ~at s) recoveries;
  let handlers _site : msg Sim.World.handlers =
    {
      Sim.World.on_start = (fun ctx -> start_election t ctx);
      on_message = (fun ctx ~src msg -> on_message t ctx ~src msg);
      on_peer_down = (fun ctx failed -> on_peer_down t ctx failed);
      on_peer_up = (fun _ctx _ -> ());
      on_restart = (fun ctx -> on_restart t ctx);
    }
  in
  Sim.World.run t.world ~handlers ~until ()

(** The leader according to [site], as of the end of the run. *)
let leader_at t ~site = (state t site).leader

(** Every (time, leader) declaration [site] witnessed, oldest first. *)
let leader_history t ~site = List.rev (state t site).leaders_seen

(** All operational sites agree on an operational leader. *)
let agreement t =
  let ops = Sim.World.operational_sites t.world in
  match ops with
  | [] -> true
  | first :: _ -> (
      match leader_at t ~site:first with
      | None -> false
      | Some l ->
          Sim.World.is_alive t.world l
          && List.for_all (fun s -> leader_at t ~site:s = Some l) ops)
