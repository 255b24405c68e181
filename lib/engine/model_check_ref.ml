(** Reference implementation of {!Model_check}: the original
    string-keyed exhaustive checker, kept verbatim as the differential
    baseline for the interned engine.

    It hashes every state by formatting every network message to a string
    ([Core.Message.show]) and parses termination messages out of prefixed
    names ("!move:…") — exactly the costs the interned engine removes.
    The differential tests (and the [@bench-smoke] alias) assert both
    engines produce identical [explored] counts and verdicts over the
    catalog; the state-space bench reports the speedup against this
    module.  Not for production use: orders of magnitude slower on large
    state spaces. *)

module MS = Core.Message.Multiset

type st = Model_check.st = {
  locals : string array;
  voted : bool array;
  alive : bool array;
  aware : bool array;
  crashes_left : int;
  network : MS.t;
  moving : (string * int list) option array;
  polling : (int list * (int * string) list) option array;
  polled : bool array;
  epoch : int array;
}

let equal_st a b =
  a.locals = b.locals && a.voted = b.voted && a.alive = b.alive && a.aware = b.aware
  && a.crashes_left = b.crashes_left
  && MS.equal a.network b.network
  && a.moving = b.moving && a.polling = b.polling && a.polled = b.polled && a.epoch = b.epoch

let hash_st s =
  Hashtbl.hash
    ( s.locals,
      s.voted,
      s.alive,
      s.aware,
      s.crashes_left,
      List.map Core.Message.show (MS.to_list s.network),
      s.moving,
      s.polling,
      s.polled,
      s.epoch )

module Tbl = Hashtbl.Make (struct
  type t = st

  let equal = equal_st
  let hash = hash_st
end)

(* reserved termination-message names *)
let move_name target = "!move:" ^ target
let mack_name = "!mack"
let streq_name = "!streq"
let strep_name state = "!strep:" ^ state

let is_strep m =
  String.length m.Core.Message.name > 7 && String.sub m.Core.Message.name 0 7 = "!strep:"

let strep_state m = String.sub m.Core.Message.name 7 (String.length m.Core.Message.name - 7)
let decide_name (o : Core.Types.outcome) =
  match o with Core.Types.Committed -> "!decide:c" | Aborted -> "!decide:a"

let is_move m = String.length m.Core.Message.name > 6 && String.sub m.Core.Message.name 0 6 = "!move:"
let move_target m = String.sub m.Core.Message.name 6 (String.length m.Core.Message.name - 6)

let outcome_of_decide m =
  if m.Core.Message.name = "!decide:c" then Core.Types.Committed else Core.Types.Aborted

type config = Model_check.config = {
  rulebook : Rulebook.t;
  max_crashes : int;
  limit : int;
  rule : [ `Skeen | `Quorum ];
}

type report = Model_check.report = {
  explored : int;
  inconsistent : st list;
  blocked_terminals : st list;
  safe : bool;
  nonblocking : bool;
  counterexample : st list option;
}

let run (cfg : config) : report =
  let protocol = cfg.rulebook.Rulebook.protocol in
  let n = Core.Protocol.n_sites protocol in
  let automaton i = Core.Protocol.automaton protocol (i + 1) in
  let kind_of i id = Core.Automaton.kind_of (automaton i) id in
  let final_state_for i (o : Core.Types.outcome) =
    let want = match o with Core.Types.Committed -> Core.Types.Commit | Aborted -> Core.Types.Abort in
    match
      List.find_opt (fun s -> s.Core.Automaton.kind = want) (automaton i).Core.Automaton.states
    with
    | Some s -> s.Core.Automaton.id
    | None -> assert false
  in
  let decided st i = Core.Types.is_final (kind_of i st.locals.(i)) in
  let site_outcome st i = Core.Types.outcome_of_kind (kind_of i st.locals.(i)) in
  (* the elected backup: lowest operational site (no recoveries, so
     operational = never crashed) *)
  let leader st =
    let rec go i = if i >= n then None else if st.alive.(i) then Some i else go (i + 1) in
    go 0
  in
  let some_crash st = Array.exists not st.alive in
  (* add a message unless its target is dead (reliable network: undeliverable) *)
  let deliverable st msgs = List.filter (fun m -> st.alive.(m.Core.Message.dst - 1)) msgs in

  (* ---- successor enumeration ---- *)
  let successors st : st list =
    let succs = ref [] in
    let push s = succs := s :: !succs in
    for i = 0 to n - 1 do
      if st.alive.(i) then begin
        (* 1. protocol FSA steps, complete and (if crash budget remains)
           partially completed.  A backup coordinator with phase 1 in
           flight is frozen: its decision must come from the state it
           moved everyone to, not from wherever a stale protocol message
           would drift it (the runtime enforces the same freeze by not
           firing the FSA outside Normal mode — an earlier version of
           this model omitted it and the checker produced a genuine
           split-brain counterexample through exactly that hole) *)
        if (not (decided st i)) && st.moving.(i) = None && not st.aware.(i) then
          List.iter
            (fun (tr : Core.Automaton.transition) ->
              let base_net =
                match MS.remove_all tr.Core.Automaton.consumes st.network with
                | Some net -> net
                | None -> assert false
              in
              let locals = Array.copy st.locals in
              locals.(i) <- tr.Core.Automaton.to_state;
              let voted = Array.copy st.voted in
              (match tr.Core.Automaton.vote with
              | Some Core.Types.Yes -> voted.(i) <- true
              | Some Core.Types.No | None -> ());
              (* complete transition *)
              push
                {
                  st with
                  locals;
                  voted;
                  network = MS.add_all (deliverable st tr.Core.Automaton.emits) base_net;
                };
              (* crash after forcing the log, having sent only the first
                 k messages, for every k *)
              if st.crashes_left > 0 then
                for k = 0 to List.length tr.Core.Automaton.emits do
                  let sent = List.filteri (fun j _ -> j < k) tr.Core.Automaton.emits in
                  let alive = Array.copy st.alive in
                  alive.(i) <- false;
                  let moving = Array.copy st.moving in
                  moving.(i) <- None;
                  let polling = Array.copy st.polling in
                  polling.(i) <- None;
                  push
                    {
                      st with
                      locals;
                      voted;
                      alive;
                      crashes_left = st.crashes_left - 1;
                      network = MS.add_all (deliverable st sent) base_net;
                      moving;
                      polling;
                    }
                done)
            (Core.Automaton.enabled (automaton i) st.locals.(i) st.network);
        (* 2. spontaneous crash (before any transition) *)
        if st.crashes_left > 0 then begin
          let alive = Array.copy st.alive in
          alive.(i) <- false;
          let moving = Array.copy st.moving in
          moving.(i) <- None;
          let polling = Array.copy st.polling in
          polling.(i) <- None;
          push { st with alive; crashes_left = st.crashes_left - 1; moving; polling }
        end;
        (* 2b. failure detection: after any crash, each site becomes aware
           at a nondeterministic moment; from then on its commit-protocol
           FSA is frozen and it may serve as backup coordinator *)
        if some_crash st && not st.aware.(i) then begin
          let aware = Array.copy st.aware in
          aware.(i) <- true;
          push { st with aware }
        end;
        (* 3. termination-message deliveries addressed to site i+1 *)
        List.iter
          (fun m ->
            if m.Core.Message.dst = i + 1 && String.length m.Core.Message.name > 0
               && m.Core.Message.name.[0] = '!' then begin
              let net = MS.remove m st.network in
              (* receiving a termination message is itself awareness *)
              let st =
                if st.aware.(i) then st
                else begin
                  let aware = Array.copy st.aware in
                  aware.(i) <- true;
                  { st with aware }
                end
              in
              if is_move m then
                if m.Core.Message.src < st.epoch.(i) then
                  (* stale directive from a deposed backup: discard *)
                  push { st with network = net }
                else if decided st i then
                  (* answer with the outcome instead of an ack *)
                  (match site_outcome st i with
                  | Some o ->
                      push
                        {
                          st with
                          network =
                            MS.add_all
                              (deliverable st
                                 [ Core.Message.make ~name:(decide_name o) ~src:(i + 1) ~dst:m.Core.Message.src ])
                              net;
                        }
                  | None -> assert false)
                else begin
                  let locals = Array.copy st.locals in
                  locals.(i) <- move_target m;
                  let epoch = Array.copy st.epoch in
                  epoch.(i) <- m.Core.Message.src;
                  push
                    {
                      st with
                      locals;
                      epoch;
                      network =
                        MS.add_all
                          (deliverable st
                             [ Core.Message.make ~name:mack_name ~src:(i + 1) ~dst:m.Core.Message.src ])
                          net;
                    }
                end
              else if m.Core.Message.name = mack_name then (
                match st.moving.(i) with
                | Some (target, awaiting) when List.mem m.Core.Message.src awaiting ->
                    let awaiting = List.filter (fun s -> s <> m.Core.Message.src) awaiting in
                    let moving = Array.copy st.moving in
                    moving.(i) <- Some (target, awaiting);
                    push { st with network = net; moving }
                | _ -> push { st with network = net })
              else if m.Core.Message.name = streq_name then
                (* quorum poll: report the current local state *)
                push
                  {
                    st with
                    network =
                      MS.add_all
                        (deliverable st
                           [
                             Core.Message.make
                               ~name:(strep_name st.locals.(i))
                               ~src:(i + 1) ~dst:m.Core.Message.src;
                           ])
                        net;
                  }
              else if is_strep m then (
                match st.polling.(i) with
                | Some (awaiting, reps) when List.mem m.Core.Message.src awaiting ->
                    let awaiting = List.filter (fun s -> s <> m.Core.Message.src) awaiting in
                    let polling = Array.copy st.polling in
                    polling.(i) <- Some (awaiting, (m.Core.Message.src, strep_state m) :: reps);
                    push { st with network = net; polling }
                | _ -> push { st with network = net })
              else begin
                (* a decide *)
                let o = outcome_of_decide m in
                if decided st i then push { st with network = net }
                else begin
                  let locals = Array.copy st.locals in
                  locals.(i) <- final_state_for i o;
                  let moving = Array.copy st.moving in
                  moving.(i) <- None;
                  push { st with locals; network = net; moving }
                end
              end
            end)
          (MS.to_list st.network);
        (* 4. backup coordinator actions at the elected leader, once it is
           aware of a failure *)
        if leader st = Some i && some_crash st && st.aware.(i) then begin
          let others = List.init n (fun j -> j) |> List.filter (fun j -> j <> i && st.alive.(j)) in
          (* broadcast helper with partial-crash variants *)
          let broadcast make_msg after =
            let msgs = List.map make_msg others in
            (* complete broadcast *)
            push (after { st with network = MS.add_all (deliverable st msgs) st.network });
            if st.crashes_left > 0 then
              for k = 0 to List.length msgs do
                let sent = List.filteri (fun j _ -> j < k) msgs in
                let s' = after { st with network = MS.add_all (deliverable st sent) st.network } in
                let alive = Array.copy s'.alive in
                alive.(i) <- false;
                let moving = Array.copy s'.moving in
                moving.(i) <- None;
                let polling = Array.copy s'.polling in
                polling.(i) <- None;
                push { s' with alive; crashes_left = st.crashes_left - 1; moving; polling }
              done
          in
          match st.moving.(i) with
          | Some (_, awaiting) ->
              (* phase 1 in flight: complete it when every awaited site is
                 acked or dead *)
              if List.for_all (fun j -> not st.alive.(j - 1)) awaiting || awaiting = [] then begin
                match
                  Rulebook.verdict cfg.rulebook ~site:(i + 1) ~state:st.locals.(i)
                with
                | Rulebook.Decide o ->
                    let locals = Array.copy st.locals in
                    locals.(i) <- final_state_for i o;
                    let moving = Array.copy st.moving in
                    moving.(i) <- None;
                    broadcast
                      (fun j -> Core.Message.make ~name:(decide_name o) ~src:(i + 1) ~dst:(j + 1))
                      (fun s -> { s with locals; moving })
                | Rulebook.Blocked -> ()
              end
          | None ->
              if decided st i then begin
                (* already final: phase 1 omitted; announce, but only if
                   someone still needs it and no announcement is already
                   in flight (keeps the graph finite) *)
                match site_outcome st i with
                | Some o ->
                    let needed =
                      List.exists
                        (fun j ->
                          (not (decided st j))
                          && not
                               (MS.to_list st.network
                               |> List.exists (fun m ->
                                      m.Core.Message.dst = j + 1
                                      && m.Core.Message.name = decide_name o)))
                        others
                    in
                    if needed then
                      broadcast
                        (fun j -> Core.Message.make ~name:(decide_name o) ~src:(i + 1) ~dst:(j + 1))
                        (fun s -> s)
                | None -> assert false
              end
              else begin
                match cfg.rule with
                | `Skeen -> (
                    match Rulebook.verdict cfg.rulebook ~site:(i + 1) ~state:st.locals.(i) with
                    | Rulebook.Decide _ ->
                        (* phase 1: move everyone to our state — only once
                           per configuration (no move already in flight
                           from us) *)
                        let already =
                          MS.to_list st.network
                          |> List.exists (fun m -> m.Core.Message.src = i + 1 && is_move m)
                        in
                        if not already then begin
                          let target = st.locals.(i) in
                          let moving = Array.copy st.moving in
                          moving.(i) <- Some (target, List.map (fun j -> j + 1) others);
                          let epoch = Array.copy st.epoch in
                          epoch.(i) <- max epoch.(i) (i + 1);
                          broadcast
                            (fun j ->
                              Core.Message.make ~name:(move_name target) ~src:(i + 1) ~dst:(j + 1))
                            (fun s -> { s with moving; epoch })
                        end
                    | Rulebook.Blocked -> ())
                | `Quorum -> (
                    let q = (n / 2) + 1 in
                    match st.polling.(i) with
                    | None ->
                        if not st.polled.(i) then begin
                          (* start the (single) state poll *)
                          let polled = Array.copy st.polled in
                          polled.(i) <- true;
                          let polling = Array.copy st.polling in
                          polling.(i) <- Some (List.map (fun j -> j + 1) others, []);
                          let epoch = Array.copy st.epoch in
                          epoch.(i) <- max epoch.(i) (i + 1);
                          broadcast
                            (fun j -> Core.Message.make ~name:streq_name ~src:(i + 1) ~dst:(j + 1))
                            (fun s -> { s with polled; polling; epoch })
                        end
                    | Some (awaiting, reps)
                      when awaiting = [] || List.for_all (fun j -> not st.alive.(j - 1)) awaiting
                      -> (
                        (* the view is complete: decide by counts, moves
                           monotone (never demoting a precommit) *)
                        let view = ((i + 1), st.locals.(i)) :: reps in
                        let kinds = List.map (fun (s, id) -> kind_of (s - 1) id) view in
                        let commit_decide o =
                          let locals = Array.copy st.locals in
                          locals.(i) <- final_state_for i o;
                          let polling = Array.copy st.polling in
                          polling.(i) <- None;
                          broadcast
                            (fun j -> Core.Message.make ~name:(decide_name o) ~src:(i + 1) ~dst:(j + 1))
                            (fun s -> { s with locals; polling })
                        in
                        let prepared_up =
                          List.length
                            (List.filter
                               (fun k -> k = Core.Types.Buffer || Core.Types.is_commit k)
                               kinds)
                        in
                        if List.exists Core.Types.is_commit kinds then
                          commit_decide Core.Types.Committed
                        else if List.exists Core.Types.is_abort kinds then
                          commit_decide Core.Types.Aborted
                        else if prepared_up >= q then begin
                          (* move the view up to the buffer state, then the
                             shared phase-1 completion commits *)
                          match
                            List.find_opt
                              (fun s -> s.Core.Automaton.kind = Core.Types.Buffer)
                              (automaton i).Core.Automaton.states
                          with
                          | Some b ->
                              let target = b.Core.Automaton.id in
                              let locals = Array.copy st.locals in
                              locals.(i) <- target;
                              let polling = Array.copy st.polling in
                              polling.(i) <- None;
                              let to_move =
                                List.filter_map
                                  (fun (s, id) ->
                                    if s <> i + 1 && st.alive.(s - 1) && id <> target then Some s
                                    else None)
                                  reps
                              in
                              let moving = Array.copy st.moving in
                              moving.(i) <- Some (target, to_move);
                              let epoch = Array.copy st.epoch in
                              epoch.(i) <- max epoch.(i) (i + 1);
                              broadcast
                                (fun j ->
                                  if List.mem (j + 1) to_move then
                                    Core.Message.make ~name:(move_name target) ~src:(i + 1)
                                      ~dst:(j + 1)
                                  else
                                    (* harmless re-move for already-buffered
                                       sites keeps the broadcast uniform *)
                                    Core.Message.make ~name:(move_name target) ~src:(i + 1)
                                      ~dst:(j + 1))
                                (fun s -> { s with locals; polling; moving; epoch })
                          | None -> ()
                        end
                        else if
                          List.length kinds - prepared_up >= q
                          && List.exists
                               (fun s -> s.Core.Automaton.kind = Core.Types.Buffer)
                               (automaton i).Core.Automaton.states
                          (* the unprepared-quorum abort is sound only when
                             committing requires a quorum-visible buffer
                             phase; without one (2PC) only visible outcomes
                             may decide *)
                        then commit_decide Core.Types.Aborted
                        else (* below quorum either way: blocked *) ())
                    | Some _ -> ())
              end
        end
      end
    done;
    !succs
  in

  (* ---- BFS ---- *)
  let init =
    {
      locals = Array.init n (fun i -> (automaton i).Core.Automaton.initial);
      voted = Array.make n false;
      alive = Array.make n true;
      aware = Array.make n false;
      crashes_left = cfg.max_crashes;
      network = MS.of_list protocol.Core.Protocol.initial_network;
      moving = Array.make n None;
      polling = Array.make n None;
      polled = Array.make n false;
      epoch = Array.make n 0;
    }
  in
  let seen = Tbl.create 4096 in
  let parent : st Tbl.t = Tbl.create 4096 in
  let queue = Queue.create () in
  Tbl.add seen init ();
  Queue.add init queue;
  let explored = ref 0 in
  let inconsistent = ref [] and blocked_terminals = ref [] in
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    incr explored;
    if !explored > cfg.limit then failwith "Model_check.run: state limit exceeded";
    (* safety: mixed outcomes across ALL sites (crashed sites' last forced
       log state counts) *)
    let kinds = Array.to_list (Array.mapi (fun i id -> kind_of i id) st.locals) in
    if List.exists Core.Types.is_commit kinds && List.exists Core.Types.is_abort kinds then
      inconsistent := st :: !inconsistent;
    let succs = successors st in
    if succs = [] then begin
      (* terminal: every operational site should have decided *)
      let blocked = ref false in
      Array.iteri (fun i a -> if a && not (decided st i) then blocked := true) st.alive;
      if !blocked then blocked_terminals := st :: !blocked_terminals
    end
    else
      List.iter
        (fun s ->
          if not (Tbl.mem seen s) then begin
            Tbl.add seen s ();
            Tbl.add parent s st;
            Queue.add s queue
          end)
        succs
  done;
  let path_to target =
    let rec go st acc =
      match Tbl.find_opt parent st with None -> st :: acc | Some p -> go p (st :: acc)
    in
    go target []
  in
  {
    explored = !explored;
    inconsistent = !inconsistent;
    blocked_terminals = !blocked_terminals;
    safe = !inconsistent = [];
    nonblocking = !blocked_terminals = [];
    counterexample =
      (match !inconsistent with [] -> None | st :: _ -> Some (path_to st));
  }

