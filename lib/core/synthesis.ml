(** The design method for nonblocking protocols (paper §6, "Making the
    canonical 2PC protocol nonblocking").

    Given a protocol synchronous within one state transition, the lemma's
    two constraints are violated only on edges leading into commit states
    from noncommittable states.  Inserting a {e buffer state} ("prepare to
    commit") on every such edge satisfies both constraints: the buffer state
    is committable (it is entered only once every site has voted yes), it
    separates the wait state from the commit state, and the extra message
    round keeps the protocol synchronous.

    Two levels are provided:
    - {!buffer_skeleton} transforms a canonical skeleton (pure graph
      rewrite) — applied to {!Skeleton.canonical_2pc} it yields exactly
      {!Skeleton.canonical_3pc};
    - {!buffer_protocol} transforms a full message-level protocol by
      splicing a prepare phase in front of every commit-entering
      transition — applied to the catalog's 2PCs it yields the catalog's
      3PCs, which are defined that way. *)

(* [k] fresh buffer-state names ["p"], ["p1"], ["p2"], … avoiding [taken]. *)
let fresh_names taken k =
  let rec go j k acc =
    if k = 0 then List.rev acc
    else
      let cand = if j = 0 then "p" else Fmt.str "p%d" j in
      if List.mem cand taken then go (j + 1) k acc else go (j + 1) (k - 1) (cand :: acc)
  in
  go 0 k []

(** [buffer_skeleton sk] inserts a fresh buffer state on every edge from a
    noncommittable state into a commit state.  The buffer state is marked
    committable; when several offending edges share a source, one buffer
    state per (source, commit target) pair is created, named
    ["p"], ["p1"], … *)
let buffer_skeleton (sk : Skeleton.t) : Skeleton.t =
  let offending =
    List.filter
      (fun (src, dst) ->
        Types.is_commit (Skeleton.kind_of sk dst) && not (Skeleton.is_committable sk src))
      sk.Skeleton.edges
  in
  if offending = [] then sk
  else begin
    let taken = List.map (fun s -> s.Skeleton.id) sk.Skeleton.states in
    let buffers = List.combine offending (fresh_names taken (List.length offending)) in
    let states =
      sk.Skeleton.states
      @ List.map
          (fun (_, name) -> { Skeleton.id = name; kind = Types.Buffer; committable = true })
          buffers
    in
    let edges =
      List.concat_map
        (fun (src, dst) ->
          match List.assoc_opt (src, dst) buffers with
          | Some name -> [ (src, name); (name, dst) ]
          | None -> [ (src, dst) ])
        sk.Skeleton.edges
    in
    Skeleton.make ~name:(sk.Skeleton.name ^ "+buffer") ~states ~initial:sk.Skeleton.initial ~edges
  end

(** [committable a state]: a state is committable iff it is a commit state,
    or it is not final and all its successors are committable. *)
let committable (a : Automaton.t) : string -> bool =
  let memo = Hashtbl.create 8 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some b -> b
    | None ->
        let kind = Automaton.kind_of a id in
        let b =
          Types.is_commit kind
          || ((not (Types.is_final kind)) && List.for_all go (Automaton.successors a id))
        in
        Hashtbl.add memo id b;
        b
  in
  go

(** Result of transforming a full protocol: the rewritten protocol plus the
    names of the buffer states introduced at each site. *)
type protocol_result = { protocol : Protocol.t; buffers_added : (Types.site * string) list }

(* Rewrites one FSA: every transition [src -> c] where [c] is a commit state
   and [src] is noncommittable is split into a first hop [src -> p], built
   by [split tr p], and a second hop [p -> c] that consumes what [split]
   returns and emits what [tr] emitted.  All offending transitions from one
   source share one buffer state (the prepared state is per site, not per
   edge), listed right after its source; the second hops follow the
   original transitions.  The runtime and the model checker iterate these
   lists, so this order reaches traces and state numbering; the catalog's
   3PC digests in test_catalog.ml pin it. *)
let buffer_automaton ~split (a : Automaton.t) : Automaton.t * string list =
  let committable = committable a in
  let offending (tr : Automaton.transition) =
    Types.is_commit (Automaton.kind_of a tr.to_state) && not (committable tr.from_state)
  in
  let sources =
    List.filter offending a.transitions
    |> List.map (fun (tr : Automaton.transition) -> tr.from_state)
    |> List.sort_uniq compare
  in
  if sources = [] then (a, [])
  else begin
    let taken = List.map (fun (s : Automaton.state) -> s.id) a.states in
    let buffer_of = List.combine sources (fresh_names taken (List.length sources)) in
    let hops =
      List.map
        (fun (tr : Automaton.transition) ->
          if not (offending tr) then (tr, None)
          else
            let p = List.assoc tr.from_state buffer_of in
            let first, consumes = split tr p in
            let second =
              { Automaton.from_state = p; to_state = tr.to_state; consumes; emits = tr.emits; vote = None }
            in
            (first, Some second))
        a.transitions
    in
    let states =
      List.concat_map
        (fun (s : Automaton.state) ->
          match List.assoc_opt s.id buffer_of with
          | Some p -> [ s; { Automaton.id = p; kind = Types.Buffer } ]
          | None -> [ s ])
        a.states
    in
    ( Automaton.make ~site:a.site ~states ~initial:a.initial
        ~transitions:(List.map fst hops @ List.filter_map snd hops),
      List.map snd buffer_of )
  end

(** [buffer_protocol p] applies the buffer-state transformation to a
    protocol of either paradigm, locating the offending transitions with
    {!committable}.  Central site: the coordinator's commit announcement
    becomes a prepare round followed by an ack-collected commit round.
    Decentralized: one extra interchange of [prepare] messages precedes
    committing. *)
let buffer_protocol (p : Protocol.t) : protocol_result =
  let prepare src dst = Message.make ~name:Message.prepare ~src ~dst in
  (* [site] sends [prepare] to [peers] on entering the buffer state and
     commits once every peer has answered with [reply] *)
  let announce ~site ~peers ~reply (tr : Automaton.transition) buffer =
    ( { tr with to_state = buffer; emits = List.map (prepare site) peers },
      List.map (fun j -> Message.make ~name:reply ~src:j ~dst:site) peers )
  in
  (* a slave answers the coordinator's [prepare] with [ack] and commits on
     the commit notice it used to read in one step *)
  let answer ~site (tr : Automaton.transition) buffer =
    ( {
        tr with
        to_state = buffer;
        consumes = [ prepare 1 site ];
        emits = [ Message.make ~name:Message.ack ~src:site ~dst:1 ];
      },
      tr.consumes )
  in
  let split site =
    match p.paradigm with
    | Protocol.Central_site when site = 1 ->
        announce ~site ~peers:(List.tl (Protocol.sites p)) ~reply:Message.ack
    | Protocol.Central_site -> answer ~site
    | Protocol.Decentralized -> announce ~site ~peers:(Protocol.sites p) ~reply:Message.prepare
  in
  let rewritten =
    List.map
      (fun site ->
        let a, added = buffer_automaton ~split:(split site) (Protocol.automaton p site) in
        (a, List.map (fun b -> (site, b)) added))
      (Protocol.sites p)
  in
  {
    protocol =
      Protocol.make ~name:(p.name ^ "+buffer") ~paradigm:p.paradigm
        ~automata:(Array.of_list (List.map fst rewritten))
        ~initial_network:p.initial_network;
    buffers_added = List.concat_map snd rewritten;
  }
