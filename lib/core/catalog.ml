(** The commit-protocol catalog: every protocol figure in the paper,
    parameterized by the number of participating sites.

    Modelling note on vote collection: in the paper's FSA figures the
    decision transition of a vote collector reads the complete string of
    votes (e.g. the coordinator's [w1] transition is labelled
    "(yes_1), yes_2 … yes_n / commit_2 … commit_n").  We therefore generate
    one transition per vote vector — all-yes leading to the commit path, any
    vector containing a no leading to abort.  This is what makes both
    paradigms *synchronous within one state transition* (paper §4), the
    property on which the adjacency lemma and the buffer-state design method
    rest.  The number of transitions is exponential in the number of voters,
    so the generators insist on [n <= max_sites]; the analyses in this
    repository never need more.

    An internal decision — the coordinator "agreeing" (yes_1) or unilaterally
    vetoing (no_1) — is folded into the same transition, as in the figures:
    the all-yes vector yields both a commit-path transition (coordinator
    votes yes) and an abort transition (coordinator votes no). *)

let max_sites = 10

let check_n n =
  if n < 2 then Fmt.invalid_arg "Catalog: need at least 2 sites, got %d" n;
  if n > max_sites then
    Fmt.invalid_arg "Catalog: vote-vector FSAs limited to %d sites, got %d" max_sites n

(* State constructors shared by every catalog protocol.  The canonical state
   names of the paper are reused at every site: q, w, p, a, c. *)
let st_q = { Automaton.id = "q"; kind = Types.Initial }
let st_w = { Automaton.id = "w"; kind = Types.Wait }
let st_a = { Automaton.id = "a"; kind = Types.Abort }
let st_c = { Automaton.id = "c"; kind = Types.Commit }

let msg name src dst = Message.make ~name ~src ~dst

(** All vote vectors over the given voters: each voter maps to [Yes] or
    [No].  Returned as (vector, all_yes) pairs where the vector lists one
    vote message name per voter. *)
let vote_vectors voters =
  let rec go = function
    | [] -> [ [] ]
    | v :: rest ->
        let tails = go rest in
        List.concat_map (fun tl -> [ (v, Types.Yes) :: tl; (v, Types.No) :: tl ]) tails
  in
  go voters

let vote_msg (site, v) ~dst =
  match v with
  | Types.Yes -> msg Message.yes site dst
  | Types.No -> msg Message.no site dst

let all_yes vector = List.for_all (fun (_, v) -> v = Types.Yes) vector

(* ------------------------------------------------------------------ *)
(* Central-site 2PC (paper Fig. "The FSAs for the 2PC protocol")       *)
(* ------------------------------------------------------------------ *)

let central_coordinator_2pc n =
  let slaves = List.init (n - 1) (fun i -> i + 2) in
  let t_start =
    {
      Automaton.from_state = "q";
      to_state = "w";
      consumes = [ msg Message.request Types.env 1 ];
      emits = List.map (fun i -> msg Message.xact 1 i) slaves;
      vote = None;
    }
  in
  let decision_transitions =
    vote_vectors slaves
    |> List.concat_map (fun vector ->
           let consumed = List.map (vote_msg ~dst:1) vector in
           if all_yes vector then
             [
               (* (yes_1), yes_2 … yes_n / commit_2 … commit_n *)
               {
                 Automaton.from_state = "w";
                 to_state = "c";
                 consumes = consumed;
                 emits = List.map (fun i -> msg Message.commit 1 i) slaves;
                 vote = Some Types.Yes;
               };
               (* (no_1), yes_2 … yes_n / abort_2 … abort_n : unilateral veto *)
               {
                 Automaton.from_state = "w";
                 to_state = "a";
                 consumes = consumed;
                 emits = List.map (fun i -> msg Message.abort 1 i) slaves;
                 vote = Some Types.No;
               };
             ]
           else
             [
               {
                 Automaton.from_state = "w";
                 to_state = "a";
                 consumes = consumed;
                 emits =
                   List.filter_map
                     (fun (i, v) ->
                       (* a slave that voted no has already aborted; the
                          abort notice goes to the yes-voters *)
                       if v = Types.Yes then Some (msg Message.abort 1 i) else None)
                     vector;
                 vote = None;
               };
             ])
  in
  Automaton.make ~site:1
    ~states:[ st_q; st_w; st_a; st_c ]
    ~initial:"q"
    ~transitions:(t_start :: decision_transitions)

let central_slave_2pc i =
  Automaton.make ~site:i
    ~states:[ st_q; st_w; st_a; st_c ]
    ~initial:"q"
    ~transitions:
      [
        {
          from_state = "q";
          to_state = "w";
          consumes = [ msg Message.xact 1 i ];
          emits = [ msg Message.yes i 1 ];
          vote = Some Types.Yes;
        };
        {
          from_state = "q";
          to_state = "a";
          consumes = [ msg Message.xact 1 i ];
          emits = [ msg Message.no i 1 ];
          vote = Some Types.No;
        };
        {
          from_state = "w";
          to_state = "c";
          consumes = [ msg Message.commit 1 i ];
          emits = [];
          vote = None;
        };
        {
          from_state = "w";
          to_state = "a";
          consumes = [ msg Message.abort 1 i ];
          emits = [];
          vote = None;
        };
      ]

(** Central-site two-phase commit on [n] sites: site 1 is the coordinator,
    sites 2..n are slaves. *)
let central_2pc n =
  check_n n;
  Protocol.make ~name:(Fmt.str "central-2pc-%d" n) ~paradigm:Protocol.Central_site
    ~automata:
      (Array.init n (fun i -> if i = 0 then central_coordinator_2pc n else central_slave_2pc (i + 1)))
    ~initial_network:[ msg Message.request Types.env 1 ]

(* ------------------------------------------------------------------ *)
(* Decentralized 2PC (paper Fig. "The decentralized 2PC protocol")     *)
(* ------------------------------------------------------------------ *)

let dec_site_2pc n i =
  let everyone = List.init n (fun j -> j + 1) in
  let t_vote_yes =
    {
      Automaton.from_state = "q";
      to_state = "w";
      consumes = [ msg Message.xact Types.env i ];
      emits = List.map (fun j -> msg Message.yes i j) everyone;
      vote = Some Types.Yes;
    }
  and t_vote_no =
    {
      Automaton.from_state = "q";
      to_state = "a";
      consumes = [ msg Message.xact Types.env i ];
      emits = List.map (fun j -> msg Message.no i j) everyone;
      vote = Some Types.No;
    }
  in
  let decision_transitions =
    vote_vectors everyone
    |> List.filter_map (fun vector ->
           (* a site in w has voted yes itself, so only vectors where its own
              vote is yes are receivable *)
           if List.assoc i vector <> Types.Yes then None
           else
             let consumed = List.map (vote_msg ~dst:i) vector in
             if all_yes vector then
               Some
                 {
                   Automaton.from_state = "w";
                   to_state = "c";
                   consumes = consumed;
                   emits = [];
                   vote = None;
                 }
             else
               Some
                 {
                   Automaton.from_state = "w";
                   to_state = "a";
                   consumes = consumed;
                   emits = [];
                   vote = None;
                 })
  in
  Automaton.make ~site:i
    ~states:[ st_q; st_w; st_a; st_c ]
    ~initial:"q"
    ~transitions:(t_vote_yes :: t_vote_no :: decision_transitions)

(** Fully decentralized two-phase commit: every site runs the same FSA,
    broadcasting its vote (including to itself, per the paper) and reading
    the full vote vector. *)
let decentralized_2pc n =
  check_n n;
  Protocol.make ~name:(Fmt.str "decentralized-2pc-%d" n) ~paradigm:Protocol.Decentralized
    ~automata:(Array.init n (fun i -> dec_site_2pc n (i + 1)))
    ~initial_network:(List.init n (fun i -> msg Message.xact Types.env (i + 1)))

(* ------------------------------------------------------------------ *)
(* 3PC (paper Figs. "A nonblocking central site 3PC", "A nonblocking    *)
(* decentralized 3PC"): the design method of §6 applied to 2PC          *)
(* ------------------------------------------------------------------ *)

(** Central-site three-phase commit on [n] sites: central 2PC with the
    buffer state [p] (prepared to commit) inserted between [w] and [c]. *)
let central_3pc n =
  { (Synthesis.buffer_protocol (central_2pc n)).protocol with
    Protocol.name = Fmt.str "central-3pc-%d" n }

(** Fully decentralized three-phase commit: decentralized 2PC with a third
    round of [prepare] interchange inserted before committing, making the
    protocol nonblocking. *)
let decentralized_3pc n =
  { (Synthesis.buffer_protocol (decentralized_2pc n)).protocol with
    Protocol.name = Fmt.str "decentralized-3pc-%d" n }

(* ------------------------------------------------------------------ *)
(* 1PC (paper §"1-Phase Commit Protocol")                              *)
(* ------------------------------------------------------------------ *)

(** One-phase commit: the coordinator relays the client's decision; slaves
    cannot vote.  Kept in the catalog to demonstrate the paper's point that
    1PC is inadequate (no unilateral abort) and blocking. *)
let one_pc n =
  check_n n;
  let slaves = List.init (n - 1) (fun i -> i + 2) in
  let coordinator =
    Automaton.make ~site:1
      ~states:[ st_q; st_a; st_c ]
      ~initial:"q"
      ~transitions:
        [
          {
            from_state = "q";
            to_state = "c";
            consumes = [ msg Message.request Types.env 1 ];
            emits = List.map (fun i -> msg Message.commit 1 i) slaves;
            vote = Some Types.Yes;
          };
          {
            from_state = "q";
            to_state = "a";
            consumes = [ msg Message.request Types.env 1 ];
            emits = List.map (fun i -> msg Message.abort 1 i) slaves;
            vote = Some Types.No;
          };
        ]
  in
  let slave i =
    Automaton.make ~site:i
      ~states:[ st_q; st_a; st_c ]
      ~initial:"q"
      ~transitions:
        [
          {
            from_state = "q";
            to_state = "c";
            consumes = [ msg Message.commit 1 i ];
            emits = [];
            vote = None;
          };
          {
            from_state = "q";
            to_state = "a";
            consumes = [ msg Message.abort 1 i ];
            emits = [];
            vote = None;
          };
        ]
  in
  Protocol.make ~name:(Fmt.str "1pc-%d" n) ~paradigm:Protocol.Central_site
    ~automata:(Array.init n (fun i -> if i = 0 then coordinator else slave (i + 1)))
    ~initial_network:[ msg Message.request Types.env 1 ]

(** A deliberately broken central 2PC variant in which the coordinator may
    abort spontaneously (a timeout) without reading the votes.  Used in
    tests: it is {e not} synchronous within one state transition, so the
    adjacency lemma does not apply to it. *)
let central_2pc_hasty n =
  check_n n;
  let base = central_2pc n in
  let coord = Protocol.automaton base 1 in
  let slaves = List.init (n - 1) (fun i -> i + 2) in
  let hasty_abort =
    {
      Automaton.from_state = "w";
      to_state = "a";
      consumes = [];
      emits = List.map (fun i -> msg Message.abort 1 i) slaves;
      vote = Some Types.No;
    }
  in
  let coord' =
    Automaton.make ~site:1 ~states:coord.Automaton.states ~initial:coord.Automaton.initial
      ~transitions:(coord.Automaton.transitions @ [ hasty_abort ])
  in
  Protocol.make
    ~name:(Fmt.str "central-2pc-hasty-%d" n)
    ~paradigm:Protocol.Central_site
    ~automata:(Array.init n (fun i -> if i = 0 then coord' else Protocol.automaton base (i + 1)))
    ~initial_network:base.Protocol.initial_network

(** Paxos Commit's single-site projection: each participant runs a
    2PC-shaped FSA — vote, then learn the outcome.  The nonblocking-ness
    of Paxos Commit lives in the replicated coordinator, outside the
    single-site FSA formalism, so the projection itself is blocking and
    the catalog says so ([nonblocking_expected = false]): the
    concurrency-set and buffer-state analyses apply to what a single
    site can observe, and the replication win shows up only on the
    runtime harnesses ({!module:Engine.Paxos} and the database layer). *)
let paxos_commit n =
  check_n n;
  let base = central_2pc n in
  Protocol.make
    ~name:(Fmt.str "paxos-commit-%d" n)
    ~paradigm:Protocol.Central_site
    ~automata:(Array.init n (fun i -> Protocol.automaton base (i + 1)))
    ~initial_network:base.Protocol.initial_network

type entry = { label : string; build : int -> Protocol.t; nonblocking_expected : bool }

(** Every protocol in the catalog, with the paper's verdict on it. *)
let all : entry list =
  [
    { label = "1pc"; build = one_pc; nonblocking_expected = false };
    { label = "central-2pc"; build = central_2pc; nonblocking_expected = false };
    { label = "decentralized-2pc"; build = decentralized_2pc; nonblocking_expected = false };
    { label = "central-3pc"; build = central_3pc; nonblocking_expected = true };
    { label = "decentralized-3pc"; build = decentralized_3pc; nonblocking_expected = true };
    { label = "paxos-commit"; build = paxos_commit; nonblocking_expected = false };
  ]

let find label =
  match List.find_opt (fun e -> e.label = label) all with
  | Some e -> e
  | None ->
      Fmt.invalid_arg "Catalog.find: unknown protocol %S (known: %s)" label
        (String.concat ", " (List.map (fun e -> e.label) all))
