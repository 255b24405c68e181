(** The reachable state graph (paper §3): all global states reachable from
    the transaction's initial global state, built by breadth-first search
    with hash-consed nodes.

    The graph grows exponentially with the number of sites; the paper notes
    that in practice it seldom needs to be built — the adjacency lemma
    suffices for synchronous protocols — but we build it exactly for small
    [n] both to regenerate the paper's figure and to cross-check the fast
    path.

    The search runs entirely over {!Intern}'s compact encoding: a global
    state is one packed [int array] (vote bitset, interned local state
    codes, sorted int-coded message multiset) deduplicated by
    {!Intern.Store}.  The store numbers states in discovery order, which
    is node order, and the BFS frontier is the range of indices not yet
    expanded.  The earlier implementation hashed states by formatting
    every network message to a string on every hash; interning removes
    all string traffic from the hot loop while producing the identical
    graph (same states, same indices, same edge order — see the
    differential tests in [test_statespace.ml]). *)

type node = {
  state : Global.t;
  index : int;  (** BFS discovery order, 0 = initial state *)
  mutable succs : (Types.site * Automaton.transition * int) list;
      (** outgoing edges: (site that moved, transition fired, target index) *)
}

type t = {
  protocol : Protocol.t;
  nodes : node array;  (** indexed by node [index] *)
}

exception Too_large of int

(* Packed encoding of a global state, for [n] sites:
   [| voted bitset; local code (site 1) .. local code (site n);
      sorted message codes ... |] *)

let decode_state (c : Intern.t) (data : int array) len : Global.t =
  let n = c.Intern.n in
  let voted = data.(0) in
  {
    Global.locals = Array.init n (fun i -> Intern.state_name c data.(i + 1));
    voted_yes = Array.init n (fun i -> voted land (1 lsl i) <> 0);
    network =
      Message.Multiset.of_list
        (List.init (len - n - 1) (fun j -> Intern.decode_msg c data.(j + n + 1)));
  }

(** [build ?limit p] explores the full reachable state graph of [p].
    Raises {!Too_large} if more than [limit] (default 2_000_000) global
    states are discovered. *)
let build ?(limit = 2_000_000) (p : Protocol.t) : t =
  let c = Intern.compile p in
  let n = Protocol.n_sites p in
  let store = Intern.Store.create () in
  let nodes = ref (Array.make 1024 None) in
  let intern_packed data len =
    let fresh = Intern.Store.length store in
    let ix = Intern.Store.intern store data ~len in
    if ix = fresh then begin
      if ix >= limit then raise (Too_large ix);
      if ix >= Array.length !nodes then begin
        let grown = Array.make (2 * Array.length !nodes) None in
        Array.blit !nodes 0 grown 0 (Array.length !nodes);
        nodes := grown
      end;
      !nodes.(ix) <- Some { state = decode_state c data len; index = ix; succs = [] }
    end;
    ix
  in
  let init =
    let data = Array.make (1 + n + Array.length c.Intern.initial_net) 0 in
    for i = 0 to n - 1 do
      data.(i + 1) <- c.Intern.initial_locals.(i)
    done;
    Array.blit c.Intern.initial_net 0 data (n + 1) (Array.length c.Intern.initial_net);
    data
  in
  ignore (intern_packed init (Array.length init));
  (* states are interned in discovery order, so the BFS frontier is the
     index range [next .. Store.length store - 1] *)
  let scratch = ref (Array.make 64 0) in
  let next = ref 0 in
  while !next < Intern.Store.length store do
    let node = match !nodes.(!next) with Some node -> node | None -> assert false in
    let data = Intern.Store.get store !next in
    incr next;
    let voted = data.(0) in
    let net = Array.sub data (n + 1) (Array.length data - n - 1) in
    let succs = ref [] in
    (* iterate sites in descending order so the accumulated (prepended)
       list comes out in ascending site order, matching the original
       [List.concat_map] over sites *)
    for i = n - 1 downto 0 do
      let trs = c.Intern.trans.(i).(data.(i + 1)) in
      for ti = Array.length trs - 1 downto 0 do
        let tr = trs.(ti) in
        match Intern.Net.remove_all tr.Intern.c_consumes net with
        | None -> ()
        | Some base ->
            let net' = Intern.Net.add_all tr.Intern.c_emits_sorted base in
            let len = 1 + n + Array.length net' in
            if len > Array.length !scratch then scratch := Array.make (2 * len) 0;
            let data' = !scratch in
            data'.(0) <- (if tr.Intern.c_vote_yes then voted lor (1 lsl i) else voted);
            Array.blit data 1 data' 1 n;
            data'.(i + 1) <- tr.Intern.c_to;
            Array.blit net' 0 data' (n + 1) (Array.length net');
            let ix = intern_packed data' len in
            succs := (i + 1, tr.Intern.c_tr, ix) :: !succs
      done
    done;
    node.succs <- !succs
  done;
  let arr =
    Array.init (Intern.Store.length store) (fun i ->
        match !nodes.(i) with Some node -> node | None -> assert false)
  in
  { protocol = p; nodes = arr }

let n_nodes t = Array.length t.nodes
let n_edges t = Array.fold_left (fun acc node -> acc + List.length node.succs) 0 t.nodes
let node t ix = t.nodes.(ix)
let initial_node t = t.nodes.(0)
let iter_nodes f t = Array.iter f t.nodes

let fold_nodes f t acc = Array.fold_left (fun acc node -> f node acc) acc t.nodes

(** Indices of terminal states (no successors). *)
let terminal_nodes t =
  Array.to_list t.nodes |> List.filter (fun node -> node.succs = [])

(** Terminal states that are not final: deadlocked states. *)
let deadlocked_nodes t =
  terminal_nodes t |> List.filter (fun node -> not (Global.is_final t.protocol node.state))

(** Reachable states containing both a local commit and a local abort —
    atomicity violations.  Empty for every correct commit protocol. *)
let inconsistent_nodes t =
  Array.to_list t.nodes |> List.filter (fun node -> Global.is_inconsistent t.protocol node.state)

(** The possible global verdicts: which final outcomes are reachable. *)
let reachable_outcomes t =
  let commit = ref false and abort = ref false in
  iter_nodes
    (fun node ->
      if Global.is_final t.protocol node.state then
        match node.state.Global.locals.(0) with
        | id ->
            let kind = Automaton.kind_of (Protocol.automaton t.protocol 1) id in
            if Types.is_commit kind then commit := true;
            if Types.is_abort kind then abort := true)
    t;
  (!commit, !abort)

(** Statistics summarising a reachable state graph, as printed by the
    experiment harness. *)
type stats = {
  states : int;
  edges : int;
  final : int;
  terminal : int;
  deadlocked : int;
  inconsistent : int;
  commit_reachable : bool;
  abort_reachable : bool;
}

(* One pass over the node array computes every count (the per-count list
   materialisations this replaced walked the array five times and built
   four intermediate lists). *)
let stats t =
  let edges = ref 0
  and final = ref 0
  and terminal = ref 0
  and deadlocked = ref 0
  and inconsistent = ref 0
  and commit_reachable = ref false
  and abort_reachable = ref false in
  Array.iter
    (fun node ->
      edges := !edges + List.length node.succs;
      let is_final = Global.is_final t.protocol node.state in
      if is_final then begin
        incr final;
        let kind = Automaton.kind_of (Protocol.automaton t.protocol 1) node.state.Global.locals.(0) in
        if Types.is_commit kind then commit_reachable := true;
        if Types.is_abort kind then abort_reachable := true
      end;
      if node.succs = [] then begin
        incr terminal;
        if not is_final then incr deadlocked
      end;
      if Global.is_inconsistent t.protocol node.state then incr inconsistent)
    t.nodes;
  {
    states = n_nodes t;
    edges = !edges;
    final = !final;
    terminal = !terminal;
    deadlocked = !deadlocked;
    inconsistent = !inconsistent;
    commit_reachable = !commit_reachable;
    abort_reachable = !abort_reachable;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>global states : %d@,edges         : %d@,final states  : %d@,terminal      : %d@,\
     deadlocked    : %d@,inconsistent  : %d@,commit reachable: %b@,abort reachable : %b@]"
    s.states s.edges s.final s.terminal s.deadlocked s.inconsistent s.commit_reachable
    s.abort_reachable
