(** Differential tests for the interned state-space engines: the packed
    int-array representation must change {e nothing} observable.

    - [Reachability.build] is checked against an inline reference BFS
      over [Global.successors] (the algorithm the pre-interning
      implementation used): same states, same edge multiset, same stats.
    - [Model_check.run] is checked against [Model_check_ref] (the
      original string-keyed engine, kept verbatim): identical [explored]
      counts and verdicts for every catalog protocol at small n/k, under
      both termination rules.
    - The packed encoding round-trips: [Packed.decode (Packed.encode st)]
      reproduces [st] exactly, including the order-sensitive move/poll
      bookkeeping lists. *)

module MC = Engine.Model_check

(* ---------------- reference reachability BFS ---------------- *)

module GTbl = Hashtbl.Make (Core.Global)

type ref_graph = { r_states : int; r_edges : int; r_terminal : int; r_final : int }

let reference_reach (p : Core.Protocol.t) : ref_graph =
  let seen = GTbl.create 256 in
  let queue = Queue.create () in
  let g0 = Core.Global.initial p in
  GTbl.add seen g0 ();
  Queue.add g0 queue;
  let states = ref 0 and edges = ref 0 and terminal = ref 0 and final = ref 0 in
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    incr states;
    if Core.Global.is_final p g then incr final;
    let succs = Core.Global.successors p g in
    edges := !edges + List.length succs;
    if succs = [] then incr terminal;
    List.iter
      (fun (_, _, g') ->
        if not (GTbl.mem seen g') then begin
          GTbl.add seen g' ();
          Queue.add g' queue
        end)
      succs
  done;
  { r_states = !states; r_edges = !edges; r_terminal = !terminal; r_final = !final }

let test_reachability_differential () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun n ->
          let p = e.Core.Catalog.build n in
          let g = Core.Reachability.build p in
          let s = Core.Reachability.stats g in
          let r = reference_reach p in
          let ctx = Fmt.str "%s n=%d" e.Core.Catalog.label n in
          Alcotest.(check int) (ctx ^ " states") r.r_states s.Core.Reachability.states;
          Alcotest.(check int) (ctx ^ " edges") r.r_edges s.Core.Reachability.edges;
          Alcotest.(check int) (ctx ^ " terminal") r.r_terminal s.Core.Reachability.terminal;
          Alcotest.(check int) (ctx ^ " final") r.r_final s.Core.Reachability.final)
        [ 2; 3 ])
    Core.Catalog.all

(* The interned graph must also agree with itself structurally: the edge
   list of every node targets valid indices and node [i] is at index [i]
   (DOT rendering and the analyses index directly). *)
let test_reachability_indices () =
  let g = Core.Reachability.build (Core.Catalog.decentralized_3pc 3) in
  Core.Reachability.iter_nodes
    (fun node ->
      Alcotest.(check bool) "self index" true (Core.Reachability.node g node.Core.Reachability.index == node);
      List.iter
        (fun (site, _, target) ->
          Alcotest.(check bool) "site in range" true (site >= 1 && site <= 3);
          Alcotest.(check bool) "target in range" true
            (target >= 0 && target < Core.Reachability.n_nodes g))
        node.Core.Reachability.succs)
    g

(* One-pass stats must equal the list-based accessors it replaced. *)
let test_stats_consistency () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      let g = Core.Reachability.build (e.Core.Catalog.build 3) in
      let s = Core.Reachability.stats g in
      Alcotest.(check int) "states" (Core.Reachability.n_nodes g) s.Core.Reachability.states;
      Alcotest.(check int) "edges" (Core.Reachability.n_edges g) s.Core.Reachability.edges;
      Alcotest.(check int) "terminal"
        (List.length (Core.Reachability.terminal_nodes g))
        s.Core.Reachability.terminal;
      Alcotest.(check int) "deadlocked"
        (List.length (Core.Reachability.deadlocked_nodes g))
        s.Core.Reachability.deadlocked;
      Alcotest.(check int) "inconsistent"
        (List.length (Core.Reachability.inconsistent_nodes g))
        s.Core.Reachability.inconsistent;
      let commit, abort = Core.Reachability.reachable_outcomes g in
      Alcotest.(check bool) "commit" commit s.Core.Reachability.commit_reachable;
      Alcotest.(check bool) "abort" abort s.Core.Reachability.abort_reachable)
    Core.Catalog.all

(* ---------------- model-check differential ---------------- *)

let check_config p k rule =
  { MC.rulebook = Engine.Rulebook.compile p; max_crashes = k; limit = 2_000_000; rule }

let assert_reports_equal ctx (a : MC.report) (b : MC.report) =
  Alcotest.(check int) (ctx ^ " explored") b.MC.explored a.MC.explored;
  Alcotest.(check bool) (ctx ^ " safe") b.MC.safe a.MC.safe;
  Alcotest.(check bool) (ctx ^ " nonblocking") b.MC.nonblocking a.MC.nonblocking;
  Alcotest.(check int) (ctx ^ " inconsistent") (List.length b.MC.inconsistent)
    (List.length a.MC.inconsistent);
  Alcotest.(check int) (ctx ^ " blocked") (List.length b.MC.blocked_terminals)
    (List.length a.MC.blocked_terminals);
  Alcotest.(check bool) (ctx ^ " cex") (b.MC.counterexample <> None) (a.MC.counterexample <> None)

let test_model_check_differential () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun (n, k) ->
          let cfg = check_config (e.Core.Catalog.build n) k `Skeen in
          assert_reports_equal
            (Fmt.str "%s n=%d k=%d" e.Core.Catalog.label n k)
            (MC.run cfg) (Engine.Model_check_ref.run cfg))
        [ (2, 0); (2, 1); (2, 2); (3, 0); (3, 1) ])
    Core.Catalog.all

let test_model_check_differential_quorum () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun (n, k) ->
          let cfg = check_config (e.Core.Catalog.build n) k `Quorum in
          assert_reports_equal
            (Fmt.str "%s n=%d k=%d quorum" e.Core.Catalog.label n k)
            (MC.run cfg) (Engine.Model_check_ref.run cfg))
        [ (2, 1); (3, 1) ])
    Core.Catalog.all

(* The deliberately broken 2PC variant (coordinator may abort without
   reading votes) and 1PC: the engines must agree on the impaired
   protocols too, and both must still see 2PC-family blocking. *)
let test_model_check_differential_broken () =
  let cfg = check_config (Core.Catalog.central_2pc_hasty 3) 1 `Skeen in
  let a = MC.run cfg and b = Engine.Model_check_ref.run cfg in
  assert_reports_equal "hasty-2pc n=3 k=1" a b;
  Alcotest.(check bool) "hasty 2PC blocks" false a.MC.nonblocking;
  let cfg = check_config (Core.Catalog.one_pc 3) 1 `Skeen in
  let a = MC.run cfg and b = Engine.Model_check_ref.run cfg in
  assert_reports_equal "1pc n=3 k=1" a b;
  Alcotest.(check bool) "1PC blocks" false a.MC.nonblocking

(* ---------------- golden verdict table ---------------- *)

(* The checker's verdicts over the catalog, pinned before the flat state
   store replaced the hash table of packed keys, so that later engine
   changes (and the retirement of [Model_check_ref]) are held to the same
   numbers.  A row is (protocol, n, k, termination rule, explored, safe,
   nonblocking, inconsistent states, blocked terminals, MD5 of [pp_st]
   over every reported state in report order: blocked terminals, then
   inconsistent states, then the counterexample path).  The quorum rule
   uses a majority, [n/2 + 1]. *)

type golden_row = string * int * int * [ `Skeen | `Quorum ] * int * bool * bool * int * int * string

let golden_fast : golden_row list =
  [
    ("1pc", 2, 0, `Skeen, 5, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("1pc", 2, 1, `Skeen, 35, true, false, 0, 5, "19540b4a5045afbf553e34f26e359e93");
    ("1pc", 2, 2, `Skeen, 58, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("1pc", 3, 0, `Skeen, 9, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("1pc", 3, 1, `Skeen, 259, true, false, 0, 9, "fd4155cdf062895a548d45bef45fcd5d");
    ("1pc", 3, 2, `Skeen, 729, true, false, 0, 64, "fa4f78b47295b57a619bbd443dbb66bd");
    ("1pc", 4, 1, `Skeen, 1661, true, false, 0, 17, "2d97acec07212038049d8e8e049b339b");
    ("1pc", 2, 1, `Quorum, 39, true, false, 0, 6, "be1d394611e4369ad97d5271e3c59433");
    ("1pc", 3, 1, `Quorum, 295, true, false, 0, 9, "e4e0c8891c2c469165005c64130e5cc6");
    ("1pc", 4, 1, `Quorum, 1969, true, false, 0, 24, "8542d840664fce84b4b37e541f58f2cb");
    ("central-2pc", 2, 0, `Skeen, 9, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-2pc", 2, 1, `Skeen, 85, true, false, 0, 6, "3d47691b332c8c00259fd8b1b2644516");
    ("central-2pc", 2, 2, `Skeen, 147, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-2pc", 3, 0, `Skeen, 23, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-2pc", 3, 1, `Skeen, 886, true, false, 0, 21, "ccd53dd9ca30f7c3ee3b8ec3d0c29bc0");
    ("central-2pc", 3, 2, `Skeen, 3348, true, false, 0, 239, "7f1d3d5914e3d431bc0a435c6275f77a");
    ("central-2pc", 4, 1, `Skeen, 11378, true, false, 0, 80, "2ee51e9456f7cdcf40cec77bd3a1d69c");
    ("central-2pc", 2, 1, `Quorum, 81, true, false, 0, 16, "fd047aeca9b96c42c9aab6fbd0671cad");
    ("central-2pc", 3, 1, `Quorum, 950, true, false, 0, 45, "bf63299711f7d1827841b98a74387112");
    ("central-2pc", 4, 1, `Quorum, 11291, true, false, 0, 236, "958792661339b34aa94482058319ed4e");
    ("decentralized-2pc", 2, 0, `Skeen, 14, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-2pc", 2, 1, `Skeen, 218, true, false, 0, 30, "f943be9663e81c775b446121e697b3f4");
    ("decentralized-2pc", 2, 2, `Skeen, 410, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-2pc", 3, 0, `Skeen, 46, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-2pc", 3, 1, `Skeen, 5396, true, false, 0, 311, "0c75e92fe2a0d907f572d64646fe2e81");
    ("decentralized-2pc", 3, 2, `Skeen, 24042, true, false, 0, 2276, "3f1627bd304c7b18b8a7ace16010a52e");
    ("decentralized-2pc", 2, 1, `Quorum, 234, true, false, 0, 44, "15b96d0edeb2238c9bc42908155a312e");
    ("decentralized-2pc", 3, 1, `Quorum, 6878, true, false, 0, 246, "e33d8b7bd40a645b203ab5be7ccbb91b");
    ("central-3pc", 2, 0, `Skeen, 11, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 2, 1, `Skeen, 131, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 2, 2, `Skeen, 233, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 3, 0, `Skeen, 27, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 3, 1, `Skeen, 1272, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 3, 2, `Skeen, 6102, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 4, 1, `Skeen, 15784, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-3pc", 2, 1, `Quorum, 107, true, false, 0, 24, "e0c3cd81bd8668c4c1b1d719cc33d3ec");
    ("central-3pc", 3, 1, `Quorum, 1429, true, false, 0, 13, "82aae114bfb730cec7bc96357b15dbe1");
    ("central-3pc", 4, 1, `Quorum, 15555, true, false, 0, 116, "ff59bf898bfca3d6c67821e358a41c8c");
    ("decentralized-3pc", 2, 0, `Skeen, 17, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 2, 1, `Skeen, 385, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 2, 2, `Skeen, 742, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 3, 0, `Skeen, 53, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 3, 1, `Skeen, 8847, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 3, 2, `Skeen, 52717, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 2, 1, `Quorum, 315, true, false, 0, 70, "fdd672c3b19c1fc0a2954f4307cd848d");
    ("decentralized-3pc", 3, 1, `Quorum, 9727, true, false, 0, 102, "7dd9140d8b63fc7a432c0c1c0485306b");
    ("paxos-commit", 2, 0, `Skeen, 9, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("paxos-commit", 2, 1, `Skeen, 85, true, false, 0, 6, "3d47691b332c8c00259fd8b1b2644516");
    ("paxos-commit", 2, 2, `Skeen, 147, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("paxos-commit", 3, 0, `Skeen, 23, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("paxos-commit", 3, 1, `Skeen, 886, true, false, 0, 21, "ccd53dd9ca30f7c3ee3b8ec3d0c29bc0");
    ("paxos-commit", 3, 2, `Skeen, 3348, true, false, 0, 239, "7f1d3d5914e3d431bc0a435c6275f77a");
    ("paxos-commit", 4, 1, `Skeen, 11378, true, false, 0, 80, "2ee51e9456f7cdcf40cec77bd3a1d69c");
    ("paxos-commit", 2, 1, `Quorum, 81, true, false, 0, 16, "fd047aeca9b96c42c9aab6fbd0671cad");
    ("paxos-commit", 3, 1, `Quorum, 950, true, false, 0, 45, "bf63299711f7d1827841b98a74387112");
    ("paxos-commit", 4, 1, `Quorum, 11291, true, false, 0, 236, "958792661339b34aa94482058319ed4e");
    ("central-2pc-hasty", 3, 0, `Skeen, 39, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("central-2pc-hasty", 3, 1, `Skeen, 2108, true, false, 0, 49, "9b9eb8ba5dd816020ed0865ef8a1703b");
    ("unilateral-abort", 2, 1, `Skeen, 241, false, false, 14, 26, "fe17007c44569a77e8f8635317804fc9");
    ("unilateral-abort", 2, 1, `Quorum, 255, false, false, 14, 38, "317d7d2e24c8d70dacbf9f25c7f11622");
  ]

(* The decentralized n=4 rows take most of a second each. *)
let golden_slow : golden_row list =
  [
    ("decentralized-2pc", 4, 1, `Skeen, 131838, true, false, 0, 2796, "2c7bd7a76c8eaef550f15e02fc538185");
    ("decentralized-2pc", 4, 1, `Quorum, 178394, true, false, 0, 2384, "9c0be0593565f832a39950f930baddba");
    ("decentralized-3pc", 4, 1, `Skeen, 240889, true, true, 0, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ("decentralized-3pc", 4, 1, `Quorum, 226577, true, false, 0, 1616, "b6cae6d86f0a3450d24b8db07fe982b5");
  ]

(* Two sites that each vote yes to the other and commit on the other's
   yes, but may also abort on their own after voting: unsafe by design.
   Every catalog row is safe, so only these rows pin the inconsistent
   states the checker reports, in its discovery order, and the
   counterexample path it rebuilds from its parent indices. *)
let unilateral_abort n =
  if n <> 2 then Fmt.invalid_arg "unilateral_abort: two sites, not %d" n;
  let msg name src dst = Core.Message.make ~name ~src ~dst in
  let site i =
    let other = 3 - i in
    let tr from_state to_state consumes emits vote =
      { Core.Automaton.from_state; to_state; consumes; emits; vote }
    in
    Core.Automaton.make ~site:i
      ~states:
        [
          { Core.Automaton.id = "q"; kind = Core.Types.Initial };
          { id = "w"; kind = Core.Types.Wait };
          { id = "c"; kind = Core.Types.Commit };
          { id = "a"; kind = Core.Types.Abort };
        ]
      ~initial:"q"
      ~transitions:
        [
          tr "q" "w" [ msg Core.Message.request 0 i ] [ msg Core.Message.yes i other ] (Some Core.Types.Yes);
          tr "q" "a" [ msg Core.Message.request 0 i ] [ msg Core.Message.no i other ] (Some Core.Types.No);
          tr "w" "c" [ msg Core.Message.yes other i ] [] None;
          tr "w" "a" [] [] None;
        ]
  in
  Core.Protocol.make ~name:"unilateral-abort-2" ~paradigm:Core.Protocol.Decentralized
    ~automata:[| site 1; site 2 |]
    ~initial_network:[ msg Core.Message.request 0 1; msg Core.Message.request 0 2 ]

let build_of label =
  if label = "central-2pc-hasty" then Core.Catalog.central_2pc_hasty
  else if label = "unilateral-abort" then unilateral_abort
  else (Core.Catalog.find label).Core.Catalog.build

let reported_digest (r : MC.report) =
  let states =
    r.MC.blocked_terminals @ r.MC.inconsistent @ Option.value r.MC.counterexample ~default:[]
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (Fmt.str "%a" MC.pp_st) states)))

let check_golden rows =
  List.iter
    (fun (label, n, k, rule, explored, safe, nonblocking, n_inconsistent, n_blocked, digest) ->
      let r = MC.run (check_config (build_of label n) k rule) in
      let ctx =
        Fmt.str "%s n=%d k=%d%s" label n k (match rule with `Skeen -> "" | `Quorum -> " quorum")
      in
      Alcotest.(check int) (ctx ^ " explored") explored r.MC.explored;
      Alcotest.(check bool) (ctx ^ " safe") safe r.MC.safe;
      Alcotest.(check bool) (ctx ^ " nonblocking") nonblocking r.MC.nonblocking;
      Alcotest.(check int) (ctx ^ " inconsistent") n_inconsistent (List.length r.MC.inconsistent);
      Alcotest.(check int) (ctx ^ " blocked") n_blocked (List.length r.MC.blocked_terminals);
      Alcotest.(check string) (ctx ^ " reported states") digest (reported_digest r))
    rows

(* ---------------- the state store ---------------- *)

module Store = Core.Intern.Store

(* Random int arrays (lengths 0-40, values up to 2^20, so past two-byte
   varints), each either fresh or a repeat of an earlier one, interned
   into one store; a polymorphic [Hashtbl] is the reference.  Up to
   12,000 arrays (about half of them distinct) take the index, sized
   for 512 states at first, through several resizes. *)
let gen_intern_stream =
  let open QCheck2.Gen in
  let arr = array_size (int_range 0 40) (int_range 0 (1 lsl 20)) in
  let small = array_size (int_range 0 3) (int_range 0 3) in
  list_size (int_range 0 12_000)
    (frequency [ (3, map (fun a -> `Fresh a) arr); (1, map (fun a -> `Fresh a) small); (4, map (fun i -> `Repeat i) nat) ])

let prop_store_matches_reference stream =
  let st = Store.create () in
  let reference = Hashtbl.create 64 in
  let seen = ref [||] and n_seen = ref 0 in
  let pick = function
    | `Fresh a -> a
    | `Repeat i -> if !n_seen = 0 then [||] else !seen.(i mod !n_seen)
  in
  List.iter
    (fun item ->
      let a = pick item in
      (* the caller's scratch buffer is longer than the state *)
      let buf = Array.append a [| 7; 7 |] in
      let before = Store.length st in
      let ix = Store.intern st buf ~len:(Array.length a) in
      (match Hashtbl.find_opt reference a with
      | Some expected ->
          if ix <> expected then QCheck2.Test.fail_reportf "a stored array got index %d, not %d" ix expected;
          if Store.length st <> before then QCheck2.Test.fail_report "a stored array grew the store"
      | None ->
          (* dense, first-seen order *)
          if ix <> before || Store.length st <> before + 1 then
            QCheck2.Test.fail_reportf "a new array got index %d of %d" ix (Store.length st);
          Hashtbl.add reference a ix;
          if !n_seen >= Array.length !seen then seen := Array.append !seen (Array.make (!n_seen + 16) [||]);
          !seen.(!n_seen) <- a;
          incr n_seen);
      ignore ix)
    stream;
  Hashtbl.iter
    (fun a ix -> if Store.get st ix <> a then QCheck2.Test.fail_reportf "state %d does not decode to its array" ix)
    reference;
  Hashtbl.length reference = Store.length st

(* The encoding is total over non-negative ints and refuses negatives
   without changing the store. *)
let test_store_extremes () =
  let st = Store.create () in
  let big = [| 0; 127; 128; 16_383; 16_384; max_int; max_int - 1; 1 lsl 62 - 1 |] in
  Alcotest.(check int) "first" 0 (Store.intern st big ~len:(Array.length big));
  Alcotest.(check int) "empty state" 1 (Store.intern st [||] ~len:0);
  Alcotest.(check int) "prefix is a different state" 2 (Store.intern st big ~len:3);
  Alcotest.(check int) "again" 0 (Store.intern st (Array.copy big) ~len:(Array.length big));
  Alcotest.(check (array int)) "max_int round-trips" big (Store.get st 0);
  Alcotest.(check (array int)) "empty round-trips" [||] (Store.get st 1);
  Alcotest.check_raises "negative value" (Invalid_argument "Intern.Store.intern: negative value -1") (fun () ->
      ignore (Store.intern st [| 1; -1 |] ~len:2));
  Alcotest.check_raises "len past the buffer" (Invalid_argument "Intern.Store.intern: bad length") (fun () ->
      ignore (Store.intern st [| 1 |] ~len:2));
  Alcotest.(check int) "unchanged" 3 (Store.length st);
  Alcotest.(check int) "a later state still gets the next index" 3 (Store.intern st [| 1; 1 |] ~len:2);
  Alcotest.(check (array int)) "and decodes" [| 1; 1 |] (Store.get st 3)

(* ---------------- packed round-trip ---------------- *)

let equal_st (a : MC.st) (b : MC.st) =
  a.MC.locals = b.MC.locals && a.MC.voted = b.MC.voted && a.MC.alive = b.MC.alive
  && a.MC.aware = b.MC.aware
  && a.MC.crashes_left = b.MC.crashes_left
  && Core.Message.Multiset.equal a.MC.network b.MC.network
  && a.MC.moving = b.MC.moving && a.MC.polling = b.MC.polling && a.MC.polled = b.MC.polled
  && a.MC.epoch = b.MC.epoch

let roundtrip ctx st = equal_st st (MC.Packed.decode ctx (MC.Packed.encode ctx st))

(* Round-trip every state the checker itself reports (blocked terminals
   of 2PC carry crashes, awareness and in-flight decides). *)
let test_roundtrip_reported () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  let ctx = MC.Packed.ctx rb in
  let r = MC.run { MC.rulebook = rb; max_crashes = 2; limit = 2_000_000; rule = `Skeen } in
  Alcotest.(check bool) "2PC k=2 has blocked terminals" true (r.MC.blocked_terminals <> []);
  List.iter
    (fun st -> Alcotest.(check bool) "round-trip" true (roundtrip ctx st))
    r.MC.blocked_terminals

(* Hand-built states exercise the encoding corners the checker's own
   reports rarely show: in-flight moves and polls (order-sensitive
   lists), termination messages of every tag in the network, epochs. *)
let test_roundtrip_synthetic () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let ctx = MC.Packed.ctx rb in
  let msg name src dst = Core.Message.make ~name ~src ~dst in
  let st =
    {
      MC.locals = [| "p"; "w"; "c" |];
      voted = [| false; true; true |];
      alive = [| true; false; true |];
      aware = [| true; false; true |];
      crashes_left = 1;
      network =
        Core.Message.Multiset.of_list
          [
            msg "!move:p" 1 2; msg "!mack" 2 1; msg "!streq" 3 2; msg "!strep:w" 2 3;
            msg "!decide:c" 1 3; msg "!decide:a" 3 1; msg "ack" 2 1; msg "ack" 2 1;
          ];
      moving = [| Some ("p", [ 3; 2 ]); None; None |];
      polling = [| None; None; Some ([ 2 ], [ (2, "w"); (1, "p") ]) |];
      polled = [| false; false; true |];
      epoch = [| 1; 3; 1 |];
    }
  in
  Alcotest.(check bool) "synthetic round-trip" true (roundtrip ctx st);
  (* order of the bookkeeping lists is part of state identity: permuting
     it must change the encoding *)
  let swapped = { st with MC.moving = [| Some ("p", [ 2; 3 ]); None; None |] } in
  Alcotest.(check bool) "list order is preserved" false
    (MC.Packed.encode ctx st = MC.Packed.encode ctx swapped);
  Alcotest.(check bool) "swapped round-trips too" true (roundtrip ctx swapped)

(* Distinct states must produce distinct encodings (the encoding is the
   dedup identity, so a collision would silently merge states). *)
let test_encoding_injective () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 2) in
  let ctx = MC.Packed.ctx rb in
  let r = MC.run { MC.rulebook = rb; max_crashes = 1; limit = 2_000_000; rule = `Skeen } in
  let sts = r.MC.blocked_terminals in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool) "distinct states, distinct encodings" false
              (MC.Packed.encode ctx a = MC.Packed.encode ctx b))
        sts)
    sts

let suite =
  [
    Alcotest.test_case "reachability matches reference BFS." `Quick test_reachability_differential;
    Alcotest.test_case "reachability indices are consistent." `Quick test_reachability_indices;
    Alcotest.test_case "one-pass stats match the accessors." `Quick test_stats_consistency;
    Alcotest.test_case "model check matches reference (Skeen)." `Slow test_model_check_differential;
    Alcotest.test_case "model check matches reference (quorum)." `Slow
      test_model_check_differential_quorum;
    Alcotest.test_case "broken protocol verdicts agree." `Quick test_model_check_differential_broken;
    Alcotest.test_case "packed round-trip: reported states." `Quick test_roundtrip_reported;
    Alcotest.test_case "packed round-trip: synthetic states." `Quick test_roundtrip_synthetic;
    Alcotest.test_case "packed encoding is injective." `Quick test_encoding_injective;
    Helpers.qtest ~count:12 "state store: dense indices, round-trip" gen_intern_stream
      prop_store_matches_reference;
    Alcotest.test_case "state store: extreme values, refused input." `Quick test_store_extremes;
    Alcotest.test_case "golden verdicts over the catalog." `Quick (fun () -> check_golden golden_fast);
    Alcotest.test_case "golden verdicts, decentralized n=4." `Slow (fun () -> check_golden golden_slow);
  ]
