(** Tests for {!Core.Catalog}: structural properties of every protocol
    figure in the paper, across site counts. *)

module C = Core.Catalog
module P = Core.Protocol
module A = Core.Automaton

let ns = [ 2; 3; 4 ]

let all_protocols n =
  [ C.one_pc n; C.central_2pc n; C.central_3pc n; C.decentralized_2pc n; C.decentralized_3pc n ]

let test_all_valid () =
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          List.iter
            (fun site ->
              Alcotest.(check (list string))
                (Fmt.str "%s site %d valid" p.P.name site)
                []
                (List.map A.show_violation (A.validate (P.automaton p site))))
            (P.sites p))
        (all_protocols n))
    ns

let test_site_counts () =
  List.iter
    (fun n ->
      List.iter
        (fun p -> Alcotest.(check int) (p.P.name ^ " n_sites") n (P.n_sites p))
        (all_protocols n))
    ns

let test_state_sets () =
  let p2 = C.central_2pc 3 and p3 = C.central_3pc 3 in
  Alcotest.(check (list string)) "2pc states" [ "a"; "c"; "q"; "w" ]
    (Core.Protocol.state_ids p2);
  Alcotest.(check (list string)) "3pc states" [ "a"; "c"; "p"; "q"; "w" ]
    (Core.Protocol.state_ids p3);
  Alcotest.(check (list string)) "1pc states" [ "a"; "c"; "q" ] (Core.Protocol.state_ids (C.one_pc 3))

let test_decentralized_homogeneous () =
  List.iter
    (fun n ->
      Alcotest.(check bool) "dec 2pc homogeneous" true (P.homogeneous (C.decentralized_2pc n));
      Alcotest.(check bool) "dec 3pc homogeneous" true (P.homogeneous (C.decentralized_3pc n));
      Alcotest.(check bool) "central 2pc heterogeneous" false (P.homogeneous (C.central_2pc n)))
    ns

let test_paradigms () =
  Alcotest.(check bool) "central paradigm" true
    ((C.central_2pc 3).P.paradigm = P.Central_site);
  Alcotest.(check bool) "decentralized paradigm" true
    ((C.decentralized_3pc 3).P.paradigm = P.Decentralized)

let test_slave_transition_count () =
  (* the 2PC slave of the paper's figure: 4 transitions exactly *)
  let p = C.central_2pc 4 in
  List.iter
    (fun site ->
      Alcotest.(check int)
        (Fmt.str "slave %d has 4 transitions" site)
        4
        (List.length (P.automaton p site).A.transitions))
    [ 2; 3; 4 ]

let test_coordinator_vote_vectors () =
  (* coordinator of central 2PC on n sites: 1 start + 2^(n-1) vote vectors
     + 1 extra transition for the all-yes veto *)
  List.iter
    (fun n ->
      let coord = P.automaton (C.central_2pc n) 1 in
      let expected = 1 + (1 lsl (n - 1)) + 1 in
      Alcotest.(check int) (Fmt.str "coordinator transitions n=%d" n) expected
        (List.length coord.A.transitions))
    ns

let test_initial_network () =
  let p = C.central_2pc 3 in
  Alcotest.(check int) "central: one request" 1 (List.length p.P.initial_network);
  let d = C.decentralized_2pc 3 in
  Alcotest.(check int) "decentralized: one xact per site" 3 (List.length d.P.initial_network)

let test_one_pc_no_veto () =
  (* the paper's point: 1PC slaves cannot vote no *)
  let p = C.one_pc 3 in
  List.iter
    (fun site ->
      let a = P.automaton p site in
      Alcotest.(check bool)
        (Fmt.str "slave %d has no vote transitions" site)
        true
        (List.for_all (fun (tr : A.transition) -> tr.A.vote = None) a.A.transitions))
    [ 2; 3 ]

let test_bad_site_counts () =
  Alcotest.check_raises "n=1 rejected" (Invalid_argument "Catalog: need at least 2 sites, got 1")
    (fun () -> ignore (C.central_2pc 1));
  Alcotest.check_raises "n too large rejected"
    (Invalid_argument "Catalog: vote-vector FSAs limited to 10 sites, got 11") (fun () ->
      ignore (C.decentralized_3pc 11))

let test_find () =
  Alcotest.(check bool) "find central-3pc" true
    ((C.find "central-3pc").C.nonblocking_expected);
  Alcotest.(check bool) "find central-2pc" false
    ((C.find "central-2pc").C.nonblocking_expected);
  Alcotest.check_raises "unknown protocol"
    (Invalid_argument
       "Catalog.find: unknown protocol \"nope\" (known: 1pc, central-2pc, decentralized-2pc, \
        central-3pc, decentralized-3pc, paxos-commit)") (fun () -> ignore (C.find "nope"))

let test_hasty_variant () =
  let p = C.central_2pc_hasty 3 in
  let coord = P.automaton p 1 in
  Alcotest.(check bool) "hasty coordinator has a spontaneous abort" true
    (List.exists
       (fun (tr : A.transition) -> tr.A.consumes = [] && tr.A.to_state = "a")
       coord.A.transitions)

let test_phases () =
  (* the protocols' names fall out of the phase count (paper §2) *)
  List.iter
    (fun n ->
      Alcotest.(check int) "1pc has 1 phase" 1 (P.phases (C.one_pc n));
      Alcotest.(check int) "central 2pc has 2 phases" 2 (P.phases (C.central_2pc n));
      Alcotest.(check int) "decentralized 2pc has 2 phases" 2 (P.phases (C.decentralized_2pc n));
      Alcotest.(check int) "central 3pc has 3 phases" 3 (P.phases (C.central_3pc n));
      Alcotest.(check int) "decentralized 3pc has 3 phases" 3 (P.phases (C.decentralized_3pc n)))
    ns

let test_buffer_state_kinds () =
  let p3 = C.central_3pc 3 in
  List.iter
    (fun site ->
      Alcotest.check Helpers.state_kind
        (Fmt.str "p is a buffer state at site %d" site)
        Core.Types.Buffer
        (A.kind_of (P.automaton p3 site) "p"))
    (P.sites p3)

(* MD5 of [Protocol.pp] for both 3PCs at n = 2..10, taken from FSAs
   written out by hand after the paper's figures before the catalog
   derived them by synthesis: the exact text of every state, transition
   and message, in order. *)
let pinned_3pc_digests =
  [
    ("central-3pc", C.central_3pc,
     [ "4b7478801a6ec550621f29073b36f272"; "9516a796f7711e981fa552c97ab23095";
       "59dedb95a6cb9500e5421cb4c4e18989"; "3c2973bdc50cff49569153ebda9b39d6";
       "70dd4fb9db95380646d172e7ca57dc48"; "2ffb94e2e354661894de883a4f980f75";
       "d37e96ff4780c464dc6f83c4dfb962ff"; "e0ef4694a89de0a8815fd67c3396d873";
       "9f8651a06c53d78993bd58ca69a4ec58" ]);
    ("decentralized-3pc", C.decentralized_3pc,
     [ "0f27af1b3e45c62c969a60625eeeb642"; "80e9ed77ea72ac42f37670c2c862486a";
       "8690b932e183ccd6fed90836210ab5b8"; "f57335a38cc7db87873495a0e0e52c40";
       "c58d9bd514222341c67c2e421394d4f7"; "8d0a865d0a763edc90ad8a501394c02e";
       "6b943f310d9adc46e97fe8983bdf6533"; "0532ff114a194c2ea85c0a6bc25ea796";
       "f71956a5bde87618db7a25a75d4dc619" ]);
  ]

let test_3pc_digests () =
  List.iter
    (fun (label, build, digests) ->
      List.iteri
        (fun i expected ->
          let n = i + 2 in
          Alcotest.(check string)
            (Fmt.str "%s n=%d" label n)
            expected
            (Digest.to_hex (Digest.string (Fmt.str "%a" P.pp (build n)))))
        digests)
    pinned_3pc_digests

let suite =
  [
    Alcotest.test_case "all catalog FSAs valid" `Quick test_all_valid;
    Alcotest.test_case "site counts" `Quick test_site_counts;
    Alcotest.test_case "state id sets" `Quick test_state_sets;
    Alcotest.test_case "decentralized protocols homogeneous" `Quick test_decentralized_homogeneous;
    Alcotest.test_case "paradigms" `Quick test_paradigms;
    Alcotest.test_case "2PC slave figure: 4 transitions" `Quick test_slave_transition_count;
    Alcotest.test_case "coordinator vote vectors" `Quick test_coordinator_vote_vectors;
    Alcotest.test_case "initial network" `Quick test_initial_network;
    Alcotest.test_case "1PC slaves cannot veto" `Quick test_one_pc_no_veto;
    Alcotest.test_case "bad site counts rejected" `Quick test_bad_site_counts;
    Alcotest.test_case "catalog lookup" `Quick test_find;
    Alcotest.test_case "hasty 2PC variant" `Quick test_hasty_variant;
    Alcotest.test_case "3PC buffer state kind" `Quick test_buffer_state_kinds;
    Alcotest.test_case "phase counts name the protocols" `Quick test_phases;
    Alcotest.test_case "3PC FSA digests, n=2..10" `Quick test_3pc_digests;
  ]
