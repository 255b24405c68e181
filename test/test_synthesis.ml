(** Tests for {!Core.Synthesis}: the paper's design method — inserting
    buffer states turns blocking protocols into nonblocking ones. *)

module Sk = Core.Skeleton
module Sy = Core.Synthesis
module C = Core.Catalog

let test_skeleton_2pc_to_3pc () =
  (* the headline transformation of the paper *)
  let result = Sy.buffer_skeleton Sk.canonical_2pc in
  Alcotest.(check bool) "equals canonical 3pc" true (Sk.equal result Sk.canonical_3pc);
  Alcotest.(check bool) "nonblocking" true (Sk.is_nonblocking result)

let test_skeleton_idempotent_on_nonblocking () =
  let result = Sy.buffer_skeleton Sk.canonical_3pc in
  Alcotest.(check bool) "3pc unchanged" true (Sk.equal result Sk.canonical_3pc)

let test_skeleton_1pc () =
  (* 1PC also gains a buffer state; the result satisfies the lemma *)
  let result = Sy.buffer_skeleton Sk.canonical_1pc in
  Alcotest.(check bool) "nonblocking after buffering" true (Sk.is_nonblocking result);
  Alcotest.(check int) "one state added" (List.length Sk.canonical_1pc.Sk.states + 1)
    (List.length result.Sk.states)

let test_protocol_central_2pc () =
  (* full message-level synthesis: central 2PC + buffer = nonblocking, and
     its skeleton is exactly canonical 3PC *)
  List.iter
    (fun n ->
      let { Sy.protocol; buffers_added } = Sy.buffer_protocol (C.central_2pc n) in
      Alcotest.(check int) (Fmt.str "one buffer per site (n=%d)" n) n (List.length buffers_added);
      let report = Core.Nonblocking.analyze_protocol protocol in
      Alcotest.(check bool) (Fmt.str "buffered 2pc nonblocking (n=%d)" n) true
        report.Core.Nonblocking.nonblocking;
      Alcotest.(check int) "resilience n-1" (n - 1) report.Core.Nonblocking.resilience)
    [ 2; 3 ]

(* Concurrency sets and committable states of the paper's 3PC, as the
   FSAs written out by hand after its figures gave them (central at n = 3,
   decentralized at n = 2) before the catalog derived them by synthesis. *)
let paper_3pc_cs =
  [
    ("q", [ "a"; "q"; "w" ]);
    ("w", [ "a"; "p"; "q"; "w" ]);
    ("p", [ "c"; "p"; "w" ]);
    ("a", [ "a"; "q"; "w" ]);
    ("c", [ "c"; "p" ]);
  ]

let check_matches_paper_3pc label synth catalog =
  let g_synth = Core.Reachability.build synth in
  let g_cat = Core.Reachability.build catalog in
  List.iter
    (fun (state, expected) ->
      Alcotest.(check (list string)) (Fmt.str "CS(%s) of %s" state label) expected
        (Helpers.cs_ids g_synth state);
      Alcotest.(check (list string)) (Fmt.str "CS(%s) matches catalog" state) expected
        (Helpers.cs_ids g_cat state))
    paper_3pc_cs;
  let committable g = Core.Committable.committable_ids (Core.Committable.compute g) in
  Alcotest.(check (list string)) "committable ids" [ "c"; "p" ] (committable g_synth);
  Alcotest.(check (list string)) "committable ids match catalog" (committable g_cat)
    (committable g_synth)

let test_protocol_synthesis_matches_catalog_3pc () =
  let { Sy.protocol = synth; _ } = Sy.buffer_protocol (C.central_2pc 3) in
  check_matches_paper_3pc "synthesized central 3pc" synth (C.central_3pc 3)

let test_protocol_synthesis_synchronous () =
  let { Sy.protocol; _ } = Sy.buffer_protocol (C.central_2pc 2) in
  let r = Core.Synchrony.check protocol in
  Alcotest.(check bool) "synthesized protocol stays synchronous" true r.Core.Synchrony.synchronous

let test_protocol_decentralized () =
  (* the decentralized rewrite: one extra interchange, nonblocking *)
  List.iter
    (fun n ->
      let { Sy.protocol; buffers_added } = Sy.buffer_protocol (C.decentralized_2pc n) in
      Alcotest.(check int) "one buffer per site" n (List.length buffers_added);
      Alcotest.(check int) "three phases" 3 (Core.Protocol.phases protocol);
      let report = Core.Nonblocking.analyze_protocol protocol in
      Alcotest.(check bool) (Fmt.str "nonblocking n=%d" n) true report.Core.Nonblocking.nonblocking;
      Alcotest.(check int) "resilience n-1" (n - 1) report.Core.Nonblocking.resilience)
    [ 2; 3 ]

let test_protocol_decentralized_matches_catalog () =
  let { Sy.protocol = synth; _ } = Sy.buffer_protocol (C.decentralized_2pc 2) in
  check_matches_paper_3pc "synthesized decentralized 3pc" synth (C.decentralized_3pc 2)

let test_syntactic_committability_exact () =
  (* the syntactic rule synthesis uses agrees with the exact inference from
     the reachable state graph, at every site and state *)
  let check p =
    let cm = Core.Committable.compute (Core.Reachability.build p) in
    List.iter
      (fun site ->
        let a = Core.Protocol.automaton p site in
        List.iter
          (fun (s : Core.Automaton.state) ->
            Alcotest.(check bool)
              (Fmt.str "%s site %d state %s" p.Core.Protocol.name site s.id)
              (Core.Committable.is_committable cm ~site ~state:s.id)
              (Sy.committable a s.id))
          a.states)
      (Core.Protocol.sites p)
  in
  List.iter
    (fun n -> List.iter (fun (e : C.entry) -> check (e.build n)) C.all)
    [ 2; 3; 4; 5 ];
  check (C.central_2pc_hasty 3)

let test_fresh_buffer_names () =
  (* if "p" is taken the synthesizer picks p1, p2, ... *)
  let sk =
    Sk.make ~name:"with-p"
      ~states:
        [
          { Sk.id = "q"; kind = Core.Types.Initial; committable = false };
          { Sk.id = "w"; kind = Core.Types.Wait; committable = false };
          { Sk.id = "p"; kind = Core.Types.Wait; committable = false };
          { Sk.id = "a"; kind = Core.Types.Abort; committable = false };
          { Sk.id = "c"; kind = Core.Types.Commit; committable = true };
        ]
      ~initial:"q"
      ~edges:[ ("q", "w"); ("q", "a"); ("w", "p"); ("p", "c"); ("w", "a") ]
  in
  let result = Sy.buffer_skeleton sk in
  Alcotest.(check bool) "p1 introduced" true
    (List.exists (fun s -> s.Sk.id = "p1") result.Sk.states)

let suite =
  [
    Alcotest.test_case "canonical 2PC + buffer = canonical 3PC" `Quick test_skeleton_2pc_to_3pc;
    Alcotest.test_case "idempotent on nonblocking skeletons" `Quick
      test_skeleton_idempotent_on_nonblocking;
    Alcotest.test_case "1PC gains a buffer" `Quick test_skeleton_1pc;
    Alcotest.test_case "message-level synthesis on central 2PC" `Quick test_protocol_central_2pc;
    Alcotest.test_case "synthesized protocol matches catalog 3PC" `Quick
      test_protocol_synthesis_matches_catalog_3pc;
    Alcotest.test_case "synthesized protocol stays synchronous" `Quick
      test_protocol_synthesis_synchronous;
    Alcotest.test_case "decentralized synthesis" `Quick test_protocol_decentralized;
    Alcotest.test_case "decentralized synthesis matches catalog 3PC" `Quick
      test_protocol_decentralized_matches_catalog;
    Alcotest.test_case "syntactic committability = exact inference" `Quick
      test_syntactic_committability_exact;
    Alcotest.test_case "fresh buffer-state names" `Quick test_fresh_buffer_names;
  ]
