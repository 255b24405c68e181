(** Using the paper's design method as a library: take a blocking commit
    protocol, diagnose it with the fundamental nonblocking theorem, apply
    the buffer-state transformation, and verify the result — the full
    workflow of sections 5-7 of the paper, mechanized.

    Run with: dune exec examples/protocol_designer.exe *)

let () =
  (* Step 1: the subject — classical central-site 2PC on four sites. *)
  let p2 = Core.Catalog.central_2pc 4 in
  let graph = Core.Reachability.build p2 in
  Fmt.pr "subject: %s@." p2.Core.Protocol.name;
  Fmt.pr "reachable state graph: %a@.@." Core.Reachability.pp_stats (Core.Reachability.stats graph);

  (* Step 2: diagnose.  The theorem pinpoints the states from which a
     lone survivor can neither commit nor abort. *)
  let report = Core.Nonblocking.analyze graph in
  Fmt.pr "%a@.@." Core.Nonblocking.pp_report report;

  (* Step 3: check the hypothesis of the design lemma — synchronicity
     within one state transition. *)
  let sync = Core.Synchrony.check p2 in
  Fmt.pr "synchronous within one transition: %b (max lead %d)@.@." sync.Core.Synchrony.synchronous
    sync.Core.Synchrony.max_lead;

  (* Step 4: transform.  A buffer state is spliced in front of every
     commit transition reachable from a noncommittable state. *)
  let { Core.Synthesis.protocol = p3; buffers_added } = Core.Synthesis.buffer_protocol p2 in
  Fmt.pr "buffer states added: %a@.@."
    Fmt.(list ~sep:comma (pair ~sep:(any " at site ") int string))
    (List.map (fun (s, b) -> (s, b)) buffers_added);

  (* Step 5: verify the result. *)
  let report3 = Core.Nonblocking.analyze_protocol p3 in
  Fmt.pr "%a@.@." Core.Nonblocking.pp_report report3;
  assert report3.Core.Nonblocking.nonblocking;

  (* Step 6: the canonical view.  Abstracting both the synthesized
     protocol and the paper's 3PC figure yields the same skeleton as
     transforming the canonical 2PC directly. *)
  let canonical = Core.Synthesis.buffer_skeleton Core.Skeleton.canonical_2pc in
  Fmt.pr "canonical transformation:@.%a@." Core.Skeleton.pp canonical;
  assert (Core.Skeleton.equal canonical Core.Skeleton.canonical_3pc);
  Fmt.pr "canonical 2PC + buffer state = canonical 3PC  (verified)@.@.";

  (* Step 7: and the termination protocol it enables. *)
  Fmt.pr "termination decision table for the synthesized protocol:@.";
  List.iter
    (fun state ->
      Fmt.pr "  backup in %-2s -> %a@." state Core.Termination_rule.pp_decision
        (Core.Termination_rule.decide_skeleton canonical ~state))
    [ "q"; "w"; "p"; "a"; "c" ];
  Fmt.pr "@.The protocol you just designed is Skeen's three-phase commit.@."
