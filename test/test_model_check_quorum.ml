(** Exhaustive model checking of the {e quorum} termination rule: the
    monotonicity argument (never demote a precommit, majority thresholds
    both ways) verified over every interleaving.

    Under the quorum rule blocking is expected — a backup below the
    quorum stays put — so these suites assert safety only, plus the
    specific blocking/termination structure. *)

module MC = Engine.Model_check

let rb label n = Engine.Rulebook.compile ((Core.Catalog.find label).Core.Catalog.build n)

let run label n k =
  MC.run
    {
      MC.rulebook = rb label n;
      max_crashes = k;
      limit = 4_000_000;
      rule = `Quorum;
    }

let test_quorum_3pc_safe () =
  List.iter
    (fun (label, n, k) ->
      let r = run label n k in
      Alcotest.(check bool) (Fmt.str "%s n=%d k=%d safe" label n k) true r.MC.safe;
      Alcotest.(check bool) "explored something" true (r.MC.explored > 10))
    [ ("central-3pc", 2, 1); ("central-3pc", 3, 1); ("central-3pc", 3, 2) ]

let test_quorum_3pc_single_crash_can_block () =
  (* even with a surviving majority the quorum rule can block: a mixed
     view (one survivor prepared, one not, after a partial prepare
     broadcast) satisfies neither threshold.  Skeen's rule decides here —
     that is precisely the liveness the quorum rule trades away.  Safety
     must still be unconditional. *)
  let r = run "central-3pc" 3 1 in
  Alcotest.(check bool) "safe" true r.MC.safe;
  Alcotest.(check bool) "mixed views block (expected)" false r.MC.nonblocking

let test_quorum_3pc_two_crashes_blocks () =
  (* with two crashes a lone survivor can be left below quorum: blocked
     terminals exist (the liveness price), but safety holds throughout *)
  let r = run "central-3pc" 3 2 in
  Alcotest.(check bool) "safe" true r.MC.safe;
  Alcotest.(check bool) "some blocked terminals (lone survivor)" false r.MC.nonblocking

let test_quorum_decentralized_safe () =
  let r = run "decentralized-3pc" 3 1 in
  Alcotest.(check bool) "safe" true r.MC.safe

let test_quorum_2pc_safe () =
  (* quorum termination over 2PC: no buffer state exists, so the rule may
     only relay visible outcomes — the unprepared-quorum abort would be
     unsound (the coordinator commits straight from w), which this
     exhaustive check regression-guards *)
  let r = run "central-2pc" 3 1 in
  Alcotest.(check bool) "safe" true r.MC.safe;
  let r2 = run "central-2pc" 3 2 in
  Alcotest.(check bool) "safe with two crashes" true r2.MC.safe

let suite =
  [
    Alcotest.test_case "quorum rule safe (exhaustive)" `Slow test_quorum_3pc_safe;
    Alcotest.test_case "single crash: mixed views may block" `Quick
      test_quorum_3pc_single_crash_can_block;
    Alcotest.test_case "two crashes: lone survivor blocks" `Slow test_quorum_3pc_two_crashes_blocks;
    Alcotest.test_case "decentralized 3PC safe" `Slow test_quorum_decentralized_safe;
    Alcotest.test_case "2PC under the quorum rule safe" `Quick test_quorum_2pc_safe;
  ]
