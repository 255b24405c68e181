(** Tests for {!Engine.Failure_plan}: the textual round-trip a shrunk
    chaos counterexample relies on ([of_string (to_string p) = p]), and
    the clause order {!Engine.Failure_plan.of_schedule} sorts a schedule
    into. *)

module FP = Engine.Failure_plan
module N = Sim.Nemesis

let plan : FP.t Alcotest.testable = Alcotest.testable FP.pp FP.equal

(* ---------------- to_string / of_string ---------------- *)

let test_round_trip_every_clause () =
  let p =
    N.
      [
        Step_crash { site = 1; step = 1; mode = Before_transition };
        Step_crash { site = 2; step = 0; mode = After_logging 1 };
        Step_crash { site = 3; step = 2; mode = After_transition };
        Crash { site = 1; at = 3.5 };
        Crash { site = 2; at = 10.25 };
        Recover { site = 1; at = 40.0 };
        Backup_crash { site = 2; phase = Move; sent = 1 };
        Backup_crash { site = 3; phase = Decide; sent = 0 };
        Partition { from_t = 5.0; until_t = 9.5; groups = [ [ 1 ]; [ 2; 3 ] ] };
        Msg { nth = 0; fault = Sim.World.Fault_drop };
        Msg { nth = 4; fault = Sim.World.Fault_duplicate };
        Msg { nth = 7; fault = Sim.World.Fault_delay 2.75 };
        Disk_fault { site = 1; fault = Sim.Disk.Torn; nth = 0 };
        Disk_fault { site = 2; fault = Sim.Disk.Corrupt; nth = 1 };
        Disk_fault { site = 3; fault = Sim.Disk.Lost_flush; nth = 4 };
        Delay_window { site = 2; from_t = 3.0; until_t = 9.75; extra = 2.5 };
        Stall { site = 1; from_t = 4.0; until_t = 14.5 };
        Hb_loss { site = 3; from_t = 0.25; until_t = 60.0 };
        Acceptor_crash { site = 3; at = 2.0 };
        Acceptor_crash { site = 5; at = 4.75 };
        Lease_fault { at = 1.25 };
        Lease_fault { at = 8.0 };
        Storm { site = 2; first = 10.0; waves = 3; period = 80.0; down = 25.5 };
      ]
  in
  Alcotest.check plan "round trip" p (FP.of_string_exn (FP.to_string p))

let test_round_trip_empty () =
  Alcotest.check plan "empty plan" FP.none (FP.of_string_exn (FP.to_string FP.none))

let test_parse_pinned_syntax () =
  (* the exact strings counterexamples print in — pinned so a plan pasted
     into a regression test keeps parsing across releases *)
  let parses name text expected = Alcotest.check plan name expected (FP.of_string_exn text) in
  parses "parses the documented syntax" "step-crash site=1 step=1 mode=before; msg nth=4 fault=dup"
    N.
      [
        Step_crash { site = 1; step = 1; mode = Before_transition };
        Msg { nth = 4; fault = Sim.World.Fault_duplicate };
      ];
  parses "newlines separate clauses too" "crash site=2 at=3\nrecover site=2 at=20"
    N.[ Crash { site = 2; at = 3.0 }; Recover { site = 2; at = 20.0 } ];
  parses "disk clause parses" "disk site=2 fault=torn nth=0"
    N.[ Disk_fault { site = 2; fault = Sim.Disk.Torn; nth = 0 } ];
  (* the detector-fault clauses a detector counterexample prints in *)
  parses "delay clause parses" "delay site=2 from=3 until=9.75 extra=2.5"
    N.[ Delay_window { site = 2; from_t = 3.0; until_t = 9.75; extra = 2.5 } ];
  parses "stall clause parses" "stall site=2 from=4 until=14"
    N.[ Stall { site = 2; from_t = 4.0; until_t = 14.0 } ];
  parses "hb-loss clause parses" "hb-loss site=3 from=1 until=60"
    N.[ Hb_loss { site = 3; from_t = 1.0; until_t = 60.0 } ];
  (* the Paxos-Commit clauses a paxos counterexample prints in *)
  parses "acceptor-crash clause parses" "acceptor-crash site=5 at=2"
    N.[ Acceptor_crash { site = 5; at = 2.0 } ];
  parses "lease-fault clause parses" "lease-fault at=1.89" N.[ Lease_fault { at = 1.89 } ];
  (* the crash-recover storm clause the explorer's corpus files print in *)
  parses "storm clause parses" "storm site=2 first=10 waves=3 period=80 down=25.5"
    N.[ Storm { site = 2; first = 10.0; waves = 3; period = 80.0; down = 25.5 } ];
  (* a plan parses into clause order, whatever order the text has *)
  parses "text order does not matter" "recover site=2 at=20; crash site=2 at=3"
    N.[ Crash { site = 2; at = 3.0 }; Recover { site = 2; at = 20.0 } ]

let test_parse_error () =
  Alcotest.check_raises "garbage raises Parse_error"
    (FP.Parse_error "unknown fault kind: \"frobnicate\"") (fun () ->
      ignore (FP.of_string_exn "frobnicate site=1"))

let test_of_string_is_total () =
  (* the CLI path: every malformed input must come back as [Error msg],
     never an exception, and the message must name what went wrong *)
  let table =
    [
      ("frobnicate site=1", "unknown fault kind");
      ("crash site=x at=3", "site");
      ("crash at=3", "site");
      ("crash site=1 at=soon", "at");
      ("crash site=1 at=nan", "at");
      ("recover site=1 at=-5", "at");
      ("msg nth=1 fault=delay:-2", "fault");
      ("storm site=2 first=10 waves=3 period=80 down=-1", "down");
      ("step-crash site=1 step=1 mode=sideways", "mode");
      ("msg nth=4 fault=explode", "fault");
      ("msg nth=four fault=dup", "nth");
      ("disk site=1 fault=melted nth=0", "disk fault");
      ("disk site=1 fault=torn", "nth");
      ("partition from=1 until=2 groups=a", "groups");
      ("crash site=1 at", "key=value");
      ("delay site=2 from=3 until=9 extra=lots", "extra");
      ("delay site=2 from=3 extra=1", "until");
      ("stall site=2 from=now until=9", "from");
      ("stall from=3 until=9", "site");
      ("hb-loss site=3 from=1 until=never", "until");
      ("acceptor-crash at=2", "site");
      ("acceptor-crash site=5 at=soon", "at");
      ("lease-fault", "at");
      ("lease-fault at=whenever", "at");
      ("storm site=2 first=10 waves=lots period=80 down=25", "waves");
      ("storm site=2 waves=3 period=80 down=25", "first");
    ]
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (input, needle) ->
      match FP.of_string input with
      | Ok p -> Alcotest.failf "%S parsed as %s" input (FP.to_string p)
      | Error msg ->
          Alcotest.(check bool)
            (Fmt.str "%S error mentions %S: %S" input needle msg)
            true (contains msg needle))
    table

(* Any fault, in any order: plans are these lists put in clause order. *)
let gen_fault =
  let open QCheck2.Gen in
  let site = int_range 1 5 in
  let tf = map (fun x -> float_of_int x /. 4.0) (int_range 0 400) in
  let mode =
    oneof
      [
        return N.Before_transition;
        map (fun k -> N.After_logging k) (int_range 0 3);
        return N.After_transition;
      ]
  in
  let msg_fault =
    oneof
      [
        return Sim.World.Fault_drop;
        return Sim.World.Fault_duplicate;
        map (fun d -> Sim.World.Fault_delay d) tf;
      ]
  in
  (* the parser refuses a window that ends before it starts *)
  let ordered = map (fun (a, b) -> (Float.min a b, Float.max a b)) (pair tf tf) in
  let window = pair site ordered in
  oneof
    [
      map3 (fun site step mode -> N.Step_crash { site; step; mode }) site (int_range 0 4) mode;
      map2 (fun site at -> N.Crash { site; at }) site tf;
      map2 (fun site at -> N.Recover { site; at }) site tf;
      map3
        (fun site phase sent -> N.Backup_crash { site; phase; sent })
        site (oneofl [ N.Move; N.Decide ]) (int_range 0 3);
      map2
        (fun (from_t, until_t) g -> N.Partition { from_t; until_t; groups = [ g; [ 9 ] ] })
        ordered (small_list site);
      map2 (fun nth fault -> N.Msg { nth; fault }) (int_range 0 50) msg_fault;
      map3
        (fun site fault nth -> N.Disk_fault { site; fault; nth })
        site
        (oneofl [ Sim.Disk.Torn; Sim.Disk.Corrupt; Sim.Disk.Lost_flush ])
        (int_range 0 5);
      map2
        (fun (site, (from_t, until_t)) extra -> N.Delay_window { site; from_t; until_t; extra })
        window tf;
      map (fun (site, (from_t, until_t)) -> N.Stall { site; from_t; until_t }) window;
      map (fun (site, (from_t, until_t)) -> N.Hb_loss { site; from_t; until_t }) window;
      map2 (fun site at -> N.Acceptor_crash { site; at }) site tf;
      map (fun at -> N.Lease_fault { at }) tf;
      (* down strictly inside the period, as the generator guarantees *)
      map3
        (fun site (first, waves) period ->
          N.Storm { site; first; waves; period; down = period *. 0.5 })
        site
        (pair tf (int_range 1 4))
        (map (fun x -> 20.0 +. x) tf);
    ]

let gen_schedule = QCheck2.Gen.small_list gen_fault
let gen_plan = QCheck2.Gen.map FP.of_schedule gen_schedule

(* The clause order of a printed plan, by the clause's verb. *)
let clause_order =
  [
    "step-crash"; "crash"; "recover"; "move-crash"; "decide-crash"; "partition"; "msg"; "disk";
    "delay"; "stall"; "hb-loss"; "acceptor-crash"; "lease-fault"; "storm";
  ]

let rank f =
  let verb = List.hd (String.split_on_char ' ' (N.to_string [ f ])) in
  let rec go i = function
    | [] -> assert false
    | v :: rest -> if v = verb then i else go (i + 1) rest
  in
  go 0 clause_order

let prop_round_trip =
  Helpers.qtest "of_string (to_string p) = p" gen_plan (fun p ->
      FP.equal p (FP.of_string_exn (FP.to_string p)))

let prop_schedule_text_round_trip =
  Helpers.qtest "schedule text keeps list order" gen_schedule (fun s ->
      N.equal_schedule s (N.of_string_exn (N.to_string s)))

let prop_fault_count_matches_clauses =
  Helpers.qtest "fault_count counts every clause" gen_plan (fun p ->
      let clauses =
        if p = [] then 0 else List.length (String.split_on_char ';' (FP.to_string p))
      in
      FP.fault_count p = clauses)

let prop_unsupported_clauses_partition_by_family =
  (* the CLI's family gate: on any mixed plan, 2PC rejects exactly the
     termination + paxos clauses, 3PC exactly the paxos clauses, Paxos
     exactly the move-crash (termination phase 1) clauses — and every
     family accepts a plan stripped of the clauses it names *)
  Helpers.qtest "unsupported_clauses partitions any mixed plan" gen_plan (fun p ->
      let count protocol = List.length (FP.unsupported_clauses ~protocol p) in
      let is_move = function N.Backup_crash { phase = N.Move; _ } -> true | _ -> false in
      let is_decide = function N.Backup_crash { phase = N.Decide; _ } -> true | _ -> false in
      let is_paxos = function N.Acceptor_crash _ | N.Lease_fault _ -> true | _ -> false in
      let n pred = List.length (List.filter pred p) in
      let without pred = List.filter (fun f -> not (pred f)) p in
      count "central-2pc" = n is_move + n is_decide + n is_paxos
      && count "central-3pc" = n is_paxos
      && count "paxos-commit" = n is_move
      && FP.unsupported_clauses ~protocol:"paxos-commit" (without is_move) = []
      && FP.unsupported_clauses ~protocol:"central-3pc" (without is_paxos) = [])

(* ---------------- of_schedule ---------------- *)

let test_of_schedule_mapping () =
  let schedule =
    N.
      [
        Msg { nth = 5; fault = Sim.World.Fault_duplicate };
        Crash { site = 2; at = 3.0 };
        Step_crash { site = 1; step = 1; mode = Before_transition };
        Backup_crash { site = 3; phase = Decide; sent = 0 };
        Step_crash { site = 3; step = 0; mode = After_logging 2 };
        Backup_crash { site = 2; phase = Move; sent = 1 };
        Recover { site = 2; at = 30.0 };
        Partition { from_t = 4.0; until_t = 8.0; groups = [ [ 1 ]; [ 2; 3 ] ] };
      ]
  in
  Alcotest.(check string)
    "each fault kind lands at its clause position"
    "step-crash site=1 step=1 mode=before; step-crash site=3 step=0 mode=after-logging:2; crash \
     site=2 at=3; recover site=2 at=30; move-crash site=2 sent=1; decide-crash site=3 sent=0; \
     partition from=4 until=8 groups=1|2,3; msg nth=5 fault=dup"
    (FP.to_string (FP.of_schedule schedule))

let prop_of_schedule_is_a_stable_sort =
  (* every fault has one rank, so equal per-family subsequences make [p]
     a permutation of [s] that keeps each family's order *)
  Helpers.qtest "of_schedule is an idempotent stable permutation" gen_schedule (fun s ->
      let p = FP.of_schedule s in
      let family r l = List.filter (fun f -> rank f = r) l in
      let rec in_clause_order = function
        | a :: (b :: _ as rest) -> rank a <= rank b && in_clause_order rest
        | _ -> true
      in
      FP.equal (FP.of_schedule p) p
      && in_clause_order p
      && List.for_all
           (fun r -> N.equal_schedule (family r s) (family r p))
           (List.init (List.length clause_order) Fun.id))

let prop_of_schedule_round_trips_textually =
  Helpers.qtest "generated schedules lower to printable plans"
    QCheck2.Gen.(int_range 0 2_000)
    (fun seed ->
      let schedule =
        N.generate (Sim.Rng.create ~seed) ~n_sites:3 ~k:2 N.default_profile
      in
      let p = FP.of_schedule schedule in
      FP.equal p (FP.of_string_exn (FP.to_string p)))

let suite =
  [
    Alcotest.test_case "round trip: every clause kind" `Quick test_round_trip_every_clause;
    Alcotest.test_case "round trip: empty" `Quick test_round_trip_empty;
    Alcotest.test_case "pinned counterexample syntax parses" `Quick test_parse_pinned_syntax;
    Alcotest.test_case "parse error on garbage" `Quick test_parse_error;
    Alcotest.test_case "of_string is total on malformed input" `Quick test_of_string_is_total;
    prop_round_trip;
    prop_schedule_text_round_trip;
    prop_fault_count_matches_clauses;
    prop_unsupported_clauses_partition_by_family;
    Alcotest.test_case "of_schedule maps each fault kind" `Quick test_of_schedule_mapping;
    prop_of_schedule_is_a_stable_sort;
    prop_of_schedule_round_trips_textually;
  ]
