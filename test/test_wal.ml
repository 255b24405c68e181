(** Property tests for the WAL binary codecs ({!Engine.Wal} and
    {!Kv.Kv_wal}): round trips, totality of [of_bytes] on damaged input,
    and the serialization-agreement contract — the durability summaries
    ([last_state] / [voted_yes] / [decided]) computed from an in-memory
    log must agree with those computed from a decode of its serialized
    bytes, including after a crash truncates the tail. *)

module W = Engine.Wal
module KW = Kv.Kv_wal
module D = Sim.Disk

(* ---------------- generators ---------------- *)

let gen_state = QCheck2.Gen.oneofl [ "q"; "w"; "p"; "a"; "c"; "pre-commit"; "" ]

let gen_record =
  let open QCheck2.Gen in
  oneof
    [
      map2
        (fun protocol initial -> W.Began { protocol; initial })
        (oneofl [ "central-2pc"; "central-3pc"; "x"; "" ])
        gen_state;
      map2
        (fun to_state vote -> W.Transitioned { to_state; vote })
        gen_state
        (oneofl [ None; Some Core.Types.Yes; Some Core.Types.No ]);
      map (fun to_state -> W.Moved { to_state }) gen_state;
      map (fun o -> W.Decided o) (oneofl [ Core.Types.Committed; Core.Types.Aborted ]);
    ]

let gen_kv_record =
  let open QCheck2.Gen in
  let txn = int_range 0 10_000 in
  let site = int_range 1 9 in
  let key = string_size (int_range 0 8) in
  let commit = bool in
  oneof
    [
      (let* t = txn and* c = site and* ps = small_list site in
       let* writes = small_list (pair key (int_range (-500) 500)) in
       let* locks =
         small_list (pair key (oneofl [ Kv.Lock_table.Shared; Kv.Lock_table.Exclusive ]))
       in
       return (KW.P_prepared { txn = t; coordinator = c; participants = ps; writes; locks }));
      map (fun t -> KW.P_precommitted { txn = t }) txn;
      map2 (fun t c -> KW.P_outcome { txn = t; commit = c }) txn commit;
      (let* t = txn and* ps = small_list site and* three_phase = bool in
       return (KW.C_begin { txn = t; participants = ps; three_phase }));
      map (fun t -> KW.C_precommitted { txn = t }) txn;
      map2 (fun t c -> KW.C_decided { txn = t; commit = c }) txn commit;
      map (fun t -> KW.C_finished { txn = t }) txn;
    ]

(* ---------------- codec round trips and totality ---------------- *)

let prop_engine_codec_round_trip =
  Helpers.qtest "engine codec: of_bytes (to_bytes r) = Ok r" gen_record (fun r ->
      match W.of_bytes (W.to_bytes r) with Ok r' -> W.equal_record r r' | Error _ -> false)

let prop_kv_codec_round_trip =
  Helpers.qtest "kv codec: of_bytes (to_bytes r) = Ok r" gen_kv_record (fun r ->
      match KW.of_bytes (KW.to_bytes r) with Ok r' -> KW.equal_record r r' | Error _ -> false)

let prop_engine_codec_total_on_truncation =
  Helpers.qtest "engine codec: any truncation decodes without raising"
    QCheck2.Gen.(pair gen_record (int_range 0 200))
    (fun (r, cut) ->
      let b = W.to_bytes r in
      let cut = min cut (Bytes.length b) in
      match W.of_bytes (Bytes.sub b 0 cut) with
      | Ok r' -> cut = Bytes.length b && W.equal_record r r'
      | Error _ -> cut < Bytes.length b)

let prop_kv_codec_total_on_truncation =
  Helpers.qtest "kv codec: any truncation decodes without raising"
    QCheck2.Gen.(pair gen_kv_record (int_range 0 400))
    (fun (r, cut) ->
      let b = KW.to_bytes r in
      let cut = min cut (Bytes.length b) in
      match KW.of_bytes (Bytes.sub b 0 cut) with
      | Ok r' -> cut = Bytes.length b && KW.equal_record r r'
      | Error _ -> cut < Bytes.length b)

let prop_kv_codec_total_on_bit_flips =
  Helpers.qtest "kv codec: a flipped bit decodes without raising"
    QCheck2.Gen.(pair gen_kv_record (int_range 0 10_000))
    (fun (r, bit) ->
      let b = KW.to_bytes r in
      let bit = bit mod (8 * Bytes.length b) in
      Bytes.set b (bit / 8)
        (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
      match KW.of_bytes b with Ok _ | Error _ -> true)

(* ---------------- serialization agreement ---------------- *)

let summaries w = (W.last_state w, W.voted_yes w, W.decided w)

let replay_through_codec records =
  let w = W.create ~durable:false () in
  List.iter
    (fun r ->
      match W.of_bytes (W.to_bytes r) with
      | Ok r' -> W.append w r'
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    records;
  w

let prop_memory_and_codec_summaries_agree =
  Helpers.qtest "last_state/voted_yes/decided agree through the codec"
    QCheck2.Gen.(small_list gen_record)
    (fun records ->
      let mem = W.create ~durable:false () in
      List.iter (W.append mem) records;
      summaries mem = summaries (replay_through_codec records))

(* force [forced], append [tail], crash: the steps both crash properties
   take, over either record codec *)
let crashed (type l r) (module L : Sim.Log.S with type t = l and type record = r) ?(seed = 0)
    ?(faults = []) forced tail =
  let w = L.create ~seed ~durable:true () in
  L.set_faults w faults;
  List.iter (L.force w) forced;
  List.iter (L.append w) tail;
  ignore (L.crash w);
  w

(* what survives is a prefix of what was appended, no shorter than what
   was forced *)
let recovers_a_prefix equal survived forced tail =
  let n = List.length survived in
  n >= List.length forced
  && n <= List.length forced + List.length tail
  && List.for_all2 equal survived (List.filteri (fun i _ -> i < n) (forced @ tail))

let prop_durable_crash_without_faults_preserves_forced_records =
  Helpers.qtest "a fault-free crash preserves exactly the forced prefix"
    QCheck2.Gen.(
      pair
        (pair (small_list gen_record) (small_list gen_record))
        (pair (small_list gen_kv_record) (small_list gen_kv_record)))
    (fun ((forced, unsynced), (kv_forced, kv_unsynced)) ->
      let w = crashed (module W) forced unsynced in
      let mem = W.create ~durable:false () in
      List.iter (W.append mem) forced;
      List.for_all2 W.equal_record (W.records w) forced
      && summaries w = summaries mem
      && List.for_all2 KW.equal_record
           (KW.records (crashed (module KW) kv_forced kv_unsynced))
           kv_forced)

let prop_torn_tail_recovers_a_prefix =
  Helpers.qtest "a torn crash recovers a prefix whose summaries agree"
    QCheck2.Gen.(
      triple
        (pair (small_list gen_record) (small_list gen_record))
        (pair (small_list gen_kv_record) (small_list gen_kv_record))
        (int_range 0 1000))
    (fun ((forced, tail), (kv_forced, kv_tail), seed) ->
      let faults = [ { D.fault = D.Torn; nth = 0 } ] in
      let w = crashed (module W) ~seed ~faults forced tail in
      let survived = W.records w in
      recovers_a_prefix W.equal_record survived forced tail
      &&
      (* the summaries computed from the recovered log equal the
         in-memory summaries of that same prefix *)
      let mem = W.create ~durable:false () in
      List.iter (W.append mem) survived;
      summaries w = summaries mem
      && recovers_a_prefix KW.equal_record
           (KW.records (crashed (module KW) ~seed ~faults kv_forced kv_tail))
           kv_forced kv_tail)

let test_torn_tail_repair_reported () =
  (* deterministic pinned case: a torn crash that cuts a record in half
     must surface in [repairs] with a scan reason *)
  let seen = ref false in
  for seed = 0 to 20 do
    let w = W.create ~seed ~durable:true () in
    W.set_faults w [ { D.fault = D.Torn; nth = 0 } ];
    W.force w (W.Began { protocol = "x"; initial = "q" });
    W.append w (W.Transitioned { to_state = "w"; vote = Some Core.Types.Yes });
    (match W.crash w with
    | Some rep -> if rep.W.reason <> None then seen := true
    | None -> ());
    ignore (W.repairs w)
  done;
  Alcotest.(check bool) "some seed tears mid-record and reports a reason" true !seen

let test_undecodable_record_truncates () =
  (* a frame whose checksum passes but whose payload is no record: the
     scan accepts the frame, the decode rejects it, and the crash must
     cut the log there *)
  let w = W.create ~durable:true () in
  let kept =
    [ W.Began { protocol = "x"; initial = "q" }; W.Transitioned { to_state = "w"; vote = None } ]
  in
  List.iter (W.force w) kept;
  let disk = Option.get (W.disk w) in
  let good_bytes = D.durable_bytes disk in
  D.write disk (D.Frame.encode (Bytes.of_string "\xff"));
  D.sync disk;
  W.force w (W.Decided Core.Types.Committed);
  let rep = W.crash w in
  Alcotest.(check (option string))
    "reason" (Some "undecodable record: unknown record tag 255")
    (Option.bind rep (fun r -> r.W.reason));
  Alcotest.(check (option (pair int int)))
    "survived, lost" (Some (2, 1))
    (Option.map (fun r -> (r.W.survived, r.W.lost_records)) rep);
  Alcotest.(check bool) "records before the bad frame kept" true
    (List.equal W.equal_record kept (W.records w));
  Alcotest.(check int) "disk cut back to them" good_bytes (D.durable_bytes disk);
  let next = W.Decided Core.Types.Aborted in
  W.force w next;
  Alcotest.(check bool) "next crash loses nothing" true (W.crash w = None);
  Alcotest.(check bool) "next append lands after them" true
    (List.equal W.equal_record (kept @ [ next ]) (W.records w))

(* ---------------- the store ---------------- *)

let test_store_sites_iter_fold () =
  let store = W.Store.create ~n_sites:3 () in
  W.append (W.Store.log store ~site:2) (W.Decided Core.Types.Aborted);
  W.append (W.Store.log store ~site:3) (W.Began { protocol = "x"; initial = "q" });
  W.append (W.Store.log store ~site:3) (W.Decided Core.Types.Committed);
  Alcotest.(check (list int)) "sites in order" [ 1; 2; 3 ] (W.Store.sites store);
  let visited = ref [] in
  W.Store.iter (fun site w -> visited := (site, W.length w) :: !visited) store;
  Alcotest.(check (list (pair int int)))
    "iter visits every site once" [ (1, 0); (2, 1); (3, 2) ] (List.rev !visited);
  let total = W.Store.fold (fun acc _ w -> acc + W.length w) 0 store in
  Alcotest.(check int) "fold accumulates" 3 total

let suite =
  [
    prop_engine_codec_round_trip;
    prop_kv_codec_round_trip;
    prop_engine_codec_total_on_truncation;
    prop_kv_codec_total_on_truncation;
    prop_kv_codec_total_on_bit_flips;
    prop_memory_and_codec_summaries_agree;
    prop_durable_crash_without_faults_preserves_forced_records;
    prop_torn_tail_recovers_a_prefix;
    Alcotest.test_case "torn tail surfaces in repairs" `Quick test_torn_tail_repair_reported;
    Alcotest.test_case "an undecodable record truncates the log" `Quick
      test_undecodable_record_truncates;
    Alcotest.test_case "store: sites, iter, fold" `Quick test_store_sites_iter_fold;
  ]
