(** Tests for {!Sim.Disk}: the write/sync/crash durability contract, the
    three injectable storage faults, the on-disk frame bytes, and the
    {!Sim.Disk.Frame} scan that recovery relies on to cut a damaged log
    back to its valid prefix. *)

module D = Sim.Disk

let b s = Bytes.of_string s
let s b = Bytes.to_string b

(* durable, limbo and pending bytes: the disk's two marks and its end *)
let marks d = (D.durable_bytes d, D.limbo_bytes d, D.pending_bytes d)
let check_marks what expected d = Alcotest.(check (triple int int int)) what expected (marks d)

(* ---------------- write / sync / crash ---------------- *)

let test_write_is_volatile_until_sync () =
  let d = D.create ~seed:1 () in
  D.write d (b "hello");
  Alcotest.(check int) "nothing durable yet" 0 (D.durable_bytes d);
  Alcotest.(check int) "pending" 5 (D.pending_bytes d);
  Alcotest.(check string) "a live reader sees it" "hello" (s (D.contents d));
  Alcotest.(check string) "a crash would not" "" (s (D.durable_contents d));
  D.sync d;
  Alcotest.(check int) "sync made it durable" 5 (D.durable_bytes d);
  Alcotest.(check string) "on the platter" "hello" (s (D.durable_contents d))

let test_crash_loses_unsynced_tail () =
  let d = D.create ~seed:1 () in
  D.write d (b "keep");
  D.sync d;
  D.write d (b "lose");
  D.crash d;
  Alcotest.(check string) "synced prefix survives" "keep" (s (D.durable_contents d));
  Alcotest.(check int) "pending gone" 0 (D.pending_bytes d);
  Alcotest.(check string) "live view = durable view after a crash" "keep" (s (D.contents d))

let test_truncate_cuts_durable_image () =
  let d = D.create ~seed:1 () in
  D.write d (b "0123456789");
  D.sync d;
  D.truncate d 4;
  Alcotest.(check string) "cut to first n bytes" "0123" (s (D.durable_contents d));
  D.truncate d 99;
  Alcotest.(check string) "over-long truncate is a no-op" "0123" (s (D.durable_contents d))

(* ---------------- lost flush ---------------- *)

let test_lost_flush_lies_then_crash_loses_acknowledged_bytes () =
  let d = D.create ~seed:1 () in
  D.set_faults d [ { D.fault = D.Lost_flush; nth = 0 } ];
  D.write d (b "vote");
  D.sync d;
  (* the barrier lied: the caller thinks "vote" is durable *)
  Alcotest.(check int) "nothing on the platter" 0 (D.durable_bytes d);
  Alcotest.(check int) "bytes in limbo" 4 (D.limbo_bytes d);
  Alcotest.(check string) "a live reader still sees them" "vote" (s (D.contents d));
  Alcotest.(check int) "the lie is counted" 1 (D.stats d).D.lost_flushes;
  D.crash d;
  Alcotest.(check string) "crash loses what the sync acknowledged" "" (s (D.durable_contents d))

let test_lost_flush_limbo_flushed_by_next_sync () =
  let d = D.create ~seed:1 () in
  D.set_faults d [ { D.fault = D.Lost_flush; nth = 0 } ];
  D.write d (b "a");
  D.sync d;
  D.write d (b "b");
  D.sync d;
  (* the next successful sync flushes limbo and pending, in order *)
  Alcotest.(check string) "everything durable, in order" "ab" (s (D.durable_contents d));
  Alcotest.(check int) "limbo drained" 0 (D.limbo_bytes d)

(* ---------------- torn and corrupt tails ---------------- *)

let test_torn_crash_keeps_strict_prefix_of_tail () =
  let d = D.create ~seed:3 () in
  D.write d (b "prefix.");
  D.sync d;
  D.set_faults d [ { D.fault = D.Torn; nth = 0 } ];
  D.write d (b "torn-tail");
  D.crash d;
  let image = s (D.durable_contents d) in
  let n = String.length image in
  Alcotest.(check bool) "synced prefix intact" true (n >= 7 && String.sub image 0 7 = "prefix.");
  Alcotest.(check bool) "a strict prefix of the tail persisted" true (n < 7 + 9);
  Alcotest.(check string) "what persisted is a prefix, not garbage"
    (String.sub "prefix.torn-tail" 0 n) image;
  Alcotest.(check int) "fault counted" 1 (D.stats d).D.torn_fired

let test_corrupt_crash_flips_exactly_one_bit () =
  let d = D.create ~seed:3 () in
  D.write d (b "prefix.");
  D.sync d;
  D.set_faults d [ { D.fault = D.Corrupt; nth = 0 } ];
  D.write d (b "tail");
  D.crash d;
  let image = s (D.durable_contents d) in
  Alcotest.(check int) "tail persists in full" (7 + 4) (String.length image);
  Alcotest.(check string) "prefix untouched" "prefix." (String.sub image 0 7);
  let original = "prefix.tail" in
  let flipped_bits = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code original.[i] in
      let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
      flipped_bits := !flipped_bits + popcount x)
    image;
  Alcotest.(check int) "exactly one flipped bit" 1 !flipped_bits;
  Alcotest.(check int) "fault counted" 1 (D.stats d).D.corrupt_fired

(* A lying sync leaves limbo behind; the crash that follows draws its
   fault over limbo and pending as one tail. *)
let lie_then_crash ~seed fault =
  let d = D.create ~seed () in
  D.write d (b "durable.");
  D.sync d;
  check_marks "synced" (8, 0, 0) d;
  D.set_faults d [ { D.fault = D.Lost_flush; nth = 1 }; { D.fault; nth = 0 } ];
  D.write d (b "limbo");
  check_marks "written" (8, 0, 5) d;
  D.sync d;
  check_marks "the lie moved pending to limbo" (8, 5, 0) d;
  D.write d (b "pending");
  check_marks "more written" (8, 5, 7) d;
  Alcotest.(check string) "a live reader sees all of it" "durable.limbopending" (s (D.contents d));
  D.crash d;
  d

let test_lie_then_torn_crash () =
  let d = lie_then_crash ~seed:3 D.Torn in
  (* the torn prefix runs past the limbo into the pending bytes *)
  check_marks "a prefix of limbo ++ pending persisted" (18, 0, 0) d;
  Alcotest.(check string) "durable image" "durable.limbopendi" (s (D.durable_contents d));
  Alcotest.(check string) "live view = durable view" "durable.limbopendi" (s (D.contents d));
  D.write d (b "+");
  D.sync d;
  check_marks "appends land after the prefix" (19, 0, 0) d;
  Alcotest.(check string) "in order" "durable.limbopendi+" (s (D.durable_contents d))

let test_lie_then_corrupt_crash () =
  let d = lie_then_crash ~seed:3 D.Corrupt in
  check_marks "limbo ++ pending persisted in full" (20, 0, 0) d;
  (* one bit of the 12-byte tail flipped: bit 6 of its 3rd byte, in the
     limbo bytes *)
  Alcotest.(check string) "durable image" "durable.li-bopending" (s (D.durable_contents d));
  Alcotest.(check int) "fault counted" 1 (D.stats d).D.corrupt_fired;
  D.truncate d 8;
  check_marks "repair cuts the tail" (8, 0, 0) d;
  Alcotest.(check string) "back to the synced prefix" "durable." (s (D.contents d))

let test_faults_key_on_occurrence_index () =
  (* an injection armed for the second crash must not fire at the first *)
  let d = D.create ~seed:5 () in
  D.set_faults d [ { D.fault = D.Corrupt; nth = 1 } ];
  D.write d (b "one");
  D.crash d;
  Alcotest.(check string) "first crash loses the tail cleanly" "" (s (D.durable_contents d));
  D.write d (b "two");
  D.crash d;
  Alcotest.(check int) "second crash fires the injection" 1 (D.stats d).D.corrupt_fired

(* ---------------- the frame bytes ---------------- *)

let test_crc32_known_answer () =
  Alcotest.(check int32) "CRC-32 of \"123456789\"" 0xCBF43926l
    (D.Frame.crc32 (b "123456789") ~off:0 ~len:9);
  Alcotest.(check int32) "of a slice" 0xCBF43926l (D.Frame.crc32 (b "xx123456789y") ~off:2 ~len:9);
  Alcotest.(check int32) "of nothing" 0l (D.Frame.crc32 (b "") ~off:0 ~len:0)

(* u32-LE length 3, u32-LE CRC-32 of "abc" (0x352441C2), "abc" *)
let abc_frame = "\x03\x00\x00\x00\xc2\x41\x24\x35abc"

let test_frame_encode_bytes () =
  Alcotest.(check string) "frame bytes" abc_frame (s (D.Frame.encode (b "abc")))

module String_log = Sim.Log.Make (struct
  type record = string

  let encode = Buffer.add_string
  let of_bytes p = Ok (Bytes.to_string p)
end)

let test_log_append_frame_bytes () =
  let log = String_log.create () in
  String_log.append log "abc";
  let d = Option.get (String_log.disk log) in
  Alcotest.(check string) "appended frame = encoded frame" abc_frame (s (D.contents d));
  String_log.force log "abc";
  Alcotest.(check string) "frames follow each other" (abc_frame ^ abc_frame) (s (D.durable_contents d));
  (* an engine record, through its codec: tag 0, two u16-LE-prefixed strings *)
  let wal = Engine.Wal.create () in
  Engine.Wal.force wal (Engine.Wal.Began { protocol = "central-3pc"; initial = "q1" });
  Alcotest.(check string) "engine WAL frame"
    "\x12\x00\x00\x00\x32\xc7\x72\x9b\x00\x0b\x00central-3pc\x02\x00q1"
    (s (D.durable_contents (Option.get (Engine.Wal.disk wal))))

(* ---------------- the frame scan ---------------- *)

let encode_all payloads =
  let buf = Buffer.create 64 in
  List.iter (fun p -> Buffer.add_bytes buf (D.Frame.encode (b p))) payloads;
  Buffer.to_bytes buf

let payloads_testable = Alcotest.(list string)
let scanned image = let ps, r = D.Frame.scan image in (List.map s ps, r)

let test_frame_round_trip () =
  let ps, repair = scanned (encode_all [ "a"; ""; "longer payload" ]) in
  Alcotest.check payloads_testable "all payloads back" [ "a"; ""; "longer payload" ] ps;
  Alcotest.(check bool) "clean" true (D.Frame.clean repair);
  Alcotest.(check int) "counted" 3 repair.D.Frame.valid_records

let test_frame_scan_stops_at_torn_body () =
  let good = encode_all [ "first"; "second" ] in
  let torn = Bytes.sub (encode_all [ "first"; "second"; "third" ]) 0 (Bytes.length good + 9) in
  let ps, repair = scanned torn in
  Alcotest.check payloads_testable "valid prefix survives" [ "first"; "second" ] ps;
  Alcotest.(check (option string)) "reason names the tear" (Some "torn record body")
    repair.D.Frame.reason;
  Alcotest.(check int) "dropped bytes counted" 9 repair.D.Frame.dropped_bytes

let test_frame_scan_stops_at_checksum_mismatch () =
  let image = encode_all [ "first"; "second" ] in
  (* flip a bit inside the second frame's payload *)
  let off = Bytes.length (D.Frame.encode (b "first")) + D.Frame.header_len in
  Bytes.set image off (Char.chr (Char.code (Bytes.get image off) lxor 1));
  let ps, repair = scanned image in
  Alcotest.check payloads_testable "only the first survives" [ "first" ] ps;
  Alcotest.(check (option string)) "reason" (Some "checksum mismatch") repair.D.Frame.reason

let test_frame_scan_stops_at_absurd_length () =
  let image = encode_all [ "ok" ] in
  let garbage = Bytes.make D.Frame.header_len '\xff' in
  let ps, repair = scanned (Bytes.cat image garbage) in
  Alcotest.check payloads_testable "valid prefix survives" [ "ok" ] ps;
  Alcotest.(check bool) "reason mentions the length" true
    (match repair.D.Frame.reason with
    | Some r -> String.length r >= 6 && String.sub r 0 6 = "absurd"
    | None -> false)

let gen_payloads =
  QCheck2.Gen.(small_list (string_size (int_range 0 20)))

let prop_scan_of_any_cut_is_a_valid_prefix =
  Helpers.qtest "scan of any cut image yields a prefix of the payloads"
    QCheck2.Gen.(pair gen_payloads (int_range 0 1000))
    (fun (payloads, cut) ->
      let image = encode_all payloads in
      let cut = min cut (Bytes.length image) in
      let ps, repair = D.Frame.scan (Bytes.sub image 0 cut) in
      let survived = List.map s ps in
      let expected_prefix =
        List.filteri (fun i _ -> i < List.length survived) payloads
      in
      survived = expected_prefix
      && repair.D.Frame.valid_records = List.length survived
      && D.Frame.clean repair = (repair.D.Frame.dropped_bytes = 0)
      && repair.D.Frame.dropped_bytes >= 0)

let suite =
  [
    Alcotest.test_case "write is volatile until sync" `Quick test_write_is_volatile_until_sync;
    Alcotest.test_case "crash loses the unsynced tail" `Quick test_crash_loses_unsynced_tail;
    Alcotest.test_case "truncate cuts the durable image" `Quick test_truncate_cuts_durable_image;
    Alcotest.test_case "lost flush: lie then crash" `Quick
      test_lost_flush_lies_then_crash_loses_acknowledged_bytes;
    Alcotest.test_case "lost flush: next sync flushes limbo" `Quick
      test_lost_flush_limbo_flushed_by_next_sync;
    Alcotest.test_case "torn crash keeps a strict prefix" `Quick
      test_torn_crash_keeps_strict_prefix_of_tail;
    Alcotest.test_case "corrupt crash flips one bit" `Quick test_corrupt_crash_flips_exactly_one_bit;
    Alcotest.test_case "faults key on occurrence index" `Quick test_faults_key_on_occurrence_index;
    Alcotest.test_case "lying sync, then a torn crash" `Quick test_lie_then_torn_crash;
    Alcotest.test_case "lying sync, then a corrupt crash" `Quick test_lie_then_corrupt_crash;
    Alcotest.test_case "CRC-32 known answer" `Quick test_crc32_known_answer;
    Alcotest.test_case "frame bytes of Frame.encode" `Quick test_frame_encode_bytes;
    Alcotest.test_case "frame bytes of Log.append" `Quick test_log_append_frame_bytes;
    Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
    Alcotest.test_case "frame scan: torn body" `Quick test_frame_scan_stops_at_torn_body;
    Alcotest.test_case "frame scan: checksum mismatch" `Quick
      test_frame_scan_stops_at_checksum_mismatch;
    Alcotest.test_case "frame scan: absurd length" `Quick test_frame_scan_stops_at_absurd_length;
    prop_scan_of_any_cut_is_a_valid_prefix;
  ]
