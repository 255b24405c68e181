(** The database's write-ahead log: the record type the kv nodes force
    at every commit-protocol boundary, its binary codec, and the
    queries recovery reads to re-establish the locks of in-doubt
    transactions and classify them (before the vote: unilateral abort;
    after: in doubt).  Framing, the disk, group commit and crash repair
    are {!Sim.Log}'s. *)

type record =
  | P_prepared of {
      txn : int;
      coordinator : Core.Types.site;
      participants : Core.Types.site list;
      writes : (string * int) list;
      locks : (string * Lock_table.mode) list;
    }
      (** participant voted yes; its write set, locks and the transaction's
          topology are on the log (recovery needs to know whom to ask) *)
  | P_precommitted of { txn : int }
  | P_outcome of { txn : int; commit : bool }  (** participant learned / applied the outcome *)
  | C_begin of { txn : int; participants : Core.Types.site list; three_phase : bool }
      (** coordinator accepted the transaction *)
  | C_precommitted of { txn : int }  (** coordinator logged the buffer phase *)
  | C_decided of { txn : int; commit : bool }
  | C_finished of { txn : int }
  | A_promised of { txn : int; ballot : int }
      (** Paxos-Commit acceptor: promised not to accept below [ballot] —
          forced before the phase-1b reply leaves *)
  | A_accepted of { txn : int; ballot : int; commit : bool }
      (** Paxos-Commit acceptor: accepted the outcome at [ballot] —
          forced before the phase-2b reply leaves (the replicated half of
          the decision; a recovering leader rebuilds from these) *)
[@@deriving show { with_path = false }, eq]

(* ---------------- binary codec ---------------- *)

let put_string b s =
  let n = String.length s in
  if n > 0xffff then invalid_arg "Kv_wal: string too long to encode";
  Buffer.add_uint16_le b n;
  Buffer.add_string b s

let put_int b i = Buffer.add_int32_le b (Int32.of_int i)
let put_bool b x = Buffer.add_uint8 b (if x then 1 else 0)

let put_list b put l =
  let n = List.length l in
  if n > 0xffff then invalid_arg "Kv_wal: list too long to encode";
  Buffer.add_uint16_le b n;
  List.iter (put b) l

let put_site b s = Buffer.add_uint16_le b s
let put_write b (k, v) = put_string b k; put_int b v

let put_lock b (k, m) =
  put_string b k;
  Buffer.add_uint8 b (match m with Lock_table.Shared -> 0 | Lock_table.Exclusive -> 1)

let encode b r =
  match r with
  | P_prepared { txn; coordinator; participants; writes; locks } ->
      Buffer.add_uint8 b 0;
      put_int b txn;
      put_site b coordinator;
      put_list b put_site participants;
      put_list b put_write writes;
      put_list b put_lock locks
  | P_precommitted { txn } ->
      Buffer.add_uint8 b 1;
      put_int b txn
  | P_outcome { txn; commit } ->
      Buffer.add_uint8 b 2;
      put_int b txn;
      put_bool b commit
  | C_begin { txn; participants; three_phase } ->
      Buffer.add_uint8 b 3;
      put_int b txn;
      put_list b put_site participants;
      put_bool b three_phase
  | C_precommitted { txn } ->
      Buffer.add_uint8 b 4;
      put_int b txn
  | C_decided { txn; commit } ->
      Buffer.add_uint8 b 5;
      put_int b txn;
      put_bool b commit
  | C_finished { txn } ->
      Buffer.add_uint8 b 6;
      put_int b txn
  | A_promised { txn; ballot } ->
      Buffer.add_uint8 b 7;
      put_int b txn;
      put_int b ballot
  | A_accepted { txn; ballot; commit } ->
      Buffer.add_uint8 b 8;
      put_int b txn;
      put_int b ballot;
      put_bool b commit

let to_bytes r =
  let b = Buffer.create 48 in
  encode b r;
  Buffer.to_bytes b

let of_bytes bytes =
  let total = Bytes.length bytes in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt in
  let u8 () =
    if !pos >= total then fail "truncated record at byte %d" !pos;
    let v = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v
  in
  let u16 () =
    if !pos + 2 > total then fail "truncated u16 at byte %d" !pos;
    let v = Bytes.get_uint16_le bytes !pos in
    pos := !pos + 2;
    v
  in
  let int () =
    if !pos + 4 > total then fail "truncated int at byte %d" !pos;
    let v = Int32.to_int (Bytes.get_int32_le bytes !pos) in
    pos := !pos + 4;
    v
  in
  let bool () = match u8 () with 0 -> false | 1 -> true | v -> fail "bad bool byte %d" v in
  let str () =
    let n = u16 () in
    if !pos + n > total then fail "truncated string body at byte %d" !pos;
    let s = Bytes.sub_string bytes !pos n in
    pos := !pos + n;
    s
  in
  let list item () = List.init (u16 ()) (fun _ -> item ()) in
  let site () = u16 () in
  let write () = let k = str () in (k, int ()) in
  let lock () =
    let k = str () in
    (k, match u8 () with 0 -> Lock_table.Shared | 1 -> Lock_table.Exclusive
        | v -> fail "bad lock mode byte %d" v)
  in
  match
    let r =
      match u8 () with
      | 0 ->
          let txn = int () in
          let coordinator = site () in
          let participants = list site () in
          let writes = list write () in
          let locks = list lock () in
          P_prepared { txn; coordinator; participants; writes; locks }
      | 1 -> P_precommitted { txn = int () }
      | 2 ->
          let txn = int () in
          P_outcome { txn; commit = bool () }
      | 3 ->
          let txn = int () in
          let participants = list site () in
          C_begin { txn; participants; three_phase = bool () }
      | 4 -> C_precommitted { txn = int () }
      | 5 ->
          let txn = int () in
          C_decided { txn; commit = bool () }
      | 6 -> C_finished { txn = int () }
      | 7 ->
          let txn = int () in
          A_promised { txn; ballot = int () }
      | 8 ->
          let txn = int () in
          let ballot = int () in
          A_accepted { txn; ballot; commit = bool () }
      | tag -> fail "unknown record tag %d" tag
    in
    if !pos <> total then fail "%d trailing bytes after record" (total - !pos);
    r
  with
  | r -> Ok r
  | exception Failure m -> Error m

include Sim.Log.Make (struct
  type nonrec record = record

  let encode = encode
  let of_bytes = of_bytes
end)

(** Participant-side classification of [txn] from the log. *)
type p_class =
  | P_unknown  (** nothing logged: crashed before voting — unilateral abort *)
  | P_in_doubt of {
      coordinator : Core.Types.site;
      participants : Core.Types.site list;
      writes : (string * int) list;
      locks : (string * Lock_table.mode) list;
      precommitted : bool;
    }
  | P_resolved of bool

let classify_participant t ~txn : p_class =
  List.fold_left
    (fun acc r ->
      match r with
      | P_prepared { txn = x; coordinator; participants; writes; locks } when x = txn ->
          P_in_doubt { coordinator; participants; writes; locks; precommitted = false }
      | P_precommitted { txn = x } when x = txn -> (
          match acc with
          | P_in_doubt d -> P_in_doubt { d with precommitted = true }
          | other -> other)
      | P_outcome { txn = x; commit } when x = txn -> P_resolved commit
      | _ -> acc)
    P_unknown (records t)

(** Coordinator-side classification. *)
type c_class =
  | C_unknown
  | C_collecting of { participants : Core.Types.site list; three_phase : bool }
  | C_in_precommit of { participants : Core.Types.site list }
  | C_resolved of { participants : Core.Types.site list; commit : bool; finished : bool }

let classify_coordinator t ~txn : c_class =
  List.fold_left
    (fun acc r ->
      match (r, acc) with
      | C_begin { txn = x; participants; three_phase }, _ when x = txn ->
          C_collecting { participants; three_phase }
      | C_precommitted { txn = x }, C_collecting { participants; _ } when x = txn ->
          C_in_precommit { participants }
      | C_decided { txn = x; commit }, C_collecting { participants; _ } when x = txn ->
          C_resolved { participants; commit; finished = false }
      | C_decided { txn = x; commit }, C_in_precommit { participants } when x = txn ->
          C_resolved { participants; commit; finished = false }
      | C_finished { txn = x }, C_resolved res when x = txn ->
          C_resolved { res with finished = true }
      | _ -> acc)
    C_unknown (records t)

(** Every transaction id mentioned as coordinator on this log. *)
let coordinated_txns t =
  List.filter_map (function C_begin { txn; _ } -> Some txn | _ -> None) (records t)
  |> List.sort_uniq compare

(** Paxos-Commit acceptor state for [txn]:
    (highest ballot promised or accepted, highest accepted (ballot, outcome)).
    [-1] when nothing was promised — every ballot outranks it. *)
let acceptor_state t ~txn =
  List.fold_left
    (fun ((promised, accepted) as acc) r ->
      match r with
      | A_promised { txn = x; ballot } when x = txn -> (max promised ballot, accepted)
      | A_accepted { txn = x; ballot; commit } when x = txn ->
          ( max promised ballot,
            match accepted with
            | Some (b, _) when b >= ballot -> accepted
            | _ -> Some (ballot, commit) )
      | _ -> acc)
    (-1, None) (records t)

(** Every transaction id mentioned as participant on this log. *)
let participated_txns t =
  List.filter_map (function P_prepared { txn; _ } -> Some txn | _ -> None) (records t)
  |> List.sort_uniq compare
