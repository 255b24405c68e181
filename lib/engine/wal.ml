(** The protocol engine's write-ahead log: the record type its sites
    force (by {!Runtime} and {!Paxos}), the record's binary codec, and
    the queries the engine's recovery reads.  Framing, the disk, group
    commit and crash repair are {!Sim.Log}'s. *)

type record =
  | Began of { protocol : string; initial : string }
  | Transitioned of { to_state : string; vote : Core.Types.vote option }
      (** a protocol FSA transition, logged before its messages are sent *)
  | Moved of { to_state : string }
      (** phase 1 of the termination protocol: adopted the backup's state *)
  | Decided of Core.Types.outcome
[@@deriving show { with_path = false }, eq]

(* ---------------- binary codec ---------------- *)

let put_string b s =
  let n = String.length s in
  if n > 0xffff then invalid_arg "Wal: string too long to encode";
  Buffer.add_uint16_le b n;
  Buffer.add_string b s

let encode b r =
  match r with
  | Began { protocol; initial } ->
      Buffer.add_uint8 b 0;
      put_string b protocol;
      put_string b initial
  | Transitioned { to_state; vote } ->
      Buffer.add_uint8 b 1;
      put_string b to_state;
      Buffer.add_uint8 b
        (match vote with None -> 0 | Some Core.Types.Yes -> 1 | Some Core.Types.No -> 2)
  | Moved { to_state } ->
      Buffer.add_uint8 b 2;
      put_string b to_state
  | Decided o ->
      Buffer.add_uint8 b 3;
      Buffer.add_uint8 b (match o with Core.Types.Committed -> 0 | Core.Types.Aborted -> 1)

let to_bytes r =
  let b = Buffer.create 32 in
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
  let str () =
    if !pos + 2 > total then fail "truncated string length at byte %d" !pos;
    let n = Bytes.get_uint16_le bytes !pos in
    pos := !pos + 2;
    if !pos + n > total then fail "truncated string body at byte %d" !pos;
    let s = Bytes.sub_string bytes !pos n in
    pos := !pos + n;
    s
  in
  match
    let r =
      match u8 () with
      | 0 ->
          let protocol = str () in
          let initial = str () in
          Began { protocol; initial }
      | 1 ->
          let to_state = str () in
          let vote =
            match u8 () with
            | 0 -> None
            | 1 -> Some Core.Types.Yes
            | 2 -> Some Core.Types.No
            | v -> fail "bad vote byte %d" v
          in
          Transitioned { to_state; vote }
      | 2 -> Moved { to_state = str () }
      | 3 -> (
          match u8 () with
          | 0 -> Decided Core.Types.Committed
          | 1 -> Decided Core.Types.Aborted
          | v -> fail "bad outcome byte %d" v)
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

(** Last logged local state, replayed in order: [Began] sets it,
    [Transitioned]/[Moved] update it. *)
let last_state t =
  List.fold_left
    (fun acc r ->
      match r with
      | Began { initial; _ } -> Some initial
      | Transitioned { to_state; _ } | Moved { to_state } -> Some to_state
      | Decided _ -> acc)
    None (records t)

(** Whether the site had cast a yes vote before the log ends — the paper's
    "commit point" question for a participant: before voting yes it may
    abort unilaterally upon recovery. *)
let voted_yes t =
  List.exists
    (function Transitioned { vote = Some Core.Types.Yes; _ } -> true | _ -> false)
    (records t)

let decided t =
  List.fold_left (fun acc r -> match r with Decided o -> Some o | _ -> acc) None (records t)

let pp ppf t = Fmt.(list ~sep:cut pp_record) ppf (records t)
