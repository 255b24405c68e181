(** A simulated disk (its faults are documented in the interface): one
    byte buffer cut by two marks.

    {v
      0            durable          limbo              len
      | on the platter |  limbo bytes  |  pending bytes  |
    v}

    Limbo bytes were acknowledged by a lying sync but are still volatile.
    A sync moves marks, never bytes; a crash cuts [len] back to
    [durable] after a fault has drawn what of the tail (limbo plus
    pending, as one run of bytes) still reaches the platter. *)

type fault = Torn | Corrupt | Lost_flush [@@deriving show { with_path = false }, eq, ord]

type injection = { fault : fault; nth : int } [@@deriving show { with_path = false }, eq, ord]

type stats = {
  mutable writes : int;
  mutable syncs : int;
  mutable crashes : int;
  mutable torn_fired : int;
  mutable corrupt_fired : int;
  mutable lost_flushes : int;
}

(* ---------------- the record framing over raw bytes ---------------- *)

module Frame = struct
  (* u32-LE payload length, u32-LE CRC-32 of the payload, payload *)

  let header_len = 8
  let max_record = 1 lsl 20

  (* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven
     over native ints: a 32-bit value fits an OCaml int unboxed.  Built at
     module initialisation: sweep workers on several domains compute
     checksums at once, and forcing one lazy table from two domains
     raises [CamlinternalLazy.Undefined]. *)
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc b ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Disk.Frame.crc32";
    let c = ref 0xFFFFFFFF in
    for i = off to off + len - 1 do
      c := Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  let crc32 b ~off ~len = Int32.of_int (crc b ~off ~len)

  (* The header of the [len]-byte payload already at [off + header_len]. *)
  let seal b ~off ~len =
    Bytes.set_int32_le b off (Int32.of_int len);
    Bytes.set_int32_le b (off + 4) (Int32.of_int (crc b ~off:(off + header_len) ~len))

  let encode payload =
    let len = Bytes.length payload in
    let out = Bytes.create (header_len + len) in
    Bytes.blit payload 0 out header_len len;
    seal out ~off:0 ~len;
    out

  type repair = { valid_records : int; dropped_bytes : int; reason : string option }
  [@@deriving show { with_path = false }, eq]

  let clean r = r.reason = None

  (** Scan a raw log image, stopping (and truncating) at the first frame
      that fails validation: a short header, an absurd length, a body
      running past the image, or a checksum mismatch.  Everything before
      the bad frame is returned; [repair] says what was cut and why. *)
  let scan b =
    let total = Bytes.length b in
    let stop off acc n reason =
      (List.rev acc, { valid_records = n; dropped_bytes = total - off; reason = Some reason })
    in
    let rec go off acc n =
      if off = total then (List.rev acc, { valid_records = n; dropped_bytes = 0; reason = None })
      else if total - off < header_len then stop off acc n "torn header"
      else
        let len = Int32.to_int (Bytes.get_int32_le b off) in
        if len < 0 || len > max_record then
          stop off acc n (Fmt.str "absurd record length %d" len)
        else if total - off - header_len < len then stop off acc n "torn record body"
        else if Bytes.get_int32_le b (off + 4) <> crc32 b ~off:(off + header_len) ~len then
          stop off acc n "checksum mismatch"
        else go (off + header_len + len) (Bytes.sub b (off + header_len) len :: acc) (n + 1)
    in
    go 0 [] 0
end

(* ---------------- the disk ---------------- *)

type t = {
  mutable buf : Bytes.t;  (** [0, len) holds every write, durable or not *)
  mutable len : int;
  mutable durable : int;  (** the two marks, as above *)
  mutable limbo : int;
  rng : Rng.t;
  mutable injections : injection list;
  stats : stats;
}

(* 128 bytes hold a short run's log at one site (a [Began] frame and a
   few transitions); a longer log doubles the buffer. *)
let create ~seed () =
  {
    buf = Bytes.create 128;
    len = 0;
    durable = 0;
    limbo = 0;
    rng = Rng.create ~seed;
    injections = [];
    stats =
      { writes = 0; syncs = 0; crashes = 0; torn_fired = 0; corrupt_fired = 0; lost_flushes = 0 };
  }

let set_faults t injections = t.injections <- injections
let stats t = t.stats
let durable_bytes t = t.durable
let pending_bytes t = t.len - t.limbo
let limbo_bytes t = t.limbo - t.durable

(* Room for [n] more bytes at [t.len], at least doubling the buffer. *)
let reserve t n =
  let cap = Bytes.length t.buf in
  if t.len + n > cap then begin
    let buf = Bytes.create (max (t.len + n) (2 * cap)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let write t b =
  let n = Bytes.length b in
  t.stats.writes <- t.stats.writes + 1;
  reserve t n;
  Bytes.blit b 0 t.buf t.len n;
  t.len <- t.len + n

let write_frame t payload =
  let n = Buffer.length payload in
  t.stats.writes <- t.stats.writes + 1;
  reserve t (Frame.header_len + n);
  Buffer.blit payload 0 t.buf (t.len + Frame.header_len) n;
  Frame.seal t.buf ~off:t.len ~len:n;
  t.len <- t.len + Frame.header_len + n

(* a [Lost_flush] armed for sync [n]? (no closure: a sync allocates nothing) *)
let rec lies n = function
  | [] -> false
  | i :: rest -> (i.fault = Lost_flush && i.nth = n) || lies n rest

let sync t =
  let lying = lies t.stats.syncs t.injections in
  t.stats.syncs <- t.stats.syncs + 1;
  if lying then begin
    (* the barrier reports success without reaching the platter: the
       bytes join the limbo the next successful sync will flush *)
    if t.len > t.limbo then t.stats.lost_flushes <- t.stats.lost_flushes + 1
  end
  else t.durable <- t.len;
  t.limbo <- t.len

(* recovery repair: cut the durable image back to its valid prefix so
   later appends land after well-formed frames, not after garbage *)
let truncate t n =
  if n < t.durable then begin
    let cut = t.durable - n in
    Bytes.blit t.buf t.durable t.buf n (t.len - t.durable);
    t.durable <- n;
    t.limbo <- t.limbo - cut;
    t.len <- t.len - cut
  end

let contents t = Bytes.sub t.buf 0 t.len
let durable_contents t = Bytes.sub t.buf 0 t.durable

let crash t =
  let n = t.stats.crashes in
  t.stats.crashes <- n + 1;
  (* limbo and pending are one tail: a fault draws over both *)
  let len = t.len - t.durable in
  (if len > 0 then
     match
       List.find_opt (fun i -> i.nth = n && (i.fault = Torn || i.fault = Corrupt)) t.injections
     with
     | Some { fault = Torn; _ } ->
         t.stats.torn_fired <- t.stats.torn_fired + 1;
         (* a strict prefix reaches the platter — possibly mid-record *)
         t.durable <- t.durable + Rng.int t.rng len
     | Some { fault = Corrupt; _ } ->
         t.stats.corrupt_fired <- t.stats.corrupt_fired + 1;
         let bit = Rng.int t.rng (len * 8) in
         let byte = t.durable + (bit / 8) and mask = 1 lsl (bit mod 8) in
         Bytes.set t.buf byte (Char.chr (Char.code (Bytes.get t.buf byte) lxor mask));
         t.durable <- t.len
     | _ -> ());
  t.limbo <- t.durable;
  t.len <- t.durable
