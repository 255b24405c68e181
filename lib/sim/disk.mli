(** A simulated disk with an explicit sync barrier and injectable
    storage faults.

    One byte buffer with a durable mark and a limbo mark: [write]
    appends a volatile tail; [sync], the fsync barrier, moves both marks
    to its end; [crash] cuts the buffer back to the durable mark,
    discarding whatever the last sync did not cover.  The paper's "write a
    record in stable storage" is [write] + [sync] — a protocol acting
    between the two is exposed to exactly the partial states its
    recovery protocol must handle.

    Faults are keyed to 0-based occurrence indices so a schedule
    replays deterministically; randomness (torn prefix length, flipped
    bit position) comes from a private per-disk stream, never the
    simulation's world RNG. *)

type fault =
  | Torn
      (** at the disk's nth [crash]: a strict prefix of the unsynced
          tail persists, possibly cutting a record in half *)
  | Corrupt
      (** at the nth [crash]: the unsynced tail persists in full with a
          single flipped bit *)
  | Lost_flush
      (** at the nth [sync]: the barrier lies — it reports success but
          the bytes only become durable at the next successful sync.
          Violates the paper's stable-storage axiom; an ablation, the
          storage analogue of a message drop. *)
[@@deriving show, eq, ord]

type injection = { fault : fault; nth : int } [@@deriving show, eq, ord]

type stats = {
  mutable writes : int;
  mutable syncs : int;
  mutable crashes : int;
  mutable torn_fired : int;
  mutable corrupt_fired : int;
  mutable lost_flushes : int;
}

type t

val create : seed:int -> unit -> t
val set_faults : t -> injection list -> unit
val stats : t -> stats

val write : t -> Bytes.t -> unit
val write_frame : t -> Buffer.t -> unit
(** [write t (Frame.encode (Buffer.to_bytes b))], framed in place. *)

val sync : t -> unit

val crash : t -> unit
(** Lose the unsynced tail (and any limbo a lying sync left behind),
    applying whichever [Torn]/[Corrupt] injection is armed for this
    crash index. *)

val truncate : t -> int -> unit
(** Cut the durable image back to its first [n] bytes — recovery repair,
    so appends after a torn/corrupt tail land after well-formed frames. *)

val contents : t -> Bytes.t
(** What a live reader sees: every acknowledged write, durable or not. *)

val durable_contents : t -> Bytes.t
(** Only what would survive a crash right now (fault effects aside). *)

val durable_bytes : t -> int
val pending_bytes : t -> int

val limbo_bytes : t -> int
(** Bytes a lying sync acknowledged without persisting. *)

(** Length-prefixed, CRC-32-checksummed record framing over raw bytes:
    the on-disk format of the write-ahead logs layered on this disk. *)
module Frame : sig
  val header_len : int
  val max_record : int

  val crc32 : Bytes.t -> off:int -> len:int -> int32
  (** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). *)

  val encode : Bytes.t -> Bytes.t
  (** [u32-LE length ∥ u32-LE crc ∥ payload]. *)

  type repair = { valid_records : int; dropped_bytes : int; reason : string option }
  [@@deriving show, eq]

  val clean : repair -> bool

  val scan : Bytes.t -> Bytes.t list * repair
  (** Walk a raw log image, stopping at the first invalid frame (short
      header, absurd length, torn body, checksum mismatch): returns the
      valid prefix's payloads and what was truncated, and why. *)
end
