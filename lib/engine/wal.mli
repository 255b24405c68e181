(** The protocol engine's write-ahead log, an instance of {!Sim.Log}:
    this module supplies the record type that {!Runtime} and {!Paxos}
    force, its binary codec, and the queries recovery reads
    ({!last_state}, {!voted_yes}, {!decided}).  Appending, forcing,
    group commit, crash repair and the per-site {!Store} are
    {!Sim.Log.S}'s, included here so every name keeps its path. *)

type record =
  | Began of { protocol : string; initial : string }
  | Transitioned of { to_state : string; vote : Core.Types.vote option }
      (** a protocol FSA transition, logged before its messages are sent *)
  | Moved of { to_state : string }
      (** termination phase 1: adopted the backup's state *)
  | Decided of Core.Types.outcome

val pp_record : Format.formatter -> record -> unit
val show_record : record -> string
val equal_record : record -> record -> bool

val to_bytes : record -> Bytes.t
(** The on-disk payload (framing is {!Sim.Disk.Frame}'s job). *)

val of_bytes : Bytes.t -> (record, string) result
(** Total inverse of {!to_bytes}: [of_bytes (to_bytes r) = Ok r]; any
    truncated or mangled payload is an [Error], never an exception. *)

include Sim.Log.S with type record := record

val last_state : t -> string option
(** Last logged local state, replayed in order. *)

val voted_yes : t -> bool
(** Whether the site cast a yes vote before the log ends — the "commit
    point" question for a participant. *)

val decided : t -> Core.Types.outcome option
val pp : Format.formatter -> t -> unit
