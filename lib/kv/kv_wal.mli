(** The database's write-ahead log, an instance of {!Sim.Log}: this
    module supplies the record type the kv nodes force at every
    commit-protocol boundary, its binary codec, and the queries recovery
    reads (the [classify_*] functions, the [*_txns] lists and
    {!acceptor_state}).  Appending, forcing, group commit, crash repair
    and the per-site {!Store} are {!Sim.Log.S}'s, included here so every
    name keeps its path. *)

type record =
  | P_prepared of {
      txn : int;
      coordinator : Core.Types.site;
      participants : Core.Types.site list;
      writes : (string * int) list;
      locks : (string * Lock_table.mode) list;
    }
  | P_precommitted of { txn : int }
  | P_outcome of { txn : int; commit : bool }
  | C_begin of { txn : int; participants : Core.Types.site list; three_phase : bool }
  | C_precommitted of { txn : int }
  | C_decided of { txn : int; commit : bool }
  | C_finished of { txn : int }
  | A_promised of { txn : int; ballot : int }
      (** Paxos-Commit acceptor: promised not to accept below [ballot] *)
  | A_accepted of { txn : int; ballot : int; commit : bool }
      (** Paxos-Commit acceptor: accepted the outcome at [ballot] *)

val pp_record : Format.formatter -> record -> unit
val show_record : record -> string
val equal_record : record -> record -> bool

val to_bytes : record -> Bytes.t
(** The on-disk payload (framing is {!Sim.Disk.Frame}'s job). *)

val of_bytes : Bytes.t -> (record, string) result
(** Total inverse of {!to_bytes}: [of_bytes (to_bytes r) = Ok r]; any
    truncated or mangled payload is an [Error], never an exception. *)

include Sim.Log.S with type record := record

(** Participant-side classification of a transaction from the log. *)
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

val classify_participant : t -> txn:int -> p_class

(** Coordinator-side classification. *)
type c_class =
  | C_unknown
  | C_collecting of { participants : Core.Types.site list; three_phase : bool }
  | C_in_precommit of { participants : Core.Types.site list }
  | C_resolved of { participants : Core.Types.site list; commit : bool; finished : bool }

val classify_coordinator : t -> txn:int -> c_class
val coordinated_txns : t -> int list
val participated_txns : t -> int list

val acceptor_state : t -> txn:int -> int * (int * bool) option
(** Paxos-Commit acceptor state for the transaction: (highest ballot
    promised or accepted, highest accepted (ballot, outcome)).  [-1]
    when nothing was promised — every ballot outranks it. *)
