(** Wire messages of the database commit path. *)

type t =
  | Client_begin of Txn.t
  | Prepare of { txn : int; ops : Txn.op list; participants : Core.Types.site list }
      (** phase 1: execute, lock, vote; carries the participant list so
          survivors can run the termination protocol *)
  | Vote of { txn : int; vote : [ `Yes | `No | `Read_only ] }
  | Move of { txn : int; target : int; epoch : int }
      (** move to the state [target] of {!row}, fenced by election epoch:
          the 3PC buffer phase and termination phase 1.  Prints as
          [precommit] when [target] is the buffer state, else [demote]. *)
  | Move_ack of { txn : int; target : int }
  | Outcome of { txn : int; commit : bool }
  | Done of { txn : int }
  | Status_req of { txn : int }
  | Status_rep of { txn : int; outcome : bool option }
  | PState_req of { txn : int; epoch : int }
      (** quorum termination: a backup polls participant progress *)
  | PState_rep of { txn : int; state : int }  (** a state code of {!row} *)
  | Heartbeat  (** detector mode: periodic evidence of life *)
  | Epoch_reject of { txn : int; epoch : int }
      (** a directive was fenced; carries the participant's current epoch *)
  | PaxAccept of { txn : int; ballot : int; commit : bool; participants : Core.Types.site list }
      (** Paxos Commit phase 2a: a leader asks the acceptors to accept *)
  | PaxAccepted of { txn : int; ballot : int; commit : bool }  (** phase 2b *)
  | PaxP1a of { txn : int; ballot : int }  (** recovery phase 1a *)
  | PaxP1b of { txn : int; ballot : int; accepted : (int * bool) option }
      (** promise; carries the highest accepted (ballot, outcome), if any *)
  | PaxReject of { txn : int; ballot : int }
      (** a higher ballot was promised; the deposed leader stands down *)
  | PaxRecover of { txn : int; participants : Core.Types.site list }
      (** a blocked participant nudges a standby acceptor into recovery *)
  | Lease_expire
      (** fault injection: standby acceptors act as if the leader lease
          lapsed, opening higher-ballot recovery while it may be alive *)

val rulebook : Engine.Rulebook.t
(** Central 3PC on 3 sites, compiled once per process.  A participant
    row's verdicts are the same at every site count, so every kv site
    terminates by this rulebook's {!row}, whatever [n_sites] is. *)

val row : Core.Types.site
(** The participant row (site 2) whose state codes the termination
    messages carry: [q] working, [w] prepared, [p] precommitted, [c] and
    [a] done. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val to_string : t -> string
