(** Wire messages of the database commit path: the commit protocol proper
    (prepare/vote/precommit/outcome), the termination protocol used when a
    coordinator fails under 3PC, and the recovery-time status queries. *)

type t =
  | Client_begin of Txn.t  (** a client submits a transaction to its coordinator *)
  | Prepare of { txn : int; ops : Txn.op list; participants : Core.Types.site list }
      (** phase 1: execute, lock, vote.  Carries the participant list so
          survivors can run the termination protocol without the
          coordinator. *)
  | Vote of { txn : int; vote : [ `Yes | `No | `Read_only ] }
      (** [`Read_only]: the participant only read, has released its locks,
          and need not hear the outcome (the R*-style optimization) *)
  | Move of { txn : int; target : int; epoch : int }
      (** move to the state [target] of {!row}: the 3PC buffer phase and
          termination phase 1.  A move to the buffer state moves a
          prepared participant up; any other target moves a precommitted
          one back down to prepared.  Carries the issuing coordinator's
          election epoch ([round * n_sites + (site - 1)], the live
          coordinator at round 0) so participants can fence directives
          from deposed-but-alive backups in detector mode. *)
  | Move_ack of { txn : int; target : int }  (** echoes the move's [target] *)
  | Outcome of { txn : int; commit : bool }
  | Done of { txn : int }  (** participant's final acknowledgement *)
  | Status_req of { txn : int }  (** recovery: what happened to this transaction? *)
  | Status_rep of { txn : int; outcome : bool option }
  | PState_req of { txn : int; epoch : int }
      (** quorum termination: a backup polls participant progress *)
  | PState_rep of { txn : int; state : int }  (** a participant's state code in {!row} *)
  | Heartbeat  (** detector mode: periodic evidence of life *)
  | Epoch_reject of { txn : int; epoch : int }
      (** a directive for [txn] was fenced; carries the participant's
          current epoch so the deposed backup stands down *)
  | PaxAccept of { txn : int; ballot : int; commit : bool; participants : Core.Types.site list }
      (** Paxos Commit phase 2a: a leader (the round-0 coordinator or a
          recovery leader) asks the acceptors to accept the outcome *)
  | PaxAccepted of { txn : int; ballot : int; commit : bool }  (** phase 2b, back to the leader *)
  | PaxP1a of { txn : int; ballot : int }  (** recovery phase 1a: prepare at [ballot] *)
  | PaxP1b of { txn : int; ballot : int; accepted : (int * bool) option }
      (** promise not to accept below [ballot]; carries the acceptor's
          highest accepted (ballot, outcome), if any — the value a new
          leader must adopt *)
  | PaxReject of { txn : int; ballot : int }
      (** the acceptor has promised a higher ballot than the sender's;
          carries it so the deposed leader stands down *)
  | PaxRecover of { txn : int; participants : Core.Types.site list }
      (** a blocked prepared participant nudges a standby acceptor into
          leading recovery for [txn] *)
  | Lease_expire
      (** fault injection: the leader lease lapsed — standby acceptors
          open higher-ballot recovery rounds for in-flight transactions
          even though the coordinator may still be alive *)
[@@deriving show { with_path = false }, eq]

(* Compiled once, when the module is initialised, so that parallel sweep
   domains only read it. *)
let rulebook = Engine.Rulebook.compile (Core.Catalog.central_3pc 3)
let row = 2
let kind code = Core.Intern.kind_of rulebook.Engine.Rulebook.codes ~site:row ~code
let move_name target = if kind target = Core.Types.Buffer then "precommit" else "demote"

let to_string = function
  | Client_begin t -> Fmt.str "client-begin(t%d)" t.Txn.id
  | Prepare { txn; ops; _ } -> Fmt.str "prepare(t%d,%d ops)" txn (List.length ops)
  | Vote { txn; vote } ->
      Fmt.str "vote(t%d,%s)" txn
        (match vote with `Yes -> "yes" | `No -> "no" | `Read_only -> "read-only")
  | Move { txn; target; epoch } -> Fmt.str "%s(t%d,e%d)" (move_name target) txn epoch
  | Move_ack { txn; target } -> Fmt.str "%s-ack(t%d)" (move_name target) txn
  | Outcome { txn; commit } -> Fmt.str "outcome(t%d,%s)" txn (if commit then "commit" else "abort")
  | Done { txn } -> Fmt.str "done(t%d)" txn
  | Status_req { txn } -> Fmt.str "status-req(t%d)" txn
  | Status_rep { txn; outcome } ->
      Fmt.str "status-rep(t%d,%s)" txn
        (match outcome with None -> "unknown" | Some true -> "commit" | Some false -> "abort")
  | PState_req { txn; epoch } -> Fmt.str "pstate-req(t%d,e%d)" txn epoch
  | PState_rep { txn; state } ->
      Fmt.str "pstate-rep(t%d,%s)" txn
        (match kind state with
        | Core.Types.Initial -> "working"
        | Wait -> "prepared"
        | Buffer -> "precommitted"
        | Commit -> "committed"
        | Abort -> "aborted")
  | Heartbeat -> "heartbeat"
  | Epoch_reject { txn; epoch } -> Fmt.str "epoch-reject(t%d,e%d)" txn epoch
  | PaxAccept { txn; ballot; commit; _ } ->
      Fmt.str "pax-accept(t%d,b%d,%s)" txn ballot (if commit then "commit" else "abort")
  | PaxAccepted { txn; ballot; commit } ->
      Fmt.str "pax-accepted(t%d,b%d,%s)" txn ballot (if commit then "commit" else "abort")
  | PaxP1a { txn; ballot } -> Fmt.str "pax-p1a(t%d,b%d)" txn ballot
  | PaxP1b { txn; ballot; accepted } ->
      Fmt.str "pax-p1b(t%d,b%d,%s)" txn ballot
        (match accepted with
        | None -> "free"
        | Some (b, c) -> Fmt.str "accepted@b%d=%s" b (if c then "commit" else "abort"))
  | PaxReject { txn; ballot } -> Fmt.str "pax-reject(t%d,b%d)" txn ballot
  | PaxRecover { txn; _ } -> Fmt.str "pax-recover(t%d)" txn
  | Lease_expire -> "lease-expire"
