(** Wire messages exchanged by the protocol runtime.  Termination
    directives carry the issuing backup's election epoch
    ({!Termination.epoch}) so participants can fence directives
    from deposed-but-alive backups; heartbeat and election messages exist
    only in timeout-detector mode. *)

type t =
  | Proto of int
      (** a commit-protocol FSA message, as its {!Core.Intern} message code *)
  | Move_to of { target : string; epoch : int }
      (** termination phase 1: adopt this local state *)
  | Move_ack of string
  | Decide of { outcome : Core.Types.outcome; epoch : int }
      (** termination phase 2 / final notice *)
  | Query_outcome  (** recovery / blocked-site query *)
  | Outcome_reply of Core.Types.outcome option
  | State_req of { epoch : int }
      (** quorum termination: a backup polls participant states *)
  | State_rep of string
  | Heartbeat  (** detector mode: periodic evidence of life *)
  | Elect of { epoch : int }
      (** detector mode: candidate asks better-ranked sites to object *)
  | Elect_ack  (** a better-ranked live site will lead instead *)
  | Epoch_reject of { epoch : int }
      (** a directive was fenced; carries the participant's current epoch *)

val to_string : Core.Intern.t -> t -> string
(** The trace rendering; protocol messages decode through the given
    codes. *)
