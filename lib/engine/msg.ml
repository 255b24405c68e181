(** Wire messages exchanged by the protocol runtime: ordinary protocol FSA
    messages, the termination protocol's two phases, the recovery
    protocol's outcome queries, and — in timeout-detector mode — the
    failure detector's heartbeats and the bully-election traffic.

    Termination directives ([Move_to], [State_req], [Decide]) carry the
    issuing backup's election epoch so a participant can fence stale
    directives from a deposed-but-alive backup.  Epochs are allotted as
    [round * n_sites + (site - 1)], which makes them globally unique per
    site and, at round 0, ordered exactly like site rank — the reliable
    detector's deterministic election falls out as the special case. *)

type t =
  | Proto of int
      (** a commit-protocol FSA message, as its {!Core.Intern} message code *)
  | Move_to of { target : string; epoch : int }
      (** termination phase 1: adopt this local state *)
  | Move_ack of string  (** acknowledgement, carrying the adopted state *)
  | Decide of { outcome : Core.Types.outcome; epoch : int }
      (** termination phase 2 / final notice *)
  | Query_outcome  (** recovery / blocked-site query: what happened? *)
  | Outcome_reply of Core.Types.outcome option
  | State_req of { epoch : int }
      (** quorum termination: a backup polls participant states *)
  | State_rep of string  (** the participant's current local state *)
  | Heartbeat  (** detector mode: periodic evidence of life *)
  | Elect of { epoch : int }
      (** detector mode: a candidate backup asks every better-ranked site
          to object before it assumes leadership at [epoch] *)
  | Elect_ack  (** the objection: a better-ranked live site will lead instead *)
  | Epoch_reject of { epoch : int }
      (** a participant refused a directive fenced below its current
          epoch; carries that epoch so the deposed backup stands down *)

let to_string codes = function
  | Proto m -> Core.Message.show (Core.Intern.decode_msg codes m)
  | Move_to { target; epoch } -> Printf.sprintf "move-to(%s,e%d)" target epoch
  | Move_ack s -> "move-ack(" ^ s ^ ")"
  | Decide { outcome = Core.Types.Committed; epoch } -> Printf.sprintf "decide(commit,e%d)" epoch
  | Decide { outcome = Core.Types.Aborted; epoch } -> Printf.sprintf "decide(abort,e%d)" epoch
  | Query_outcome -> "query-outcome"
  | Outcome_reply None -> "outcome-reply(unknown)"
  | Outcome_reply (Some Core.Types.Committed) -> "outcome-reply(commit)"
  | Outcome_reply (Some Core.Types.Aborted) -> "outcome-reply(abort)"
  | State_req { epoch } -> Printf.sprintf "state-req(e%d)" epoch
  | State_rep s -> "state-rep(" ^ s ^ ")"
  | Heartbeat -> "heartbeat"
  | Elect { epoch } -> Printf.sprintf "elect(e%d)" epoch
  | Elect_ack -> "elect-ack"
  | Epoch_reject { epoch } -> Printf.sprintf "epoch-reject(e%d)" epoch
