(** The backup coordinator's rulebook, compiled from the formal analysis:
    for each local state, whether the decision rule yields commit, abort,
    or no safe decision at all (a blocking state — which the fundamental
    theorem proves exist only in blocking protocols).

    Compilation also interns the protocol ({!Core.Intern.compile}) and lays
    the verdicts and the commit, abort and buffer states out per state
    code.  These are the one compiled form of the protocol: {!Runtime}
    executes its FSAs over [codes.trans] and [codes.kinds], and
    {!Model_check} explores over the same tables; state names appear only
    where a run meets the outside (logs, termination messages, reports,
    traces). *)

type verdict =
  | Decide of Core.Types.outcome
  | Blocked  (** no safe unilateral decision exists from this state *)

val pp_verdict : Format.formatter -> verdict -> unit
val show_verdict : verdict -> string
val equal_verdict : verdict -> verdict -> bool

type t = private {
  protocol : Core.Protocol.t;
  codes : Core.Intern.t;
      (** the protocol's int codes: state and message symbol tables, the
          state kinds and transition tables per site *)
  verdicts : verdict option array array;
      (** site-1 -> state code -> verdict; [None] for a state no
          failure-free run occupies at that site (see {!verdict_of_code}) *)
  commit_code : int array;
      (** site-1 -> the state a site enters on learning [Committed]: its
          first declared commit state ([-1] when no site declares one) *)
  abort_code : int array;  (** the same for [Aborted] *)
  buffer_code : int option array;  (** site-1 -> its first declared buffer state *)
  nonblocking : bool;  (** the fundamental theorem's verdict *)
  resilience : int;
}

val compile : Core.Protocol.t -> t
(** Builds the reachable state graph and evaluates, per (site, state):
    commit iff the state is committable and its concurrency set contains
    no abort state; abort iff the set contains no commit state; blocked
    otherwise.  This generalization of the paper's rule coincides with it
    on canonical protocols and is additionally coherent per state id
    across sites (a cascade of backup coordinators can never reach
    opposite decisions from the same moved-to state).
    @raise Invalid_argument if a protocol would yield incoherent
    decisions. *)

val verdict_of_code : t -> site:Core.Types.site -> code:int -> verdict
(** The verdict for a state code; unoccupied states are conservatively
    [Blocked].  An array read. *)

val verdict : t -> site:Core.Types.site -> state:string -> verdict
(** {!verdict_of_code} by state name.  Unknown and unreachable states are
    conservatively [Blocked]. *)

val final_code : t -> site:Core.Types.site -> Core.Types.outcome -> int
(** [commit_code] or [abort_code] of the site. *)

val pp : Format.formatter -> t -> unit
