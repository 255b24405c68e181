(** Exhaustive model checking of a commit protocol {e with failures} and
    the termination protocol on top: builds the failure-extended reachable
    state graph the paper deliberately avoids, for small site counts and a
    bounded number of crashes, and verifies over every interleaving

    - {b safety}: no reachable global state mixes a committed site with an
      aborted one (crashed sites count by their last forced-log state);
    - {b termination}: in every terminal state every operational site has
      decided (holds for nonblocking protocols; 2PC exhibits blocked
      terminals instead).

    The model includes partially completed transitions (log forced, any
    prefix of the emitted messages sent), asynchronous per-site failure
    detection, backup election by rank, the two-phase backup protocol
    driven by the {!Rulebook}, partial broadcasts by crashing backups, and
    cascading backup failures.  Recoveries are not modelled.  Every
    termination step is a {!Termination} rule, the same the {!Runtime}
    drives; the checker adds only the enumeration of inputs, the
    crash-prefix variants and the guards that keep its graph finite.

    Provenance note: an earlier version of this model (and of the runtime)
    let a site's commit-protocol FSA keep running after termination began;
    the checker produced a genuine split-brain counterexample — a
    participant drifting out of its moved-to state by consuming a stale
    in-flight [prepare].  Both now freeze the FSA once a failure is
    detected, and the checker passes.

    The exploration engine runs over {!Core.Intern}'s packed int-array
    encoding (interned ids, one-int messages) and keeps every explored
    state once, in {!Core.Intern.Store}'s byte arena; the BFS frontier is
    the range of store indices not yet popped.  Each popped state is
    decoded into arrays reused from pop to pop, and each successor is
    packed in place from it plus one site's edit, so a visited state
    costs a few minor words (the termination rules' answers), not a
    record per successor.  The original string-keyed engine is kept as
    {!Model_check_ref} and the differential tests assert both agree. *)

type st = {
  locals : string array;  (** last forced-log state per site *)
  voted : bool array;
  alive : bool array;
  aware : bool array;
      (** per site: has its failure detector reported some crash yet?
          Detection is asynchronous, so awareness spreads
          nondeterministically; an aware site freezes its commit-protocol
          FSA (the protocol is impaired) and may act as backup *)
  crashes_left : int;
  network : Core.Message.Multiset.t;
  moving : (string * int list) option array;
      (** per site: as backup coordinator, phase 1 in flight —
          (move target, sites whose acks are still awaited) *)
  polling : (int list * (int * string) list) option array;
      (** quorum rule only: a state poll in flight — (sites whose replies
          are awaited, replies so far) *)
  polled : bool array;
      (** quorum rule only: this site already ran its one poll (no retry:
          a below-quorum backup stays blocked, making blocking visible as
          a terminal state) *)
  epoch : int array;
      (** highest-ranked backup each site has obeyed.  Successive backups
          have strictly increasing ranks under fail-stop, so moves from
          lower ranks are stale directives from deposed backups and are
          fenced — without this, a stale move re-promotes a participant
          out of the current backup's state (found at n=4, k=3). *)
}

type config = {
  rulebook : Rulebook.t;
  max_crashes : int;
  limit : int;  (** abort exploration past this many states *)
  rule : [ `Skeen | `Quorum ];
      (** how backups decide: the paper's rule, or quorum termination
          over a majority of the sites (single poll per backup; a
          below-quorum backup stays blocked, so quorum runs may
          legitimately report blocked terminals) *)
}

type report = {
  explored : int;
  inconsistent : st list;
  blocked_terminals : st list;
  safe : bool;
  nonblocking : bool;
  counterexample : st list option;
      (** path from the initial state to the first inconsistency *)
}

val run : config -> report
(** @raise Failure when the state limit is exceeded. *)

val pp_st : Format.formatter -> st -> unit
val pp_report : Format.formatter -> report -> unit

(** The packed canonical state encoding used internally for
    deduplication, exposed for round-trip testing: [decode ctx
    (encode ctx st)] must reproduce [st] exactly (including the order of
    in-flight move/poll bookkeeping lists, which is part of state
    identity). *)
module Packed : sig
  type ctx

  val ctx : Rulebook.t -> ctx
  val encode : ctx -> st -> int array
  val decode : ctx -> int array -> st
end
