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
    cascading backup failures.  Recoveries are not modelled.

    Provenance note: an earlier version of this model (and of the runtime)
    let a site's commit-protocol FSA keep running after termination began;
    the checker produced a genuine split-brain counterexample — a
    participant drifting out of its moved-to state by consuming a stale
    in-flight [prepare].  Both now freeze the FSA once a failure is
    detected, and the checker passes.

    The exploration engine runs over {!Core.Intern}'s packed int-array
    encoding (interned ids, one-int messages) and keeps every explored
    state once, in {!Core.Intern.Store}'s byte arena; the BFS frontier is
    the range of store indices not yet popped.  The original
    string-keyed engine is kept as {!Model_check_ref} and the
    differential tests assert both agree. *)

type st = {
  locals : string array;
  voted : bool array;
  alive : bool array;
  aware : bool array;
  crashes_left : int;
  network : Core.Message.Multiset.t;
  moving : (string * int list) option array;
  polling : (int list * (int * string) list) option array;
  polled : bool array;
  epoch : int array;
      (** highest-ranked backup each site has obeyed (election epoch) *)
}

type config = {
  rulebook : Rulebook.t;
  max_crashes : int;
  limit : int;  (** abort exploration past this many states *)
  rule : [ `Skeen | `Quorum of int ];
      (** how backups decide: the paper's rule, or quorum termination
          (single poll per backup; a below-quorum backup stays blocked,
          so quorum runs may legitimately report blocked terminals) *)
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
