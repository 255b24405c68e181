(** Coverage-guided exploration of the fault-schedule space: a fuzzer
    over {!Failure_plan}s.

    Runs are summarized by {!Sim.Coverage} fingerprints; plans that
    contribute unseen features join a corpus; candidates are mutants of
    corpus entries (add / remove / retime / retarget a fault clause,
    widen a window, splice two plans).  Violations shrink through the
    harness's greedy shrinker; the corpus persists as replayable plan
    text files.  The whole search is a pure function of
    [(harness, mode, budget, seed)], whatever [workers] is. *)

type family =
  | Step_crashes
  | Timed_crashes
  | Recoveries
  | Move_crashes
  | Decide_crashes
  | Msg_faults
  | Delay_spikes
  | Stalls
  | Hb_losses
  | Acceptor_crashes
  | Lease_faults
  | Storms
      (** Clause families a mutation may {e add}.  Partitions, drops and
          disk faults are deliberately not here: they violate the
          paper's model, so they stay ablation-only. *)

val pp_family : Format.formatter -> family -> unit
val equal_family : family -> family -> bool

val protocol_families : protocol:string -> family list
(** The families a protocol can execute — the complement of
    {!Failure_plan.unsupported_clauses}: 3PC adds move/decide crashes,
    Paxos Commit adds decide crashes, acceptor crashes and lease
    faults. *)

val unsupported : families:family list -> Failure_plan.t -> string list
(** The plan's clauses outside [families], one {!Failure_plan.to_string}
    line per offending family — the gate a pasted plan passes before it
    runs on a target.  Partitions and disk faults belong to no family and
    always pass. *)

type report = {
  fingerprint : Sim.Coverage.feature list;
      (** {!Sim.Coverage} features of the run: interned ints, rendered
          to names only for a result's [features] *)
  violations : (string * string) list;  (** (oracle name, detail) *)
}

type harness = {
  name : string;
  n_sites : int;
  horizon : float;  (** time scale mutations draw crash/window times from *)
  families : family list;  (** clause families mutations may add *)
  run : seed:int -> Failure_plan.t -> report;
  shrink : seed:int -> oracle:string -> Failure_plan.t -> Failure_plan.t * int;
  random_plan : seed:int -> Failure_plan.t;
      (** the equal-budget baseline: what one classic chaos-sweep seed
          would have executed *)
}
(** What the search needs from a target system.  Both harnesses are
    {!of_target} over a {!Chaos.target}: {!engine_harness} here, and the
    database's [Kv.Chaos_db.harness] in the kv library. *)

val mutate :
  Sim.Rng.t -> n_sites:int -> horizon:float -> families:family list -> Failure_plan.t -> Failure_plan.t
(** One mutation step: add a random clause from [families], or remove /
    retime / retarget / widen an existing one.  Never introduces a clause family
    outside [families]. *)

val splice : Sim.Rng.t -> Failure_plan.t -> Failure_plan.t -> Failure_plan.t
(** Crossover: an independent coin per parent fault. *)

type bug = {
  bug_oracle : string;
  bug_detail : string;
  bug_found_at : int;  (** global run index that first tripped it *)
  bug_plan : Failure_plan.t;  (** as found *)
  bug_shrunk : Failure_plan.t;
  bug_shrink_runs : int;
}

type result = {
  harness_name : string;
  mode : [ `Guided | `Random ];
  budget : int;
  runs : int;
  coverage : int;  (** distinct features at the end *)
  features : string list;  (** every feature seen, rendered and sorted *)
  curve : (int * int) list;  (** (runs completed, cumulative coverage) per batch *)
  corpus : (Failure_plan.t * int) list;
      (** admitted plans in admission order, with the novelty each brought *)
  violating_runs : int;
  bugs : bug list;  (** deduplicated, shrunk; at most [max_shrunk] *)
}

val mode_name : [ `Guided | `Random ] -> string

val search :
  ?workers:int ->
  ?batch:int ->
  ?max_shrunk:int ->
  ?seed:int ->
  ?initial:Failure_plan.t list ->
  ?progress:(runs:int -> coverage:int -> bugs:int -> unit) ->
  harness ->
  mode:[ `Guided | `Random ] ->
  budget:int ->
  unit ->
  result
(** Run [budget] plans.  [`Guided] mutates the novelty-ranked corpus
    (bootstrapping from [initial] plans, or random plans while the
    corpus is empty); [`Random] runs [harness.random_plan] on seeds
    [0 .. budget-1] — the classic sweep as an equal-budget baseline.
    Candidates are derived sequentially from the search rng, evaluated
    across domains via {!Sim.Sweep.map} in batches of [batch] (default
    16), and folded in order: the result is byte-identical whatever
    [workers] (default 1) is.  At most [max_shrunk] (default 4) distinct
    violations are shrunk; [progress] fires after each batch. *)

val replay :
  ?workers:int -> harness -> Failure_plan.t list -> (Failure_plan.t * report) list
(** Run each plan once (seed = list index) and report — corpus
    regression replay. *)

val save_corpus : dir:string -> result -> unit
(** Write the corpus as [NNN.plan] files (admission order) plus
    [bug-<i>-<oracle>.plan] shrunk violations — each one line of
    {!Failure_plan.to_string}, ready for [--replay] or a pinned test. *)

val load_corpus : dir:string -> (string * Failure_plan.t) list
(** [(filename, plan)] for every [*.plan] file, sorted by name; [[]] if
    [dir] does not exist.
    @raise Failure_plan.Parse_error on a malformed entry. *)

val of_target :
  ('o, 'r) Chaos.target ->
  fingerprint:('r -> Sim.Coverage.feature list) ->
  families:family list ->
  k:int ->
  harness
(** A harness over a chaos target: [run] judges a plan with the target
    and fingerprints its result, [shrink] is {!Chaos.shrink_target},
    [horizon] is the target profile's, and [random_plan] is the plan the
    target's chaos-sweep seed would run at concurrency bound [k] — so the
    [`Random] baseline is exactly the classic chaos sweep. *)

val engine_harness : ?profile:Sim.Nemesis.profile -> ?k:int -> Rulebook.t -> harness
(** The protocol engine ({!Chaos.target}, default config) fingerprinted
    by {!Chaos.fingerprint_of}, over the protocol's
    {!protocol_families}.  [k] defaults to 1. *)
