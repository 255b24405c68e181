(** The commit-protocol catalog: every protocol figure in the paper,
    parameterized by the number of participating sites.

    Vote collectors read the complete string of votes in one transition
    (as in the paper's figures), so transition counts are exponential in
    the number of voters; generators insist on [n <= max_sites].

    The 3PCs are not written out: each is the paper's design method
    ({!Synthesis.buffer_protocol}) applied to the 2PC of its paradigm,
    renamed. *)

val max_sites : int

val central_2pc : int -> Protocol.t
(** Central-site two-phase commit: site 1 coordinates, sites 2..n are
    slaves. *)

val central_3pc : int -> Protocol.t
(** Central-site three-phase commit ["central-3pc-n"]: {!central_2pc} with
    the buffer state [p] between [w] and [c] at every site.  The
    coordinator's all-yes transition sends [prepare] and enters [p]; it
    commits once every slave's [ack] arrives.  A slave answers [prepare]
    with [ack]. *)

val decentralized_2pc : int -> Protocol.t
(** Every site runs the same FSA, broadcasting its vote (including to
    itself, per the paper) and reading the full vote vector. *)

val decentralized_3pc : int -> Protocol.t
(** Decentralized three-phase commit ["decentralized-3pc-n"]:
    {!decentralized_2pc} with the buffer state [p] between [w] and [c], and
    a third interchange of [prepare] messages before committing. *)

val one_pc : int -> Protocol.t
(** One-phase commit: the coordinator relays the client's decision;
    slaves cannot vote — the paper's example of an inadequate protocol. *)

val paxos_commit : int -> Protocol.t
(** Paxos Commit's single-site projection: a 2PC-shaped FSA per
    participant.  The nonblocking-ness of Paxos Commit lives in the
    replicated coordinator, outside the single-site formalism, so the
    catalog marks the projection blocking; the replication win shows up
    on the runtime harnesses. *)

val central_2pc_hasty : int -> Protocol.t
(** A deliberately broken 2PC in which the coordinator may abort
    spontaneously without reading the votes: {e not} synchronous within
    one state transition.  Used in tests. *)

type entry = { label : string; build : int -> Protocol.t; nonblocking_expected : bool }

val all : entry list
(** Every protocol with the paper's verdict on it (the hasty variant is
    excluded). *)

val find : string -> entry
(** @raise Invalid_argument on unknown labels, listing the known ones. *)
