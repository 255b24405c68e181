(** The design method for nonblocking protocols (paper §6): insert a
    {e buffer state} ("prepare to commit") on every path from a
    noncommittable state into a commit state.  The catalog's 3PCs are
    this method applied to its 2PCs. *)

val buffer_skeleton : Skeleton.t -> Skeleton.t
(** Pure graph rewrite on a canonical skeleton; on
    {!Skeleton.canonical_2pc} it yields exactly
    {!Skeleton.canonical_3pc}.  Identity on skeletons with no offending
    edges. *)

val committable : Automaton.t -> string -> bool
(** The syntactic committability of one FSA's states: a state is
    committable iff it is a commit state, or it is not final and all its
    successors are committable — once there, the site can only commit.
    It needs no n-site state graph.  The paper's committability
    (occupancy implies every site voted yes) is a property of the
    reachable global states, computed exactly by {!Committable.compute};
    the two agree on every catalog protocol and on
    [Catalog.central_2pc_hasty] (pinned by a test at n = 2..5).  For an
    atomic protocol in which every site can veto, a syntactically
    committable state is committable in the paper's sense; the converse
    fails where a state entered after all yes votes may still abort. *)

type protocol_result = {
  protocol : Protocol.t;
  buffers_added : (Types.site * string) list;  (** buffer-state names per site *)
}

val buffer_protocol : Protocol.t -> protocol_result
(** Message-level transformation of a protocol of either paradigm: every
    transition from a non-{!committable} state into a commit state is
    split around a buffer state, named ["p"] (or ["p1"], … when taken)
    and listed right after its source state; the split-off second hops
    follow the original transitions.  Central site: the coordinator's
    commit announcement becomes a prepare round followed by an
    ack-collected commit round; slaves answer [prepare] with [ack] and
    commit on the old commit notice.  Decentralized: one extra
    interchange of [prepare] messages precedes committing.  The result is
    named [p.name ^ "+buffer"]. *)
