(** Ticket-based group-commit batcher over an abstract sync barrier.

    Coalesces concurrent WAL [force] calls on one device into shared
    syncs: callers enqueue a completion callback per record, one sync
    covers everything queued, and the callbacks fire — strictly in
    submission order — once the barrier completes.  Generic over the
    barrier (a [sync] thunk); {!Log} instantiates it over each site's
    {!Disk.sync}.

    Two orthogonal knobs: [group] ([max_batch] records per sync, at most
    [max_wait] simulated seconds of idle-device dawdling) and
    [sync_latency] (simulated seconds per sync — the cost being
    amortized; the underlying {!Sim.Disk.sync} itself is instantaneous
    in simulated time).  With neither, the batcher degrades to the
    synchronous sync-per-force discipline. *)

type group = { max_batch : int; max_wait : float }

type t

(** [create ?group ?sync_latency ~sync ()] builds a batcher over the
    barrier [sync].  Raises [Invalid_argument] on [max_batch < 1] or
    negative [max_wait]/[sync_latency]. *)
val create : ?group:group -> ?sync_latency:float -> sync:(unit -> unit) -> unit -> t

(** [attach t ~schedule ?on_flush ?on_drain ()] wires the batcher to a
    run: [schedule delay k] must run [k] after [delay] simulated seconds
    {e unless the owning site crashes first} (a site-bound
    {!Sim.World.set_timer}).  [on_flush ~batch] fires once per completed
    sync with the number of records it covered; [on_drain] fires after a
    batch's callbacks have run (admission-gate refill point).  Before
    attachment, submissions degrade to synchronous sync-per-force. *)
val attach :
  t ->
  schedule:(float -> (unit -> unit) -> unit) ->
  ?on_flush:(batch:int -> unit) ->
  ?on_drain:(unit -> unit) ->
  unit ->
  unit

(** [submit t k] enqueues a record's completion ticket: [k] runs after
    some future sync covers the record (immediately, when the batcher
    has neither grouping nor latency). *)
val submit : t -> (unit -> unit) -> unit

(** [barrier t k] runs [k] once everything currently queued is durable —
    immediately if nothing is pending.  Barriers carry no record and
    never force a sync of their own. *)
val barrier : t -> (unit -> unit) -> unit

(** Records submitted whose completion callback has not yet run. *)
val pending : t -> int

(** Synchronously make everything queued durable and run its callbacks,
    in order.  Interop for callers that need the old blocking force. *)
val flush_now : t -> unit

(** Drop every queued record and callback and fence off in-flight
    completions: after a crash, covered transactions never learn their
    force completed — exactly as a real crash loses an un-fsynced
    tail. *)
val crash : t -> unit
