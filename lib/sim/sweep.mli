(** Domain-sharded seed sweeps with deterministic, worker-count-independent
    results.

    Isolation invariant: the sweep function must derive everything
    mutable it touches from [seed] alone — one {!World}, one {!Metrics}
    registry and one {!Rng} stream per seed, nothing ambient.  Shared
    read-only inputs (a compiled rulebook, a profile) are fine. *)

val available_workers : unit -> int
(** [Domain.recommended_domain_count ()] — the host's useful parallelism. *)

val map : ?workers:int -> ?seed_base:int -> seeds:int -> (seed:int -> 'a) -> 'a array
(** [map ~workers ~seed_base ~seeds f] evaluates
    [f ~seed:(seed_base + i)] for [i] in [0 .. seeds-1] across
    [workers] domains (default 1 — no domain spawned) and returns the
    results indexed by seed offset.  Worker assignment is load-balanced
    via a shared cursor and unobservable in the result: any worker count
    returns the identical array.
    @raise Invalid_argument if [workers < 1] or [seeds < 0]. *)

val sweep :
  ?workers:int ->
  ?seed_base:int ->
  seeds:int ->
  (metrics:Metrics.t -> seed:int -> 'a) ->
  'a array * Metrics.t
(** [map] plus the metrics plumbing every sweep wants: each seed gets a
    fresh registry, drained of in-flight timers when its run ends, and
    {!Metrics.merge}d into the returned registry in seed order as soon
    as every earlier seed has been merged — then dropped.  With one
    worker a registry is merged the moment its run ends; with more, the
    calling domain merges the finished prefix between its own seeds and
    the rest after the joins, so only the out-of-order window stays
    live.  The merged registry is byte-identical to a post-hoc fold of
    every seed's registry in seed order, whatever [workers] is.  The
    sweep keeps the ['a] each seed returns: return only what must
    outlive the run. *)
