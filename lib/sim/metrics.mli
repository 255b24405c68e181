(** Simulation metrics: labelled counters, high-water-mark gauges,
    fixed-bucket histograms with percentile summaries, and labelled
    timers.  O(1) insert and O(1) memory per label; exportable as JSON
    for cross-run perf diffing. *)

type t

type summary = {
  count : int;
  total : float;
  min : float;
  max : float;
  mean : float;  (** exact (tracked alongside the buckets) *)
  p50 : float;
  p90 : float;
  p99 : float;  (** bucket-interpolated, within one bucket width *)
}

val create : unit -> t

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 for unknown counters. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

type counter
(** A pre-resolved handle to one counter, for hot paths such as the
    simulator's per-event dispatch counters: no string-keyed lookup per
    bump. *)

val counter_handle : t -> string -> counter
(** A handle on the named counter.  The label is registered lazily, on
    the first {!bump}: a handle that is never bumped leaves {!counters}
    and {!to_json} unchanged. *)

val bump : counter -> unit
(** Add one, exactly as [incr t name] would: bumps through a handle and
    [incr] by name on the same label sum. *)

(** {1 Gauges (high-water marks)} *)

val gauge_max : t -> string -> int -> unit
(** Record [v]; the gauge keeps the maximum ever recorded. *)

type gauge
(** A pre-resolved handle to one gauge: callers on hot paths (e.g. the
    simulator's event loop recording queue depth per event) resolve the
    name once and then record through the handle with no per-call
    string-keyed lookup. *)

val gauge_handle : t -> string -> gauge
(** Resolve (creating at 0 if absent) the named gauge. *)

val gauge_record : gauge -> int -> unit
(** Same high-water-mark semantics as {!gauge_max}, O(1). *)

val gauge : t -> string -> int
(** 0 for unknown gauges. *)

val gauges : t -> (string * int) list

(** {1 Histograms} *)

val observe : t -> string -> float -> unit
(** O(1): bump the value's bucket and the exact running count/total/min/max. *)

val summarize : t -> string -> summary option
val percentile : t -> string -> float -> float option
(** [percentile t name p] for [p] in [0..100]; [None] if nothing was
    observed under [name]. *)

val histograms : t -> (string * summary) list
(** All histograms, sorted by name. *)

val buckets : t -> string -> (float * float * int) list
(** Non-empty buckets as [(lower, upper, count)]; the last bucket's upper
    bound is [infinity]. *)

(** {1 Bucket layout (exposed for tests)} *)

val n_buckets : int
val bucket_index : float -> int
val bucket_lower : int -> float
val bucket_upper : int -> float

(** {1 Labelled timers}

    A timer is identified by a label and an integer key (e.g. a
    transaction id), so many instances of the same measurement can be in
    flight at once.  [timer_stop] records the elapsed time into the
    label's histogram. *)

val timer_start : t -> string -> key:int -> at:float -> unit
val timer_stop : t -> string -> key:int -> at:float -> unit
(** No-op if no matching [timer_start] is pending. *)

val timer_discard : t -> string -> key:int -> unit

val timers_in_flight : t -> (string * int) list
(** Labels with pending [timer_start]s and how many, sorted by name. *)

val drain_timers : t -> unit
(** End-of-run accounting for interrupted measurements: every pending
    [timer_start] (e.g. a site that crashed mid-measure and never
    stopped its timer) becomes an increment of the
    [timers_in_flight_<label>] counter and is cleared, so nothing
    dangles into {!merge} and nothing silently vanishes from the
    histograms.  Idempotent. *)

(** {1 Merge (sharded sweeps)} *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters sum, gauges keep
    the overall high-water mark, histogram bucket arrays add
    element-wise (count and total exact, min/max combined).  Both sides
    are timer-drained first ([src] without being mutated).
    Deterministic: merging the same sources in the same order always
    yields the same [dst], which is what makes a Domain-sharded sweep's
    merged output independent of the worker count. *)

val merge_all : t list -> t
(** A fresh registry with every source merged in list order. *)

(** {1 Export} *)

val is_wall : string -> bool
(** Does the name carry the reserved [wall_] prefix?  Such entries hold
    host wall-clock measurements ({!Clock}) — real time, nondeterministic
    across runs — and are excluded from determinism comparisons. *)

val to_json : ?drop_wall:bool -> t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {count,total,min,max,mean,p50,p90,p99,buckets:[{le,count},...]}}}].
    [~drop_wall:true] omits every [wall_]-prefixed entry — the
    deterministic projection compared by sweep merge-equivalence
    checks. *)

val pp : Format.formatter -> t -> unit
