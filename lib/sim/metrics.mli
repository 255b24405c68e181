(** Simulation metrics: labelled counters, high-water-mark gauges,
    fixed-bucket histograms with percentile summaries, and labelled
    timers; exportable as JSON for cross-run perf diffing.

    Names are interned once per process as {!label}s.  A registry is a
    set of slot arrays indexed by label, plus the labels it touched:
    an update through a label is an array access, and {!merge} walks
    only the labels its source touched.  Each kind's slot array starts
    at 64 slots and grows (at least doubling) to cover the highest label
    the registry touched, so its size follows what the registry uses,
    not how many labels exist.  A histogram keeps the bucket indices of
    its first {!sparse_cap} observations and holds the full
    {!n_buckets} array only past that.  Hot paths bind their labels once
    at top level; the string-keyed functions resolve the name on every
    call. *)

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
(** An empty registry; it allocates its slot arrays on first use. *)

(** {1 Labels} *)

type label
(** An interned metric name.  Interning is process-wide and safe from
    any domain: the lookup reads a published snapshot without locking,
    and a new name is added copy-on-write under a mutex.  Labels are
    never freed, so names must come from a bounded set. *)

val label : string -> label
(** The label of [name], interning it on first use: the same name
    always yields the same label. *)

val label_name : label -> string

(** {1 Counters} *)

val bump : ?by:int -> t -> label -> unit
(** Add [by] (default 1) to the counter, registering it on first use. *)

val count : t -> label -> int
(** 0 for a counter never bumped. *)

val incr : ?by:int -> t -> string -> unit
(** [bump] by name. *)

val counter : t -> string -> int
(** 0 for unknown counters. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Gauges (high-water marks)}

    [min_int] marks an untouched slot, so gauge values (and counter
    sums) must stay above it. *)

val peak : t -> label -> int -> unit
(** Record [v]; the gauge keeps the maximum ever recorded. *)

val gauge_max : t -> string -> int -> unit
(** [peak] by name. *)

type gauge
(** One gauge of one registry, resolved once. *)

val gauge_handle : t -> string -> gauge
(** Resolve (creating at 0 if absent) the named gauge. *)

val gauge_record : gauge -> int -> unit
(** {!peak} on the handle's registry and label. *)

val gauge : t -> string -> int
(** 0 for unknown gauges. *)

val gauges : t -> (string * int) list

(** {1 Histograms} *)

val sample : t -> label -> float -> unit
(** O(1): record the value's bucket and the exact running
    count/total/min/max. *)

val observe : t -> string -> float -> unit
(** [sample] by name. *)

val summarize : t -> string -> summary option
val percentile : t -> string -> float -> float option
(** [percentile t name p] for [p] in [0..100]; [None] if nothing was
    observed under [name]. *)

val histograms : t -> (string * summary) list
(** All histograms, sorted by name. *)

val buckets_of : t -> label -> (float * float * int) list
(** Non-empty buckets as [(lower, upper, count)]; the last bucket's upper
    bound is [infinity]. *)

val buckets : t -> string -> (float * float * int) list
(** [buckets_of] by name. *)

(** {1 Bucket layout (exposed for tests)} *)

val n_buckets : int

val sparse_cap : int
(** How many observations a histogram holds as bucket indices before
    it grows the full bucket array. *)

val bucket_index : float -> int
val bucket_lower : int -> float
val bucket_upper : int -> float

(** {1 Labelled timers}

    A timer is identified by a label and an integer key (e.g. a
    transaction id), so many instances of the same measurement can be in
    flight at once.  [timer_stop] records the elapsed time into the
    label's histogram. *)

val timer_start : t -> label -> key:int -> at:float -> unit
val timer_stop : t -> label -> key:int -> at:float -> unit
(** No-op if no matching [timer_start] is pending. *)

val timer_discard : t -> label -> key:int -> unit

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
    the overall high-water mark, histogram bucket counts add (count and
    total exact, min/max combined).  Walks only the labels [src]
    touched.  Both sides
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
