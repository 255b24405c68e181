(** Run-coverage accounting for the fault-space explorer.

    A finished chaos run is summarized as a {e fingerprint}: a small set
    of features — protocol-state edges walked per site class, bucketed
    counter activity, oracle near-miss flags.  The accumulator remembers
    every feature ever seen across a search; a run is {e novel} iff it
    contributes at least one unseen feature, which is what the corpus
    ranks mutants by.

    A feature is one [int]: its kind and the ids of its {!symbol}s,
    packed.  Symbols are names interned once per process in one
    {!Symtab}, so the engine and database harnesses each speak their own
    vocabulary without this module knowing either, and a fingerprint
    builds no string.  Names are rendered only by {!name} and
    {!features}, for reports.  Everything here is deterministic: no
    hashing of physical addresses, and a symbol's id never reaches a
    report. *)

type symbol = private int
(** An interned name: a feature key or value, or an edge's class or
    state label.  Names must not contain [":"] or ["->"], so that
    distinct features render to distinct strings. *)

val symbol : string -> symbol
(** The symbol of a name, interning it on first use; safe from any
    domain, and allocation-free once the name is interned.
    @raise Failure past [2^20] symbols. *)

val concat : symbol -> symbol -> symbol
(** [concat a b] is the symbol of [a]'s name followed by [b]'s, memoized
    per pair: a label such as ["w+y"] built from ["w"] without a string
    per run. *)

val symbol_name : symbol -> string

type feature = private int

val feat : symbol -> symbol -> feature
(** [feat key v] renders as ["key:v"] — counters, flags, terminal states. *)

val edge : class_:symbol -> symbol -> symbol -> feature
(** [edge ~class_ a b] is the protocol-state transition [a -> b]
    observed on a site of [class_] (e.g. coordinator vs participant),
    rendered as ["e:coord:q1->w1"]. *)

val name : feature -> string

(** {1 The accumulator} *)

type t
(** The feature accumulator of one search: a set of ints. *)

val create : unit -> t

val add : t -> feature list -> int
(** [add t fingerprint] records every feature and returns how many of
    them were new to the accumulator (duplicates within the fingerprint
    count once).  A fingerprint the accumulator has seen allocates
    nothing. *)

val count : t -> int
(** Distinct features seen so far — the "coverage edges" benches plot. *)

val features : t -> string list
(** Every feature's {!name}, sorted, for stable reports. *)

(** {1 Shared vocabulary}

    Fixed symbols both harnesses use, so their features stay
    comparable. *)

val bucket : int -> symbol
(** ["0"], ["1"], ..., ["4"], then ["le8"], ["le16"], ... — exact up to
    4, then log2 buckets, so a counter's feature space stays finite
    whatever the run did.  Total (negative counts read ["0"]) and
    monotone. *)

val bool : bool -> symbol
(** ["true"] or ["false"]. *)
