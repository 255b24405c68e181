(** Strict two-phase locking with waits-for deadlock detection — the
    concurrency-control substrate behind the paper's unilateral no votes
    ("the resolution of a deadlock, when a locking scheme is adopted").

    {b Cost.} The table indexes each transaction's entries (the keys it
    holds or queues on).  [release_all], [held_keys] and [waits_for] do
    work proportional to those entries, not to the number of keys ever
    locked; a deadlock search costs the waits-for graph it walks.  Only
    [n_waiting] walks the whole table.

    {b Promotion order and re-entrancy.} The [on_grant] callback runs
    inside [release_all] and may call back into the table: acquire more
    locks, or release another transaction (which nests a release).  The
    order of callbacks is therefore observable, and it is fixed: a
    release visits its entries one at a time, in the table's iteration
    order as it stood when the release began, and on each one drops the
    released transaction and then promotes that key's waiters in FIFO
    order before it moves on.  A release nested in a callback also
    finishes promoting the keys whose promotion the callback
    interrupted.  A callback must not acquire for a transaction whose
    release is in progress. *)

type mode = Shared | Exclusive

val pp_mode : Format.formatter -> mode -> unit
val show_mode : mode -> string
val equal_mode : mode -> mode -> bool

type outcome =
  | Granted
  | Waiting  (** queued FIFO; the [on_grant] callback fires when granted *)
  | Deadlock of int list
      (** granting would close this waits-for cycle; the request was not
          queued and the caller must abort the transaction *)

val pp_outcome : Format.formatter -> outcome -> unit
val equal_outcome : outcome -> outcome -> bool

type t

val create : unit -> t

val on_grant : t -> (int -> unit) -> unit
(** Callback invoked with each transaction whose pending request becomes
    granted after a release. *)

val acquire : t -> txn:int -> key:string -> mode:mode -> outcome

val release_all : t -> txn:int -> unit
(** Drop every lock and queued request of [txn] (commit or abort time),
    promoting newly grantable waiters in FIFO order, keys in the order
    given above. *)

val held_keys : t -> txn:int -> string list
val n_waiting : t -> int

val waits_for : t -> int -> int list
(** Transactions [txn] currently waits for. *)

val force_grant : t -> txn:int -> key:string -> mode:mode -> unit
(** Install a lock unconditionally — crash recovery re-establishing the
    locks of prepared transactions from the log. *)
