(** A binary min-heap of timestamped events.  Ties on time are broken by
    insertion sequence, making the schedule fully deterministic.  Pushes
    allocate nothing once the heap has grown to the queue's depth, and a
    popped payload is never retained by the queue.

    Limits: at most [2^24] (16,777,216) events pending at once, and at
    most [2^38] pushes over a queue's lifetime; a key packs the
    insertion sequence number and the payload's pool slot into one int.
    {!push} raises [Invalid_argument] beyond either. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on negative or NaN time, or past a limit
    above. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the earliest event. *)

val peek_time : 'a t -> float option

val top_time : 'a t -> float
(** The earliest event's time, without the option: with {!pop_top}, the
    allocation-free way to drain the queue.
    @raise Invalid_argument if the queue is empty. *)

val pop_top : 'a t -> 'a
(** Removes the earliest event and returns its payload.
    @raise Invalid_argument if the queue is empty. *)
