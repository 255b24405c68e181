(** Process-wide string interning, safe from any domain.

    A table maps names to dense ids, assigned from 0 in first-intern
    order.  Readers take the published snapshot with one atomic load and
    never lock; a new name copies the snapshot under the table's mutex
    and publishes the copy, so a published snapshot is never mutated and
    sweep domains can read it while another domain interns.  Ids are
    never freed, so names must come from a bounded set.  {!Metrics}
    labels and {!Coverage} symbols are ids of two such tables. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of [name], interning it on first use.  A name already
    interned costs one hash lookup and allocates nothing. *)

val find : t -> string -> int option
val name : t -> int -> string

val concat : t -> int -> int -> int
(** [concat t a b] is [intern t (name t a ^ name t b)], memoized per
    pair: after the first call for [(a, b)] it builds no string and
    allocates nothing.  Ids must be below [2^31]. *)
