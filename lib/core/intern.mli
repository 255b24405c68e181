(** Per-run interning and compact state encoding for the state-space
    engines: symbol tables mapping automaton state ids and message names
    to small ints, a one-int message codec, compiled int-coded FSA
    transition tables, sorted-int-array multiset operations, and one flat
    store of packed [int array] state encodings: varints in a byte arena
    under an open-addressing index.  Explorers built on this never format
    or hash a string on the hot path. *)

(** {1 Symbol tables} *)

type symtab

val create_symtab : unit -> symtab

val intern : symtab -> string -> int
(** Existing code of the symbol, or the next free code (assigned in
    first-intern order). *)

val find : symtab -> string -> int option
val name_of : symtab -> int -> string
(** @raise Invalid_argument on an unassigned code. *)

val size : symtab -> int

(** {1 The state store}

    One append-only set of packed states for both explorers.  States are
    numbered densely in first-intern order, so a breadth-first search
    that interns in discovery order has its frontier as the index range
    [next .. length - 1]. *)

module Store : sig
  type t

  val create : unit -> t

  val length : t -> int
  (** Number of distinct states stored. *)

  val intern : t -> int array -> len:int -> int
  (** [intern t buf ~len] is the index of the state [buf.(0 .. len-1)],
      adding it as index [length t] when it is new; so a state is new iff
      the result equals [length t] before the call.  A state already
      stored costs a hash and an in-place comparison against the arena
      and allocates nothing; only a new state is copied, as one unsigned
      LEB128 varint per value.
      @raise Invalid_argument on a negative value or a [len] outside
      [0 .. Array.length buf] (the store is then unchanged).
      @raise Failure past [2^31 - 2] states. *)

  val get : t -> int -> int array
  (** The state stored at an index, decoded into a fresh array.
      @raise Invalid_argument on an index outside [0 .. length t - 1]. *)

  val get_into : t -> int -> int array -> int
  (** [get_into t ix buf] is the length of the state stored at [ix]; when
      [buf] holds that many values, the state is decoded into its prefix,
      else [buf] is left unchanged.  Allocates nothing.
      @raise Invalid_argument as {!get}. *)
end

(** {1 Sorted int-multiset operations}

    Network contents encode as sorted [int array]s of message codes. *)

module Net : sig
  val empty : int array

  val remove_all : int array -> int array -> int array option
  (** [remove_all consumes net]: remove one occurrence of each code
      (both sorted); [None] if any is missing. *)

  val add_all : int array -> int array -> int array
  (** Merge two sorted arrays. *)
end

(** {1 Compiled protocols} *)

type ctrans = {
  c_to : int;  (** target state code *)
  c_consumes : int array;  (** sorted message codes *)
  c_emits : int array;  (** emission order, for partial-crash prefixes *)
  c_emits_sorted : int array;
  c_vote_yes : bool;
  c_tr : Automaton.transition;  (** the original transition, for graph edges *)
}

type t = private {
  protocol : Protocol.t;
  n : int;
  states : symtab;
  msg_names : symtab;
  kinds : Types.state_kind option array array;
      (** site-1 -> state code -> kind ([None] = not declared there) *)
  trans : ctrans array array array;  (** site-1 -> from-state code -> transitions *)
  initial_locals : int array;
  initial_net : int array;
}

val compile : Protocol.t -> t

(** {2 Message codec}

    A whole message packs into one int:
    [(name_code * (n+1) + src) * (n+1) + dst].  Name codes beyond the
    interned protocol names are free for callers (the model checker
    assigns termination-message tags there). *)

val msg_code : t -> name:int -> src:int -> dst:int -> int
val msg_name_code : t -> int -> int
val msg_src : t -> int -> int
val msg_dst : t -> int -> int

val encode_msg : t -> Message.t -> int
(** @raise Invalid_argument on a message name not in the protocol. *)

val decode_msg : t -> int -> Message.t
(** Inverse of {!encode_msg} for protocol-name codes. *)

(** {2 State codes} *)

val n_state_codes : t -> int
val state_code : t -> string -> int option
val state_name : t -> int -> string

val kind_of : t -> site:Types.site -> code:int -> Types.state_kind
(** @raise Invalid_argument when the state is not declared at [site]
    (mirrors [Automaton.state_exn]). *)
