(** Workload generators for the database experiments. *)

type spec = {
  n_txns : int;
  arrival_rate : float;  (** mean arrivals per time unit (Poisson) *)
  keys : int;
  ops_per_txn : int;
  write_ratio : float;
  zipf_skew : float;  (** 0.0 = uniform; higher = more contended *)
}

val default_spec : spec
val key_name : int -> string
(** The key named by index [i]: [Printf.sprintf "k%04d" i]. *)

val mixed : Sim.Rng.t -> spec -> (float * Txn.t) list
(** Generic read/write workload with Poisson arrivals; transaction ids
    are 1..n, arrival times increase. *)

val bank : Sim.Rng.t -> n_txns:int -> accounts:int -> arrival_rate:float -> (float * Txn.t) list
(** Transfer workload: each transaction moves a random amount between two
    distinct accounts, so the global balance total is invariant. *)

val bank_initial : accounts:int -> initial_balance:int -> (string * int) list
val bank_total : accounts:int -> initial_balance:int -> int
