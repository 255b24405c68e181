(** Workload generators for the database experiments.

    Two families: a uniform/zipfian read-write mix, and the bank-transfer
    workload (the classic atomicity showcase: every transaction moves money
    between two accounts, so the global balance total is invariant under
    any mix of commits and aborts — but not under a half-applied
    transaction). *)

type spec = {
  n_txns : int;
  arrival_rate : float;  (** mean transaction arrivals per time unit (Poisson) *)
  keys : int;  (** size of the key space *)
  ops_per_txn : int;
  write_ratio : float;  (** fraction of operations that write *)
  zipf_skew : float;  (** 0.0 = uniform; higher = more contended *)
}

let default_spec =
  { n_txns = 200; arrival_rate = 0.5; keys = 64; ops_per_txn = 4; write_ratio = 0.5; zipf_skew = 0.0 }

(* [Printf.sprintf "k%04d" i], built in one allocation: the generators
   name a key on every operation they draw. *)
let key_name i =
  if i < 0 then Printf.sprintf "k%04d" i
  else begin
    let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
    let len = max 4 (digits i) in
    let b = Bytes.make (len + 1) '0' in
    Bytes.set b 0 'k';
    let rec fill n pos =
      if n > 0 then begin
        Bytes.set b pos (Char.unsafe_chr (48 + (n mod 10)));
        fill (n / 10) (pos - 1)
      end
    in
    fill i len;
    Bytes.unsafe_to_string b
  end

(** Zipf-ish key draw by inverse-power rejection-free CDF sampling over a
    precomputed table. *)
let make_key_sampler rng ~keys ~skew =
  if skew <= 0.0 then fun () -> Sim.Rng.int rng keys
  else begin
    let weights = Array.init keys (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) skew) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make keys 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. w;
        cdf.(i) <- !acc /. total)
      weights;
    fun () ->
      let u = Sim.Rng.float rng 1.0 in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then search (mid + 1) hi else search lo mid
      in
      search 0 (keys - 1)
  end

(** [mixed rng spec] : a generic read/write workload with Poisson arrivals.
    Returns (arrival time, transaction) pairs with ids 1..n. *)
let mixed rng (spec : spec) : (float * Txn.t) list =
  let sample_key = make_key_sampler rng ~keys:spec.keys ~skew:spec.zipf_skew in
  let t = ref 0.0 in
  List.init spec.n_txns (fun i ->
      t := !t +. Sim.Rng.exponential rng ~mean:(1.0 /. spec.arrival_rate);
      let rec distinct_keys n acc =
        if n = 0 then acc
        else
          let k = sample_key () in
          if List.mem k acc then distinct_keys n acc else distinct_keys (n - 1) (k :: acc)
      in
      let ks = distinct_keys spec.ops_per_txn [] in
      let ops =
        List.map
          (fun k ->
            if Sim.Rng.flip rng ~p:spec.write_ratio then Txn.Add (key_name k, 1)
            else Txn.Get (key_name k))
          ks
      in
      (!t, { Txn.id = i + 1; ops }))

(** [bank rng ~n_txns ~accounts ~arrival_rate ~initial_balance] : transfer
    workload.  Each transaction moves a random amount between two distinct
    accounts; {!bank_initial} gives the matching initial data, and
    {!bank_total_invariant} is the conservation check. *)
let bank rng ~n_txns ~accounts ~arrival_rate : (float * Txn.t) list =
  let t = ref 0.0 in
  List.init n_txns (fun i ->
      t := !t +. Sim.Rng.exponential rng ~mean:(1.0 /. arrival_rate);
      let from_acct = Sim.Rng.int rng accounts in
      let to_acct =
        let x = Sim.Rng.int rng (accounts - 1) in
        if x >= from_acct then x + 1 else x
      in
      let amount = 1 + Sim.Rng.int rng 10 in
      ( !t,
        {
          Txn.id = i + 1;
          ops = [ Txn.Add (key_name from_acct, -amount); Txn.Add (key_name to_acct, amount) ];
        } ))

let bank_initial ~accounts ~initial_balance =
  List.init accounts (fun i -> (key_name i, initial_balance))

let bank_total ~accounts ~initial_balance = accounts * initial_balance
