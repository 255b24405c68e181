(** Site-local versioned key-value storage.

    Values are integers (account balances, counters).  Writes reach storage
    only through {!apply}, which installs a transaction's whole write set
    atomically and records which transaction produced it — the atomicity
    checker uses that journal to verify that a distributed transaction's
    effects appear either at all its sites or at none. *)

type key = string

type t = {
  table : (key, int) Hashtbl.t;
  mutable version : int;
  mutable applied : (int * (key * int) list) list;  (** (txn id, write set), newest first *)
}

let create () = { table = Hashtbl.create 64; version = 0; applied = [] }

let get t k = Hashtbl.find_opt t.table k
let get_or t k ~default = Option.value ~default (get t k)

(** [load t bindings] initialises storage outside any transaction. *)
let load t bindings = List.iter (fun (k, v) -> Hashtbl.replace t.table k v) bindings

(** [apply t ~txn writes] atomically installs [writes] on behalf of
    transaction [txn]. *)
let apply t ~txn writes =
  List.iter (fun (k, v) -> Hashtbl.replace t.table k v) writes;
  t.version <- t.version + 1;
  t.applied <- (txn, writes) :: t.applied

(** Sorted in place in one flat array: the end-of-run judgement takes this
    for every site, and a sorted copy of the journal list would cost the
    run's peak heap. *)
let applied_txns t =
  let a = Array.make (List.length t.applied) 0 in
  List.iteri (fun i (txn, _) -> a.(i) <- txn) t.applied;
  Array.sort Int.compare a;
  (* squeeze out repeats in place *)
  let n = ref 0 in
  Array.iter
    (fun x ->
      if !n = 0 || a.(!n - 1) <> x then begin
        a.(!n) <- x;
        incr n
      end)
    a;
  if !n = Array.length a then a else Array.sub a 0 !n

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

let total t = Hashtbl.fold (fun _ v acc -> acc + v) t.table 0
