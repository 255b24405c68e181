(** Strict two-phase locking with waits-for deadlock detection.

    This is the concurrency-control substrate the paper's introduction
    appeals to: "a server may not be able to commit its part of a
    transaction due to issues of concurrency control, e.g. the resolution
    of a deadlock" — the organic source of unilateral {e no} votes.

    Locks are per-key, shared (read) or exclusive (write).  Requests that
    cannot be granted wait in FIFO order; a waits-for graph is maintained
    and checked for cycles on every new wait edge.  When a cycle is found
    the {e requesting} transaction is chosen as the victim (deterministic,
    and the newcomer has done the least work).

    Each transaction's entries are indexed, so releasing it and walking
    its wait edges cost what it holds and queues on, not the key space. *)

type mode = Shared | Exclusive [@@deriving show { with_path = false }, eq]

type granted = { txn : int; mode : mode }

type waiting = { w_txn : int; w_mode : mode }

type entry = {
  key : string;
  mutable holders : granted list;
  mutable queue : waiting list;
  mutable pos : int;  (** rank in [locks]' iteration order when last numbered *)
}

type outcome =
  | Granted
  | Waiting
  | Deadlock of int list  (** the waits-for cycle found, requester first *)
[@@deriving show { with_path = false }, eq]

type t = {
  locks : (string, entry) Hashtbl.t;
      (** never shrinks: removing an entry would reorder the iteration
          that fixes promotion order *)
  by_txn : (int, entry list) Hashtbl.t;
      (** the entries each transaction holds or queues on, once each *)
  mutable numbered : bool;  (** no key added since [pos] was assigned *)
  mutable promoting : entry list;
      (** entries whose promotion is inside a grant callback, innermost
          first: the only entries whose queue head may be grantable *)
  mutable bfs_node : int array;
  mutable bfs_parent : int array;  (** index into [bfs_node], -1 for a root *)
  mutable grants : (int -> unit) option;
      (** callback invoked with each transaction whose pending request
          becomes granted after a release *)
}

let create () =
  {
    locks = Hashtbl.create 64;
    by_txn = Hashtbl.create 16;
    numbered = true;
    promoting = [];
    bfs_node = Array.make 16 0;
    bfs_parent = Array.make 16 0;
    grants = None;
  }

let on_grant t f = t.grants <- Some f

let entry t key =
  match Hashtbl.find_opt t.locks key with
  | Some e -> e
  | None ->
      let e = { key; holders = []; queue = []; pos = 0 } in
      Hashtbl.add t.locks key e;
      t.numbered <- false;
      e

let own_entries t txn = match Hashtbl.find_opt t.by_txn txn with Some es -> es | None -> []

let index t ~txn e = Hashtbl.replace t.by_txn txn (e :: own_entries t txn)

let rec holds txn = function [] -> false | g :: rest -> g.txn = txn || holds txn rest

let rec queued txn = function [] -> false | w :: rest -> w.w_txn = txn || queued txn rest

let rec holds_sufficient txn mode = function
  | [] -> false
  | g :: rest -> (g.txn = txn && (g.mode = Exclusive || g.mode = mode)) || holds_sufficient txn mode rest

(* Every other holder must be compatible: only shared with shared. *)
let rec can_grant txn mode = function
  | [] -> true
  | g :: rest -> (g.txn = txn || (g.mode = Shared && mode = Shared)) && can_grant txn mode rest

let without_holder txn holders = List.filter (fun g -> g.txn <> txn) holders

let grant e ~txn ~mode = e.holders <- { txn; mode } :: without_holder txn e.holders

(* ---- waits-for graph, read from the requester's own entries ---- *)

(** Transactions that [txn] currently waits for: the holders and the
    earlier queue entries of every key where [txn] queues. *)
let waits_for t txn =
  List.fold_left
    (fun acc e ->
      if queued txn e.queue then
        let acc = List.fold_left (fun acc g -> if g.txn <> txn then g.txn :: acc else acc) acc e.holders in
        let rec ahead acc = function
          | w :: rest when w.w_txn <> txn -> ahead (w.w_txn :: acc) rest
          | _ -> acc
        in
        ahead acc e.queue
      else acc)
    [] (own_entries t txn)
  |> List.sort_uniq Int.compare

(** Cycle search in the waits-for graph: pretending [start] additionally
    waits for [extra], a cycle through [start] exists iff [start] is
    reachable from some node of [extra].  Breadth-first; the visited
    nodes, in visit order, are the queue, and each keeps its parent's
    index to reconstruct the cycle for diagnostics.  The graph has a
    handful of nodes, so membership is a scan of the reused arrays. *)
let find_cycle t ~start ~extra =
  let n = ref 0 in
  let rec seen x i = i < !n && (t.bfs_node.(i) = x || seen x (i + 1)) in
  let visit x parent =
    if not (seen x 0) then begin
      if !n = Array.length t.bfs_node then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        t.bfs_node <- grow t.bfs_node;
        t.bfs_parent <- grow t.bfs_parent
      end;
      t.bfs_node.(!n) <- x;
      t.bfs_parent.(!n) <- parent;
      incr n
    end
  in
  List.iter (fun x -> visit x (-1)) extra;
  let rec path i acc =
    let acc = t.bfs_node.(i) :: acc in
    if t.bfs_parent.(i) < 0 then acc else path t.bfs_parent.(i) acc
  in
  let rec bfs i =
    if i >= !n then None
    else
      let node = t.bfs_node.(i) in
      if node = start then Some (start :: path i [])
      else begin
        List.iter (fun next -> visit next i) (waits_for t node);
        bfs (i + 1)
      end
  in
  bfs 0

(** [acquire t ~txn ~key ~mode] requests a lock.  [Granted] means the lock
    is held on return.  [Waiting] means the request is queued; the
    [on_grant] callback fires when it is eventually granted.  [Deadlock]
    means granting would close a waits-for cycle: the request is {e not}
    queued and the caller must abort [txn]. *)
let acquire t ~txn ~key ~mode : outcome =
  let e = entry t key in
  if holds_sufficient txn mode e.holders then Granted
  else
    (* [txn] is not queued here: a second request would wait for itself
       and come back as a deadlock below. *)
    let present = holds txn e.holders in
    if e.queue = [] && can_grant txn mode e.holders then begin
      (* Lock upgrade replaces the shared grant. *)
      grant e ~txn ~mode;
      if not present then index t ~txn e;
      Granted
    end
    else begin
      let blockers =
        List.filter_map (fun g -> if g.txn <> txn then Some g.txn else None) e.holders
        @ List.map (fun w -> w.w_txn) e.queue
        |> List.sort_uniq Int.compare
      in
      match find_cycle t ~start:txn ~extra:blockers with
      | Some cycle -> Deadlock cycle
      | None ->
          e.queue <- e.queue @ [ { w_txn = txn; w_mode = mode } ];
          if not present then index t ~txn e;
          Waiting
    end

(* After any release, promote waiters in FIFO order.  While a grant
   callback runs, [e] is on [t.promoting]: its next waiter may be grantable
   and not yet granted, and a release nested in the callback promotes it. *)
let promote t e =
  let rec go () =
    match e.queue with
    | w :: rest when can_grant w.w_txn w.w_mode e.holders ->
        e.queue <- rest;
        grant e ~txn:w.w_txn ~mode:w.w_mode;
        (match t.grants with Some f -> f w.w_txn | None -> ());
        go ()
    | _ -> ()
  in
  match e.queue with
  | w :: _ when can_grant w.w_txn w.w_mode e.holders ->
      let outer = t.promoting in
      t.promoting <- e :: outer;
      go ();
      t.promoting <- outer
  | _ -> ()

let renumber t =
  let i = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      e.pos <- !i;
      incr i)
    t.locks;
  t.numbered <- true

(** [release_all t ~txn] drops every lock and queued request of [txn]
    (commit or abort time), promoting any newly grantable waiters.  It
    visits [txn]'s entries and the entries mid-promotion further up the
    stack, one at a time in the table's iteration order at the start of
    the release: a grant callback may re-enter the table, so the order is
    observable whenever two entries are visited and one has a waiter. *)
let release_all t ~txn =
  let todo =
    List.fold_left (fun acc e -> if List.memq e acc then acc else e :: acc) (own_entries t txn) t.promoting
  in
  let todo =
    match todo with
    | [] | [ _ ] -> todo
    | _ when List.for_all (fun e -> e.queue = []) todo -> todo
    | _ ->
        if not t.numbered then renumber t;
        List.sort (fun a b -> Int.compare a.pos b.pos) todo
  in
  List.iter
    (fun e ->
      if holds txn e.holders then e.holders <- without_holder txn e.holders;
      if queued txn e.queue then e.queue <- List.filter (fun w -> w.w_txn <> txn) e.queue;
      promote t e)
    todo;
  (* only now: a release of [txn] nested in a callback must still find
     the entries this one has not reached *)
  Hashtbl.remove t.by_txn txn

(** Keys on which [txn] currently holds a lock. *)
let held_keys t ~txn =
  List.fold_left (fun acc e -> if holds txn e.holders then e.key :: acc else acc) [] (own_entries t txn)
  |> List.sort String.compare

(** Number of transactions currently waiting on some lock. *)
let n_waiting t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.queue) t.locks 0

(** [force_grant t ~txn ~key ~mode] installs a lock unconditionally — used
    by crash recovery to re-establish the locks of prepared transactions
    from the log before the shard accepts new work. *)
let force_grant t ~txn ~key ~mode =
  let e = entry t key in
  if not (holds_sufficient txn mode e.holders) then begin
    let present = holds txn e.holders || queued txn e.queue in
    grant e ~txn ~mode;
    if not present then index t ~txn e
  end
