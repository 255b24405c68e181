(** Tests for {!Kv.Lock_table}: strict 2PL with deadlock detection. *)

module L = Kv.Lock_table

let test_grant_exclusive () =
  let t = L.create () in
  Alcotest.check Helpers.lock_outcome "first exclusive" L.Granted
    (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  Alcotest.check Helpers.lock_outcome "re-acquire is granted" L.Granted
    (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  Alcotest.check Helpers.lock_outcome "second txn waits" L.Waiting
    (L.acquire t ~txn:2 ~key:"k" ~mode:L.Exclusive)

let test_shared_compatible () =
  let t = L.create () in
  Alcotest.check Helpers.lock_outcome "reader 1" L.Granted (L.acquire t ~txn:1 ~key:"k" ~mode:L.Shared);
  Alcotest.check Helpers.lock_outcome "reader 2" L.Granted (L.acquire t ~txn:2 ~key:"k" ~mode:L.Shared);
  Alcotest.check Helpers.lock_outcome "writer waits" L.Waiting
    (L.acquire t ~txn:3 ~key:"k" ~mode:L.Exclusive)

let test_exclusive_holder_allows_own_shared () =
  let t = L.create () in
  ignore (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  Alcotest.check Helpers.lock_outcome "own shared under exclusive" L.Granted
    (L.acquire t ~txn:1 ~key:"k" ~mode:L.Shared)

let test_upgrade () =
  let t = L.create () in
  ignore (L.acquire t ~txn:1 ~key:"k" ~mode:L.Shared);
  Alcotest.check Helpers.lock_outcome "sole reader upgrades" L.Granted
    (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  Alcotest.(check (list string)) "holds k" [ "k" ] (L.held_keys t ~txn:1)

let test_release_promotes_fifo () =
  let t = L.create () in
  let granted = ref [] in
  L.on_grant t (fun txn -> granted := txn :: !granted);
  ignore (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"k" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:3 ~key:"k" ~mode:L.Exclusive);
  L.release_all t ~txn:1;
  Alcotest.(check (list int)) "txn 2 first" [ 2 ] !granted;
  L.release_all t ~txn:2;
  Alcotest.(check (list int)) "then txn 3" [ 3; 2 ] !granted

let test_release_promotes_readers_together () =
  let t = L.create () in
  let granted = ref [] in
  L.on_grant t (fun txn -> granted := txn :: !granted);
  ignore (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"k" ~mode:L.Shared);
  ignore (L.acquire t ~txn:3 ~key:"k" ~mode:L.Shared);
  L.release_all t ~txn:1;
  Alcotest.(check (list int)) "both readers granted" [ 2; 3 ] (List.sort compare !granted)

let test_deadlock_two_txns () =
  let t = L.create () in
  ignore (L.acquire t ~txn:1 ~key:"a" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"b" ~mode:L.Exclusive);
  Alcotest.check Helpers.lock_outcome "1 waits for b" L.Waiting
    (L.acquire t ~txn:1 ~key:"b" ~mode:L.Exclusive);
  (match L.acquire t ~txn:2 ~key:"a" ~mode:L.Exclusive with
  | L.Deadlock _ -> ()
  | other -> Alcotest.failf "expected deadlock, got %a" L.pp_outcome other);
  (* the victim was not queued: releasing txn 1's locks should leave txn 2
     able to proceed *)
  L.release_all t ~txn:1;
  Alcotest.check Helpers.lock_outcome "2 proceeds after victim release" L.Granted
    (L.acquire t ~txn:2 ~key:"a" ~mode:L.Exclusive)

let test_deadlock_three_txns () =
  let t = L.create () in
  ignore (L.acquire t ~txn:1 ~key:"a" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"b" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:3 ~key:"c" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:1 ~key:"b" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"c" ~mode:L.Exclusive);
  match L.acquire t ~txn:3 ~key:"a" ~mode:L.Exclusive with
  | L.Deadlock cycle -> Alcotest.(check bool) "cycle mentions requester" true (List.mem 3 cycle)
  | other -> Alcotest.failf "expected 3-cycle deadlock, got %a" L.pp_outcome other

let test_no_false_deadlock () =
  let t = L.create () in
  ignore (L.acquire t ~txn:1 ~key:"a" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"b" ~mode:L.Exclusive);
  Alcotest.check Helpers.lock_outcome "chain, not cycle" L.Waiting
    (L.acquire t ~txn:2 ~key:"a" ~mode:L.Exclusive)

let test_force_grant () =
  let t = L.create () in
  L.force_grant t ~txn:9 ~key:"k" ~mode:L.Exclusive;
  Alcotest.(check (list string)) "recovered lock held" [ "k" ] (L.held_keys t ~txn:9);
  Alcotest.check Helpers.lock_outcome "others wait behind it" L.Waiting
    (L.acquire t ~txn:1 ~key:"k" ~mode:L.Shared)

let test_n_waiting () =
  let t = L.create () in
  ignore (L.acquire t ~txn:1 ~key:"k" ~mode:L.Exclusive);
  ignore (L.acquire t ~txn:2 ~key:"k" ~mode:L.Shared);
  ignore (L.acquire t ~txn:3 ~key:"k" ~mode:L.Shared);
  Alcotest.(check int) "two waiting" 2 (L.n_waiting t);
  L.release_all t ~txn:1;
  Alcotest.(check int) "none waiting" 0 (L.n_waiting t)

(* property: under random single-key schedules, never two exclusive holders *)
let prop_no_double_exclusive =
  Helpers.qtest "no two exclusive holders on one key" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (pair (int_range 1 5) (oneofl [ `Acquire_x; `Acquire_s; `Release ])))
    (fun script ->
      let t = L.create () in
      let ok = ref true in
      let others_hold txn =
        List.exists
          (fun other -> other <> txn && L.held_keys t ~txn:other <> [])
          [ 1; 2; 3; 4; 5 ]
      in
      List.iter
        (fun (txn, action) ->
          match action with
          | `Acquire_x -> (
              match L.acquire t ~txn ~key:"k" ~mode:L.Exclusive with
              | L.Granted -> if others_hold txn then ok := false
              | L.Waiting | L.Deadlock _ -> ())
          | `Acquire_s -> ignore (L.acquire t ~txn ~key:"k" ~mode:L.Shared)
          | `Release -> L.release_all t ~txn)
        script;
      !ok)

(* ---- differential test against the table-walking algorithm ---- *)

(** The lock table as it was before it was indexed by transaction: every
    release, waits-for query and deadlock search walks the whole table.
    It exists only here, as the reference the indexed table must match
    step for step, grant callbacks and their order included. *)
module Ref = struct
  type mode = L.mode = Shared | Exclusive

  type outcome = L.outcome = Granted | Waiting | Deadlock of int list

  type granted = { txn : int; mode : mode }

  type waiting = { w_txn : int; w_mode : mode }

  type entry = { mutable holders : granted list; mutable queue : waiting list }

  type t = { locks : (string, entry) Hashtbl.t; mutable grants : (int -> unit) option }

  let create () = { locks = Hashtbl.create 64; grants = None }

  let on_grant t f = t.grants <- Some f

  let entry t key =
    match Hashtbl.find_opt t.locks key with
    | Some e -> e
    | None ->
        let e = { holders = []; queue = [] } in
        Hashtbl.add t.locks key e;
        e

  let compatible held requested = match (held, requested) with Shared, Shared -> true | _ -> false

  let holds_sufficient e ~txn ~mode =
    List.exists (fun g -> g.txn = txn && (g.mode = Exclusive || g.mode = mode)) e.holders

  let can_grant e ~txn ~mode = List.for_all (fun g -> g.txn = txn || compatible g.mode mode) e.holders

  let waits_for t txn =
    Hashtbl.fold
      (fun _key e acc ->
        if List.exists (fun w -> w.w_txn = txn) e.queue then
          let holders = List.filter_map (fun g -> if g.txn <> txn then Some g.txn else None) e.holders in
          let ahead =
            let rec take acc = function
              | [] -> acc
              | w :: _ when w.w_txn = txn -> acc
              | w :: rest -> take (w.w_txn :: acc) rest
            in
            take [] e.queue
          in
          holders @ ahead @ acc
        else acc)
      t.locks []
    |> List.sort_uniq compare

  let find_cycle t ~start ~extra =
    let visited = Hashtbl.create 16 in
    let parent = Hashtbl.create 16 in
    let queue = Queue.create () in
    List.iter
      (fun n ->
        if not (Hashtbl.mem visited n) then begin
          Hashtbl.add visited n ();
          Queue.add n queue
        end)
      extra;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      if node = start then begin
        let rec path n acc =
          match Hashtbl.find_opt parent n with None -> n :: acc | Some p -> path p (n :: acc)
        in
        found := Some (start :: path node [])
      end
      else
        List.iter
          (fun next ->
            if not (Hashtbl.mem visited next) then begin
              Hashtbl.add visited next ();
              Hashtbl.replace parent next node;
              Queue.add next queue
            end)
          (waits_for t node)
    done;
    !found

  let acquire t ~txn ~key ~mode : outcome =
    let e = entry t key in
    if holds_sufficient e ~txn ~mode then Granted
    else if can_grant e ~txn ~mode && e.queue = [] then begin
      e.holders <- { txn; mode } :: List.filter (fun g -> g.txn <> txn) e.holders;
      Granted
    end
    else begin
      let blockers =
        List.filter_map (fun g -> if g.txn <> txn then Some g.txn else None) e.holders
        @ List.map (fun w -> w.w_txn) e.queue
        |> List.sort_uniq compare
      in
      match find_cycle t ~start:txn ~extra:blockers with
      | Some cycle -> Deadlock cycle
      | None ->
          e.queue <- e.queue @ [ { w_txn = txn; w_mode = mode } ];
          Waiting
    end

  let promote t e =
    let rec go () =
      match e.queue with
      | [] -> ()
      | w :: rest ->
          if can_grant e ~txn:w.w_txn ~mode:w.w_mode then begin
            e.queue <- rest;
            e.holders <- { txn = w.w_txn; mode = w.w_mode } :: List.filter (fun g -> g.txn <> w.w_txn) e.holders;
            (match t.grants with Some f -> f w.w_txn | None -> ());
            go ()
          end
    in
    go ()

  let release_all t ~txn =
    Hashtbl.iter
      (fun _key e ->
        let had = List.exists (fun g -> g.txn = txn) e.holders in
        e.holders <- List.filter (fun g -> g.txn <> txn) e.holders;
        e.queue <- List.filter (fun w -> w.w_txn <> txn) e.queue;
        if had || e.queue <> [] then promote t e)
      t.locks

  let held_keys t ~txn =
    Hashtbl.fold
      (fun key e acc -> if List.exists (fun g -> g.txn = txn) e.holders then key :: acc else acc)
      t.locks []
    |> List.sort compare

  let n_waiting t = Hashtbl.fold (fun _ e acc -> acc + List.length e.queue) t.locks 0

  let force_grant t ~txn ~key ~mode =
    let e = entry t key in
    if not (holds_sufficient e ~txn ~mode) then
      e.holders <- { txn; mode } :: List.filter (fun g -> g.txn <> txn) e.holders
end

module type TABLE = sig
  type t

  val create : unit -> t
  val on_grant : t -> (int -> unit) -> unit
  val acquire : t -> txn:int -> key:string -> mode:L.mode -> L.outcome
  val release_all : t -> txn:int -> unit
  val force_grant : t -> txn:int -> key:string -> mode:L.mode -> unit
  val held_keys : t -> txn:int -> string list
  val waits_for : t -> int -> int list
  val n_waiting : t -> int
end

let n_txns = 6
let n_keys = 8
let key i = Printf.sprintf "k%d" i

type step = Acquire of int * int * L.mode | Release of int | Force of int * int * L.mode

(** What a grant callback does, read round-robin from the script: the
    granted transaction acquires another key (and aborts, releasing
    everything, on a deadlock), or it releases a transaction chosen
    relative to it, which may be itself or one whose release is already
    in progress further up the stack. *)
type reaction = Idle | Next of int * L.mode | Release_other of int

(** Runs a script and returns everything observable, in order: each
    outcome, each grant callback's transaction (nested ones included),
    and after every top-level step each transaction's held keys and
    waits-for set and the waiting count. *)
module Run (M : TABLE) = struct
  let run (steps, reactions) =
    let t = M.create () in
    let log = ref [] in
    let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
    let releasing = ref [] and reacted = ref 0 in
    let release txn =
      say "release %d" txn;
      releasing := txn :: !releasing;
      M.release_all t ~txn;
      releasing := List.tl !releasing
    in
    let acquire txn k mode =
      let o = M.acquire t ~txn ~key:(key k) ~mode in
      say "acquire %d %s %s -> %s" txn (key k) (L.show_mode mode) (Fmt.str "%a" L.pp_outcome o);
      o
    in
    M.on_grant t (fun w ->
        say "grant %d" w;
        (* a finished transaction never asks for more locks *)
        if (not (List.mem w !releasing)) && !reacted < 60 && reactions <> [||] then begin
          let r = reactions.(!reacted mod Array.length reactions) in
          incr reacted;
          match r with
          | Idle -> ()
          | Next (k, mode) -> (
              match acquire w ((w + k) mod n_keys) mode with L.Deadlock _ -> release w | _ -> ())
          | Release_other d -> release (((w + d) mod n_txns) + 1)
        end);
    List.iter
      (fun step ->
        (match step with
        | Acquire (txn, k, mode) -> ignore (acquire txn k mode)
        | Release txn -> release txn
        | Force (txn, k, mode) ->
            say "force %d %s %s" txn (key k) (L.show_mode mode);
            M.force_grant t ~txn ~key:(key k) ~mode);
        for txn = 1 to n_txns do
          say "%d holds [%s] waits for [%s]" txn
            (String.concat " " (M.held_keys t ~txn))
            (String.concat " " (List.map string_of_int (M.waits_for t txn)))
        done;
        say "waiting %d" (M.n_waiting t))
      steps;
    List.rev !log
end

module Run_ref = Run (Ref)
module Run_indexed = Run (L)

let gen_script =
  let open QCheck2.Gen in
  let txn = int_range 1 n_txns and k = int_range 0 (n_keys - 1) in
  let mode = frequency [ (2, pure L.Shared); (1, pure L.Exclusive) ] in
  let step =
    frequency
      [
        (6, map3 (fun t k m -> Acquire (t, k, m)) txn k mode);
        (2, map (fun t -> Release t) txn);
        (1, map3 (fun t k m -> Force (t, k, m)) txn k mode);
      ]
  in
  let reaction =
    frequency
      [
        (1, pure Idle);
        (3, map2 (fun k m -> Next (k, m)) (int_range 1 (n_keys - 1)) mode);
        (3, map (fun d -> Release_other d) (int_range 1 (n_txns - 1)));
      ]
  in
  pair (list_size (int_range 1 100) step) (map Array.of_list (list_size (int_range 1 8) reaction))

let prop_matches_reference =
  Helpers.qtest "matches the table-walking reference, callbacks included" ~count:1000 gen_script
    (fun script ->
      let expected = Run_ref.run script and got = Run_indexed.run script in
      expected = got
      ||
      let rec first_diff i = function
        | e :: es, g :: gs -> if e = g then first_diff (i + 1) (es, gs) else (i, e, g)
        | e :: _, [] -> (i, e, "<end>")
        | [], g :: _ -> (i, "<end>", g)
        | [], [] -> (i, "", "")
      in
      let i, e, g = first_diff 0 (expected, got) in
      QCheck2.Test.fail_reportf "observation %d: reference %S, indexed %S" i e g)

let suite =
  [
    Alcotest.test_case "exclusive grants" `Quick test_grant_exclusive;
    Alcotest.test_case "shared compatibility" `Quick test_shared_compatible;
    Alcotest.test_case "own shared under exclusive" `Quick test_exclusive_holder_allows_own_shared;
    Alcotest.test_case "lock upgrade" `Quick test_upgrade;
    Alcotest.test_case "FIFO promotion" `Quick test_release_promotes_fifo;
    Alcotest.test_case "readers promoted together" `Quick test_release_promotes_readers_together;
    Alcotest.test_case "two-transaction deadlock" `Quick test_deadlock_two_txns;
    Alcotest.test_case "three-transaction deadlock" `Quick test_deadlock_three_txns;
    Alcotest.test_case "no false deadlock on chains" `Quick test_no_false_deadlock;
    Alcotest.test_case "force grant (recovery)" `Quick test_force_grant;
    Alcotest.test_case "waiting count" `Quick test_n_waiting;
    prop_no_double_exclusive;
    prop_matches_reference;
  ]
