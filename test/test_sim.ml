(** Tests for the simulation substrate: {!Sim.Rng}, {!Sim.Eventq},
    {!Sim.Metrics} and {!Sim.World}. *)

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:42 and b = Sim.Rng.create ~seed:42 in
  let xs = List.init 50 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" false (xs = ys)

let prop_rng_int_range =
  Helpers.qtest "int draws stay in range"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 500))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create ~seed in
      List.for_all
        (fun _ ->
          let x = Sim.Rng.int rng bound in
          x >= 0 && x < bound)
        (List.init 100 Fun.id))

let prop_rng_float_range =
  Helpers.qtest "float draws stay in range" (QCheck2.Gen.int_range 0 10_000) (fun seed ->
      let rng = Sim.Rng.create ~seed in
      List.for_all
        (fun _ ->
          let x = Sim.Rng.float rng 2.5 in
          x >= 0.0 && x < 2.5)
        (List.init 100 Fun.id))

let prop_shuffle_permutation =
  Helpers.qtest "shuffle is a permutation"
    QCheck2.Gen.(pair (int_range 0 1000) (list_size (int_range 0 30) (int_range 0 100)))
    (fun (seed, l) ->
      let rng = Sim.Rng.create ~seed in
      List.sort compare (Sim.Rng.shuffle rng l) = List.sort compare l)

(* The boxed splitmix64 that [Sim.Rng] kept in a mutable [int64] field
   before its state moved into an unboxed byte buffer: the reference for
   the differential below. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let next_int64 t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let split t =
    let x = next_int64 t in
    let open Int64 in
    { state = logxor (mul x 0x9E3779B97F4A7C15L) 0xBF58476D1CE4E5B9L }

  let int t bound =
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

  let float t bound =
    let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    x /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (next_int64 t) 1L = 1L
end

(* 10,000 mixed draws (int over varying bounds, float, bool, int64, and
   splits that continue on the child or the parent) from a random seed
   match the boxed reference draw for draw. *)
let prop_rng_matches_boxed_reference =
  Helpers.qtest ~count:25 "rng draws match the boxed reference"
    QCheck2.Gen.(
      pair int (list_size (return 10_000) (pair (int_range 0 4) (int_range 1 (1 lsl 40)))))
    (fun (seed, ops) ->
      let r = ref (Boxed_rng.create ~seed) and g = ref (Sim.Rng.create ~seed) in
      List.for_all
        (fun (op, bound) ->
          match op with
          | 0 -> Boxed_rng.int !r bound = Sim.Rng.int !g bound
          | 1 -> Float.equal (Boxed_rng.float !r 3.5) (Sim.Rng.float !g 3.5)
          | 2 -> Boxed_rng.bool !r = Sim.Rng.bool !g
          | 3 -> Int64.equal (Boxed_rng.next_int64 !r) (Sim.Rng.next_int64 !g)
          | _ ->
              let rc = Boxed_rng.split !r and gc = Sim.Rng.split !g in
              if Boxed_rng.bool rc = Sim.Rng.bool gc then begin
                r := rc;
                g := gc
              end;
              Int64.equal (Boxed_rng.next_int64 !r) (Sim.Rng.next_int64 !g))
        ops)

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:5 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "split stream differs" false (xs = ys)

let test_rng_bool_mixes () =
  let rng = Sim.Rng.create ~seed:3 in
  let draws = List.init 200 (fun _ -> Sim.Rng.bool rng) in
  let trues = List.length (List.filter Fun.id draws) in
  Alcotest.(check bool) "both outcomes occur" true (trues > 50 && trues < 150)

let test_rng_flip_extremes () =
  let rng = Sim.Rng.create ~seed:3 in
  Alcotest.(check bool) "p=0 never" false (Sim.Rng.flip rng ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Sim.Rng.flip rng ~p:1.0)

let test_rng_choice_empty () =
  let rng = Sim.Rng.create ~seed:1 in
  Alcotest.check_raises "choice of empty" (Invalid_argument "Rng.choice: empty list") (fun () ->
      ignore (Sim.Rng.choice rng []))

let test_exponential_positive () =
  let rng = Sim.Rng.create ~seed:9 in
  for _ = 1 to 100 do
    let x = Sim.Rng.exponential rng ~mean:3.0 in
    Alcotest.(check bool) "exponential >= 0" true (x >= 0.0)
  done

(* ---------------- Eventq ---------------- *)

let test_eventq_ordering () =
  let q = Sim.Eventq.create () in
  Sim.Eventq.push q ~time:3.0 "c";
  Sim.Eventq.push q ~time:1.0 "a";
  Sim.Eventq.push q ~time:2.0 "b";
  let pops = List.init 3 (fun _ -> Option.get (Sim.Eventq.pop q)) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.map snd pops)

let test_eventq_fifo_ties () =
  let q = Sim.Eventq.create () in
  List.iter (fun s -> Sim.Eventq.push q ~time:1.0 s) [ "x"; "y"; "z" ];
  let pops = List.init 3 (fun _ -> snd (Option.get (Sim.Eventq.pop q))) in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] pops

let test_eventq_empty () =
  let q = Sim.Eventq.create () in
  Alcotest.(check bool) "empty pop" true (Sim.Eventq.pop q = None);
  Alcotest.(check bool) "peek none" true (Sim.Eventq.peek_time q = None);
  Alcotest.(check int) "length 0" 0 (Sim.Eventq.length q)

let test_eventq_bad_time () =
  let q = Sim.Eventq.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Eventq.push: bad time") (fun () ->
      Sim.Eventq.push q ~time:(-1.0) "x")

let prop_eventq_sorted =
  Helpers.qtest "pops come out time-sorted"
    QCheck2.Gen.(list_size (int_range 0 100) (float_range 0.0 1000.0))
    (fun times ->
      let q = Sim.Eventq.create () in
      List.iteri (fun i t -> Sim.Eventq.push q ~time:t i) times;
      let rec drain acc = match Sim.Eventq.pop q with None -> List.rev acc | Some (t, _) -> drain (t :: acc) in
      let popped = drain [] in
      popped = List.sort compare popped && List.length popped = List.length times)

(* Interleaved pushes and pops against a sorted-list model keyed by
   (time, insertion index).  Times come from five values, so most keys
   tie on time and the insertion order decides; the payload is the
   insertion index, so the exact (time, payload) pop sequence is pinned.
   Pops alternate between [pop] and [top_time] + [pop_top]. *)
let prop_eventq_model =
  Helpers.qtest "interleaved push/pop matches a sorted-list model"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency
           [ (3, map (fun t -> `Push t) (int_range 0 4)); (1, pure `Pop); (1, pure `Pop_top) ]))
    (fun ops ->
      let q = Sim.Eventq.create () in
      let model = ref [] and next = ref 0 in
      let take () =
        match !model with
        | [] -> None
        | x :: rest ->
            model := rest;
            Some x
      in
      let step = function
        | `Push t ->
            let time = 0.5 *. float_of_int t in
            Sim.Eventq.push q ~time !next;
            model := List.merge compare !model [ (time, !next) ];
            incr next;
            Sim.Eventq.length q = List.length !model
        | `Pop -> Sim.Eventq.pop q = take ()
        | `Pop_top -> (
            match take () with
            | None -> Sim.Eventq.is_empty q
            | Some (time, v) ->
                let t' = Sim.Eventq.top_time q in
                t' = time && Sim.Eventq.pop_top q = v)
      in
      let rec drain () =
        match take () with
        | None -> Sim.Eventq.pop q = None
        | Some x -> Sim.Eventq.pop q = Some x && drain ()
      in
      List.for_all step ops && drain ())

(* Slots [A(0); C(5); T(1)]: popping A re-inserts T from the last slot,
   popping T leaves C.  T has then passed through two vacated slots, and
   neither may keep it alive.  Built out of line so no stack slot of the
   caller holds T. *)
let[@inline never] pop_tracked_past_vacated_slots q ~pop =
  let tracked = Weak.create 1 in
  let t = ref 1 in
  Weak.set tracked 0 (Some t);
  Sim.Eventq.push q ~time:0.0 (ref 0);
  Sim.Eventq.push q ~time:5.0 (ref 5);
  Sim.Eventq.push q ~time:1.0 t;
  pop q;
  pop q;
  tracked

let test_eventq_no_retention () =
  List.iter
    (fun (name, pop) ->
      let q = Sim.Eventq.create () in
      let tracked = pop_tracked_past_vacated_slots q ~pop in
      Gc.full_major ();
      Alcotest.(check bool) (name ^ ": popped payload is collectable") false (Weak.check tracked 0);
      Alcotest.(check (option (float 0.0))) (name ^ ": the later entry remains") (Some 5.0)
        (Sim.Eventq.peek_time q))
    [
      ("pop", fun q -> ignore (Sim.Eventq.pop q));
      ("pop_top", fun q -> ignore (Sim.Eventq.pop_top q));
    ]

(* Rounds of pushes and pops that take the queue past a depth of 1,000,
   through the pool growths 16 -> 32 -> ... -> 2048 and more, on four
   distinct times, so most keys tie on time.  Every popped payload must
   come out in FIFO order within its time, and none may stay reachable
   while the queue is still deep.  Payloads are boxed and tracked
   weakly; the pushes happen out of line so no stack slot holds one. *)
let[@inline never] push_tracked q tracked ~next times =
  List.iter
    (fun t ->
      let p = ref !next in
      Weak.set tracked !next (Some p);
      Sim.Eventq.push q ~time:(float_of_int t) p;
      incr next)
    times

let prop_eventq_pool_growth =
  Helpers.qtest ~count:20 "deep queues across pool growths: FIFO ties, no popped payload retained"
    QCheck2.Gen.(
      list_size (int_range 2 4)
        (pair (list_size (int_range 600 1_400) (int_range 0 3)) (int_range 0 500)))
    (fun rounds ->
      let total = List.fold_left (fun a (ts, _) -> a + List.length ts) 0 rounds in
      let tracked = Weak.create total in
      let q = Sim.Eventq.create () in
      let next = ref 0 and popped = ref [] and ok = ref true in
      (* the newest popped index per time, for the FIFO check *)
      let last = Array.make 4 (-1) in
      let pop_one () =
        let time = Sim.Eventq.top_time q in
        let i = !(Sim.Eventq.pop_top q) in
        let t = int_of_float time in
        if i <= last.(t) then ok := false;
        last.(t) <- i;
        popped := i :: !popped
      in
      List.iter
        (fun (times, pops) ->
          push_tracked q tracked ~next times;
          for _ = 1 to min pops (Sim.Eventq.length q) do
            pop_one ()
          done;
          if Sim.Eventq.length q > 1_000 then begin
            Gc.full_major ();
            if List.exists (Weak.check tracked) !popped then ok := false
          end)
        rounds;
      while not (Sim.Eventq.is_empty q) do
        pop_one ()
      done;
      !ok && List.length !popped = total)

(* ---------------- Metrics ---------------- *)

let test_metrics () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr m "x";
  Sim.Metrics.incr m ~by:4 "x";
  Alcotest.(check int) "counter" 5 (Sim.Metrics.counter m "x");
  Alcotest.(check int) "missing counter" 0 (Sim.Metrics.counter m "y");
  Sim.Metrics.observe m "lat" 1.0;
  Sim.Metrics.observe m "lat" 3.0;
  match Sim.Metrics.summarize m "lat" with
  | Some s ->
      Alcotest.(check int) "n" 2 s.Sim.Metrics.count;
      Alcotest.(check (float 0.001)) "mean" 2.0 s.Sim.Metrics.mean;
      Alcotest.(check (float 0.001)) "min" 1.0 s.Sim.Metrics.min
  | None -> Alcotest.fail "expected summary"

(* ---------------- World ---------------- *)

type wmsg = Ping | Pong

let wmsg_str = function Ping -> "ping" | Pong -> "pong"

let quiet_handlers ?(on_message = fun _ ~src:_ _ -> ()) ?(on_start = fun _ -> ())
    ?(on_peer_down = fun _ _ -> ()) ?(on_restart = fun _ -> ()) () _site =
  { Sim.World.on_start; on_message; on_peer_down; on_peer_up = (fun _ _ -> ()); on_restart }

let test_world_delivery () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:wmsg_str () in
  let got = ref [] in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx -> if ctx.Sim.World.self = 1 then Sim.World.send ctx ~dst:2 Ping)
      ~on_message:(fun ctx ~src m ->
        got := (ctx.Sim.World.self, src, m) :: !got;
        if m = Ping then Sim.World.send ctx ~dst:src Pong)
      ()
  in
  let t_end = Sim.World.run w ~handlers () in
  Alcotest.(check int) "two deliveries" 2 (List.length !got);
  Alcotest.(check bool) "positive end time" true (t_end > 0.0);
  Alcotest.(check int) "metrics sent" 2 (Sim.Metrics.counter (Sim.World.metrics w) "messages_sent")

let test_world_crash_drops_messages () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:wmsg_str () in
  Sim.World.schedule_crash w ~at:0.5 2;
  let got = ref 0 in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx -> if ctx.Sim.World.self = 1 then Sim.World.send ctx ~dst:2 Ping)
      ~on_message:(fun _ ~src:_ _ -> incr got)
      ()
  in
  ignore (Sim.World.run w ~handlers ());
  (* latency ~1.0 > crash at 0.5: the message dies with the target *)
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "drop recorded" 1
    (Sim.Metrics.counter (Sim.World.metrics w) "messages_dropped")

let test_world_detector () =
  let w = Sim.World.create ~n_sites:3 ~seed:1 ~msg_to_string:wmsg_str () in
  Sim.World.schedule_crash w ~at:1.0 3;
  let reports = ref [] in
  let handlers =
    quiet_handlers ~on_peer_down:(fun ctx failed -> reports := (ctx.Sim.World.self, failed) :: !reports) ()
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check (list (pair int int))) "both survivors notified" [ (1, 3); (2, 3) ]
    (List.sort compare !reports);
  Alcotest.(check bool) "detector view" false (Sim.World.is_alive w 3);
  Alcotest.(check (list int)) "operational sites" [ 1; 2 ] (Sim.World.operational_sites w)

let test_world_recovery_and_restart () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:wmsg_str () in
  Sim.World.schedule_crash w ~at:1.0 2;
  Sim.World.schedule_recovery w ~at:5.0 2;
  let restarted = ref false and ups = ref [] in
  let handlers site =
    {
      (quiet_handlers ~on_restart:(fun ctx -> if ctx.Sim.World.self = 2 then restarted := true) () site)
      with
      Sim.World.on_peer_up = (fun ctx s -> ups := (ctx.Sim.World.self, s) :: !ups);
    }
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check bool) "restart handler ran" true !restarted;
  Alcotest.(check (list (pair int int))) "peer-up notification" [ (1, 2) ] !ups;
  Alcotest.(check bool) "alive again" true (Sim.World.is_alive w 2)

let test_world_timer_cancelled_by_crash () =
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:wmsg_str () in
  Sim.World.schedule_crash w ~at:1.0 1;
  let fired = ref false in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx -> ignore (Sim.World.set_timer ctx ~delay:5.0 (fun () -> fired := true)))
      ()
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check bool) "timer died with the site" false !fired

let test_world_timer_cancel () =
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:wmsg_str () in
  let fired = ref false in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx ->
        let id = Sim.World.set_timer ctx ~delay:2.0 (fun () -> fired := true) in
        ignore (Sim.World.set_timer ctx ~delay:1.0 (fun () -> Sim.World.cancel_timer ctx id)))
      ()
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_world_timer_cancel_many () =
  (* regression: cancellations used to accumulate in an int list, making
     each timer dispatch a linear scan (O(n^2) over a run). 10k cancelled
     timers must dispatch silently and finish instantly. *)
  let n = 10_000 in
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:wmsg_str () in
  let fired = ref 0 in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx ->
        for i = 1 to n do
          let id =
            Sim.World.set_timer ctx ~delay:(float_of_int i *. 0.001) (fun () -> incr fired)
          in
          Sim.World.cancel_timer ctx id
        done)
      ()
  in
  let (), elapsed = Sim.Clock.time (fun () -> ignore (Sim.World.run w ~handlers ())) in
  Alcotest.(check int) "no cancelled timer fired" 0 !fired;
  Alcotest.(check int) "all cancellations accounted for" n
    (Sim.Metrics.counter (Sim.World.metrics w) "timers_cancelled");
  (* generous bound: the O(n^2) list-scan version takes far longer *)
  Alcotest.(check bool) (Fmt.str "completed quickly (%.3fs)" elapsed) true (elapsed < 2.0)

let test_world_sender_crash_partial_broadcast () =
  (* crash_self between two sends models a partially completed transition:
     the second message must not leave the site *)
  let w = Sim.World.create ~n_sites:3 ~seed:1 ~msg_to_string:wmsg_str () in
  let got = ref [] in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx ->
        if ctx.Sim.World.self = 1 then begin
          Sim.World.send ctx ~dst:2 Ping;
          Sim.World.crash_self ctx;
          Sim.World.send ctx ~dst:3 Ping
        end)
      ~on_message:(fun ctx ~src:_ _ -> got := ctx.Sim.World.self :: !got)
      ()
  in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check (list int)) "only the first send arrives" [ 2 ] !got

let test_world_inject_and_generations () =
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:wmsg_str () in
  (* message injected for generation 0, but the site crashes and recovers
     (generation 1) before delivery: the stale message is dropped *)
  Sim.World.inject w ~dst:1 ~at:5.0 Ping;
  Sim.World.schedule_crash w ~at:1.0 1;
  Sim.World.schedule_recovery w ~at:2.0 1;
  let got = ref 0 in
  let handlers = quiet_handlers ~on_message:(fun _ ~src:_ _ -> incr got) () in
  ignore (Sim.World.run w ~handlers ());
  Alcotest.(check int) "stale-generation message dropped" 0 !got

let test_world_trace_and_pp () =
  let w = Sim.World.create ~n_sites:2 ~seed:1 ~msg_to_string:wmsg_str () in
  Sim.World.set_tracing w true;
  let handlers =
    quiet_handlers ~on_start:(fun ctx -> if ctx.Sim.World.self = 1 then Sim.World.send ctx ~dst:2 Ping) ()
  in
  ignore (Sim.World.run w ~handlers ());
  let entries = Sim.World.trace_entries w in
  Alcotest.(check bool) "trace nonempty" true (List.length entries >= 2);
  Alcotest.(check bool) "trace ordered" true
    (let times = List.map (fun e -> e.Sim.World.at) entries in
     List.sort compare times = times);
  let rendered = Fmt.str "%a" Sim.World.pp_trace w in
  let contains needle hay =
    let rec go i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "pp_trace mentions the send" true (contains "send 1->2 ping" rendered)

(* One run through every message path that traces a message: plain
   send, delivery, drop at a crashed destination, partition drop, chaos
   drop, duplicate, delay, and a send from a crashed sender.  Returns how
   often [msg_to_string] ran and the run's counters. *)
let message_paths_run ~tracing =
  let calls = ref 0 in
  let w =
    Sim.World.create ~n_sites:3 ~seed:1
      ~msg_to_string:(fun m ->
        incr calls;
        wmsg_str m)
      ()
  in
  Sim.World.set_tracing w tracing;
  Sim.World.schedule_partition w ~from_t:0.0 ~until_t:50.0 [ [ 1; 2 ]; [ 3 ] ];
  Sim.World.set_msg_faults w
    [ (0, Sim.World.Fault_drop); (1, Sim.World.Fault_duplicate); (2, Sim.World.Fault_delay 2.5) ];
  (* the delayed copy arrives after site 2 has crashed *)
  Sim.World.schedule_crash w ~at:2.0 2;
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx ->
        match ctx.Sim.World.self with
        | 1 ->
            for _ = 1 to 4 do
              Sim.World.send ctx ~dst:2 Ping
            done;
            Sim.World.send ctx ~dst:3 Ping
        | 3 ->
            Sim.World.crash_self ctx;
            Sim.World.send ctx ~dst:1 Pong
        | _ -> ())
      ()
  in
  ignore (Sim.World.run w ~handlers ());
  (!calls, Sim.Metrics.counters (Sim.World.metrics w))

let test_world_untraced_never_renders () =
  let calls, counters = message_paths_run ~tracing:false in
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  List.iter
    (fun (name, n) -> Alcotest.(check int) ("path taken: " ^ name) n (count name))
    [
      ("messages_sent", 5);
      ("messages_delivered", 3);
      ("messages_dropped", 1);
      ("messages_partitioned", 1);
      ("messages_chaos_dropped", 1);
      ("messages_duplicated", 1);
      ("messages_chaos_delayed", 1);
    ];
  Alcotest.(check int) "msg_to_string never called with tracing off" 0 calls;
  let traced_calls, traced_counters = message_paths_run ~tracing:true in
  Alcotest.(check int) "traced: one rendering per traced message line" 10 traced_calls;
  Alcotest.(check (list (pair string int))) "tracing changes no counter" counters traced_counters

let test_metrics_pp () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr m "events";
  Sim.Metrics.observe m "lat" 2.0;
  let s = Fmt.str "%a" Sim.Metrics.pp m in
  Alcotest.(check bool) "mentions counter" true
    (let needle = "events" in
     let rec go i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || go (i + 1))
     in
     go 0)

let test_world_until () =
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:wmsg_str () in
  let count = ref 0 in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx ->
        let rec tick () =
          incr count;
          ignore (Sim.World.set_timer ctx ~delay:1.0 tick)
        in
        tick ())
      ()
  in
  ignore (Sim.World.run w ~handlers ~until:10.5 ());
  Alcotest.(check bool) "bounded by until" true (!count <= 12)

(* ---------------- quiescence in detector mode ---------------- *)

(* One site beating a background timer chain every 1.0 from t=0, with
   [settled] registered as the detector's; Pong is the heartbeat.
   [extra] runs at start, to push non-background work.  Returns the end
   time and how often the chain fired. *)
let background_run ?(register = true) ?(extra = fun _ -> ()) ~settled ~until () =
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:wmsg_str () in
  if register then
    Sim.World.register_detector w ~is_heartbeat:(fun m -> m = Pong) ~settled:(settled w);
  let beats = ref 0 in
  let handlers =
    quiet_handlers
      ~on_start:(fun ctx ->
        let rec beat () =
          incr beats;
          Sim.World.set_background_timer ctx ~delay:1.0 beat
        in
        beat ();
        extra ctx)
      ()
  in
  let t_end = Sim.World.run w ~handlers ~until () in
  (t_end, !beats)

let test_world_stops_at_first_settled_instant () =
  let t_end, beats = background_run ~settled:(fun w () -> Sim.World.now w >= 4.5) ~until:100.0 () in
  Alcotest.(check (float 0.0)) "ends at the first settled instant" 5.0 t_end;
  Alcotest.(check int) "the chain fired at 0..5" 6 beats;
  let t_end, beats = background_run ~settled:(fun _ () -> false) ~until:20.0 () in
  Alcotest.(check (float 0.0)) "never settled: runs to until" 20.0 t_end;
  Alcotest.(check int) "the chain fired at 0..20" 21 beats

let test_world_ordinary_event_blocks_stop () =
  (* a pending ordinary timer, or a delivery that is not a heartbeat, is
     work the stop must wait for; a heartbeat in flight is not *)
  let t_end, _ =
    background_run ~settled:(fun _ () -> true)
      ~extra:(fun ctx -> ignore (Sim.World.set_timer ctx ~delay:7.5 (fun () -> ())))
      ~until:100.0 ()
  in
  Alcotest.(check (float 0.0)) "waits for the ordinary timer" 7.5 t_end;
  let t_end, _ =
    background_run ~settled:(fun _ () -> true)
      ~extra:(fun ctx -> Sim.World.inject ctx.Sim.World.world ~dst:1 ~at:3.25 Ping)
      ~until:100.0 ()
  in
  Alcotest.(check (float 0.0)) "waits for the protocol delivery" 3.25 t_end;
  let t_end, _ =
    background_run ~settled:(fun _ () -> true)
      ~extra:(fun ctx -> Sim.World.inject ctx.Sim.World.world ~dst:1 ~at:3.25 Pong)
      ~until:100.0 ()
  in
  Alcotest.(check (float 0.0)) "a heartbeat is background" 0.0 t_end

let test_world_faults_block_stop () =
  (* no scheduled fault may still fire: each window and partition holds
     the run until it has closed *)
  List.iter
    (fun (name, schedule, expected) ->
      let t_end, _ =
        background_run ~settled:(fun _ () -> true)
          ~extra:(fun ctx -> schedule ctx.Sim.World.world)
          ~until:100.0 ()
      in
      Alcotest.(check (float 0.0)) name expected t_end)
    [
      ( "hb-loss window",
        (fun w -> Sim.World.schedule_hb_loss w ~site:1 ~from_t:2.0 ~until_t:6.5),
        7.0 );
      (* the chain's beats from 3 on are deferred to 6.5, the window's end *)
      ("stall window", (fun w -> Sim.World.schedule_stall w ~site:1 ~from_t:2.0 ~until_t:6.5), 6.5);
      ( "latency spike",
        (fun w -> Sim.World.schedule_latency_spike w ~site:1 ~from_t:2.0 ~until_t:6.5 ~extra:1.0),
        7.0 );
      ("partition", (fun w -> Sim.World.schedule_partition w ~from_t:2.0 ~until_t:4.0 [ [ 1 ] ]), 4.0);
    ]

let test_world_without_detector_runs_to_until () =
  (* oracle mode: nothing is classified, so background timers are
     ordinary work and a periodic chain runs to the horizon *)
  let t_end, beats = background_run ~register:false ~settled:(fun _ () -> true) ~until:20.0 () in
  Alcotest.(check (float 0.0)) "runs to until" 20.0 t_end;
  Alcotest.(check int) "the chain fired at 0..20" 21 beats

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    prop_rng_int_range;
    prop_rng_float_range;
    prop_rng_matches_boxed_reference;
    prop_shuffle_permutation;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bool mixes" `Quick test_rng_bool_mixes;
    Alcotest.test_case "rng flip extremes" `Quick test_rng_flip_extremes;
    Alcotest.test_case "rng choice empty" `Quick test_rng_choice_empty;
    Alcotest.test_case "rng exponential" `Quick test_exponential_positive;
    Alcotest.test_case "eventq ordering" `Quick test_eventq_ordering;
    Alcotest.test_case "eventq fifo ties" `Quick test_eventq_fifo_ties;
    Alcotest.test_case "eventq empty" `Quick test_eventq_empty;
    Alcotest.test_case "eventq bad time" `Quick test_eventq_bad_time;
    prop_eventq_sorted;
    prop_eventq_model;
    Alcotest.test_case "eventq retains no popped payload" `Quick test_eventq_no_retention;
    prop_eventq_pool_growth;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "world delivery" `Quick test_world_delivery;
    Alcotest.test_case "crash drops in-flight messages" `Quick test_world_crash_drops_messages;
    Alcotest.test_case "failure detector" `Quick test_world_detector;
    Alcotest.test_case "recovery and restart" `Quick test_world_recovery_and_restart;
    Alcotest.test_case "timers die with their site" `Quick test_world_timer_cancelled_by_crash;
    Alcotest.test_case "timer cancellation" `Quick test_world_timer_cancel;
    Alcotest.test_case "10k timer cancellations stay fast" `Quick test_world_timer_cancel_many;
    Alcotest.test_case "partial broadcast on crash" `Quick test_world_sender_crash_partial_broadcast;
    Alcotest.test_case "inject and incarnations" `Quick test_world_inject_and_generations;
    Alcotest.test_case "run until bound" `Quick test_world_until;
    Alcotest.test_case "detector mode stops at the first settled instant" `Quick
      test_world_stops_at_first_settled_instant;
    Alcotest.test_case "ordinary events block the stop" `Quick test_world_ordinary_event_blocks_stop;
    Alcotest.test_case "scheduled faults block the stop" `Quick test_world_faults_block_stop;
    Alcotest.test_case "no detector: no stop before until" `Quick
      test_world_without_detector_runs_to_until;
    Alcotest.test_case "tracing and pp_trace" `Quick test_world_trace_and_pp;
    Alcotest.test_case "untraced runs never render a message" `Quick
      test_world_untraced_never_renders;
    Alcotest.test_case "metrics pp" `Quick test_metrics_pp;
  ]
