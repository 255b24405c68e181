(** Timed micro-loops for the inner layers that public calls cannot
    reach from outside: the event queue, the world's send/deliver and
    timer paths, metrics calls, both WALs and their disk framing, the
    group-commit batcher, the lock table, the rulebook compiler and the
    model checker's packed state codec.

    Each loop runs [n] operations per repetition; the reported figure is
    the median over repetitions.  The ledger attributes these costs to
    workloads through exact counts (e.g. messages per run). *)

module M = Sim.Metrics

let reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Median ns per operation of [body n] (which performs [n] operations),
    and minor words per operation of the last repetition. *)
let measure ~n body =
  let words = ref 0.0 in
  let ns =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Span.now () in
        body n;
        let dt = Span.now () - t0 in
        words := (Gc.minor_words () -. w0) /. float_of_int n;
        float_of_int dt /. float_of_int n)
  in
  (median ns, !words)

(* pseudo-random but allocation-free event times *)
let offsets = Array.init 4096 (fun i -> float_of_int ((i * 7919) mod 1009) /. 1009.0)

let eventq ~depth ~n =
  let q = Sim.Eventq.create () in
  for i = 0 to depth - 1 do
    Sim.Eventq.push q ~time:offsets.(i land 4095) i
  done;
  measure ~n (fun n ->
      for i = 1 to n do
        match Sim.Eventq.pop q with
        | Some (t, v) -> Sim.Eventq.push q ~time:(t +. offsets.(i land 4095)) v
        | None -> ()
      done)

(* 3-site ping: site 1 starts a token that every delivery forwards to the
   next site, so each operation is one send plus one delivery. *)
let ping ~faulted n =
  let w = Sim.World.create ~n_sites:3 ~seed:1 ~msg_to_string:string_of_int () in
  if faulted then begin
    Sim.World.set_msg_faults w (List.init (n / 2) (fun i -> (2 * i, Sim.World.Fault_delay 0.01)));
    Sim.World.schedule_latency_spike w ~site:2 ~from_t:0.0 ~until_t:infinity ~extra:0.01
  end;
  let handlers _ =
    {
      Sim.World.on_start =
        (fun ctx -> if ctx.Sim.World.self = 1 then Sim.World.send ctx ~dst:2 1);
      on_message =
        (fun ctx ~src:_ v ->
          if v < n then Sim.World.send ctx ~dst:((ctx.Sim.World.self mod 3) + 1) (v + 1));
      on_peer_down = (fun _ _ -> ());
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ~until:infinity ())

let timers ~cancel n =
  let w = Sim.World.create ~n_sites:1 ~seed:1 ~msg_to_string:string_of_int () in
  let fired = ref 0 in
  let rec arm ctx = ignore (Sim.World.set_timer ctx ~delay:0.001 (fun () -> incr fired; if !fired < n then arm ctx)) in
  let handlers _ =
    {
      Sim.World.on_start =
        (fun ctx ->
          if cancel then
            for _ = 1 to n do
              Sim.World.cancel_timer ctx (Sim.World.set_timer ctx ~delay:1.0 (fun () -> ()))
            done
          else arm ctx);
      on_message = (fun _ ~src:_ _ -> ());
      on_peer_down = (fun _ _ -> ());
      on_peer_up = (fun _ _ -> ());
      on_restart = (fun _ -> ());
    }
  in
  ignore (Sim.World.run w ~handlers ~until:infinity ())

let counter_names = Array.init 16 (fun i -> Printf.sprintf "counter_%d" i)

let metrics_incr n =
  let m = M.create () in
  for i = 1 to n do
    M.incr m counter_names.(i land 15)
  done

let metrics_observe n =
  let m = M.create () in
  for i = 1 to n do
    M.observe m "latency" offsets.(i land 4095)
  done

let metrics_gauge n =
  let g = M.gauge_handle (M.create ()) "queue_depth_hwm" in
  for i = 1 to n do
    M.gauge_record g (i land 1023)
  done

(* the registry of one plain 3PC run: the unit a sweep merges per seed *)
let sample_registry =
  lazy
    (Engine.Runtime.run (Engine.Runtime.config (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))))
      .Engine.Runtime.run_metrics

let metrics_merge n =
  let src = Lazy.force sample_registry in
  let acc = M.create () in
  for _ = 1 to n do
    M.merge acc src
  done

let wal_record = Engine.Wal.Transitioned { to_state = "w1"; vote = Some Core.Types.Yes }

let wal_force n =
  let wal = ref (Engine.Wal.create ()) in
  for i = 1 to n do
    if i land 1023 = 0 then wal := Engine.Wal.create ();
    Engine.Wal.force !wal wal_record
  done

let wal_codec n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Engine.Wal.of_bytes (Engine.Wal.to_bytes wal_record)))
  done

let frame_image =
  lazy
    (let b = Buffer.create 65536 in
     for _ = 1 to 1000 do
       Buffer.add_bytes b (Sim.Disk.Frame.encode (Engine.Wal.to_bytes wal_record))
     done;
     Buffer.to_bytes b)

let frame_scan n =
  let image = Lazy.force frame_image in
  for _ = 1 to n / 1000 do
    ignore (Sys.opaque_identity (Sim.Disk.Frame.scan image))
  done

let kv_record =
  Kv.Kv_wal.P_prepared
    {
      txn = 42;
      coordinator = 1;
      participants = [ 1; 2; 3 ];
      writes = [ ("k17", 5); ("k230", 9) ];
      locks = [ ("k17", Kv.Lock_table.Exclusive); ("k230", Kv.Lock_table.Exclusive); ("k4", Kv.Lock_table.Shared) ];
    }

let kv_wal_force n =
  let wal = ref (Kv.Kv_wal.create ()) in
  for i = 1 to n do
    if i land 1023 = 0 then wal := Kv.Kv_wal.create ();
    Kv.Kv_wal.force !wal kv_record
  done

let kv_wal_codec n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Kv.Kv_wal.of_bytes (Kv.Kv_wal.to_bytes kv_record)))
  done

(* kv-mixed's group commit shape: every eighth submission fills a batch
   and flushes; the straggler timers armed in between are never fired *)
let batch_submit n =
  let b = Sim.Batch.create ~group:{ Sim.Batch.max_batch = 8; max_wait = 0.05 } ~sync:ignore () in
  Sim.Batch.attach b ~schedule:(fun _ _ -> ()) ();
  for _ = 1 to n do
    Sim.Batch.submit b ignore
  done

let lock_cycle n =
  let t = Kv.Lock_table.create () in
  for txn = 1 to n / 2 do
    ignore (Kv.Lock_table.acquire t ~txn ~key:counter_names.(txn land 15) ~mode:Kv.Lock_table.Exclusive);
    ignore (Kv.Lock_table.acquire t ~txn ~key:"shared" ~mode:Kv.Lock_table.Shared);
    Kv.Lock_table.release_all t ~txn
  done

(* packed state codec over real states: the blocked terminals 2PC
   reaches with one crash *)
let packed_states =
  lazy
    (let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
     let r = Engine.Model_check.run { rulebook = rb; max_crashes = 1; limit = 1_000_000; rule = `Skeen } in
     let ctx = Engine.Model_check.Packed.ctx rb in
     let states = Array.of_list r.blocked_terminals in
     (ctx, states, Array.map (Engine.Model_check.Packed.encode ctx) states))

let packed_encode n =
  let ctx, states, _ = Lazy.force packed_states in
  let k = Array.length states in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Engine.Model_check.Packed.encode ctx states.(i mod k)))
  done

let packed_decode n =
  let ctx, _, packed = Lazy.force packed_states in
  let k = Array.length packed in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Engine.Model_check.Packed.decode ctx packed.(i mod k)))
  done

let compile_ms ~scale =
  let p = Core.Catalog.central_3pc (Workloads.check_sites ~scale) in
  1e-6 *. fst (measure ~n:1 (fun _ -> ignore (Sys.opaque_identity (Engine.Rulebook.compile p))))

(** Every micro-loop metric, at [1/scale] of the full operation counts. *)
let run ~scale =
  let n k = max 1000 (k / scale) in
  let ns name (v, _) = [ (name, v) ] in
  let ns_words name words (v, w) = [ (name, v); (words, w) ] in
  let us name (v, _) = [ (name, v /. 1e3) ] in
  List.concat
    [
      ns_words "eventq.push_pop_ns_d16" "eventq.minor_words_per_op" (eventq ~depth:16 ~n:(n 200_000));
      ns "eventq.push_pop_ns_d1k" (eventq ~depth:1024 ~n:(n 200_000));
      ns_words "world.send_deliver_ns" "world.minor_words_per_msg"
        (measure ~n:(n 100_000) (ping ~faulted:false));
      ns "world.send_deliver_faulted_ns" (measure ~n:(n 100_000) (ping ~faulted:true));
      ns "world.timer_fire_ns" (measure ~n:(n 200_000) (timers ~cancel:false));
      ns "world.timer_cancel_ns" (measure ~n:(n 50_000) (timers ~cancel:true));
      ns "metrics.incr_ns" (measure ~n:(n 1_000_000) metrics_incr);
      ns "metrics.observe_ns" (measure ~n:(n 500_000) metrics_observe);
      ns "metrics.gauge_record_ns" (measure ~n:(n 1_000_000) metrics_gauge);
      us "metrics.merge_us" (measure ~n:(n 20_000) metrics_merge);
      ns "wal.force_ns" (measure ~n:(n 200_000) wal_force);
      ns "wal.codec_ns" (measure ~n:(n 200_000) wal_codec);
      ns "disk.frame_scan_ns_per_record" (measure ~n:(n 200_000) frame_scan);
      ns "kv_wal.force_ns" (measure ~n:(n 100_000) kv_wal_force);
      ns "kv_wal.codec_ns" (measure ~n:(n 100_000) kv_wal_codec);
      ns "batch.submit_flush_ns" (measure ~n:(n 500_000) batch_submit);
      ns "lock_table.acquire_release_ns" (measure ~n:(n 200_000) lock_cycle);
      ns "model_check.packed_encode_ns" (measure ~n:(n 100_000) packed_encode);
      ns "model_check.packed_decode_ns" (measure ~n:(n 100_000) packed_decode);
      [ ("rulebook.compile_ms", compile_ms ~scale) ];
    ]
