(** Ticket-based group-commit batcher over an abstract sync barrier.

    A WAL [force] is an append plus a sync; under load, syncing once per
    record serializes every committer behind the disk.  The classic fix
    (Gray's group commit) is to let concurrent forces on one device share
    a single barrier: callers enqueue their record's completion callback
    (the "ticket"), one sync covers everything queued, and all covered
    callbacks fire after the barrier completes.

    The batcher is generic over the barrier — it is handed a [sync]
    thunk, not a disk — and {!Log} wires it over each site's
    {!Disk.sync}.  Two orthogonal knobs:

    - [group]: coalesce up to [max_batch] records per sync, waiting at
      most [max_wait] simulated seconds for stragglers when the device
      is idle.  When the device is busy, arrivals accumulate and the
      next batch forms the moment the in-flight sync completes — the
      saturated-disk regime where amortization actually pays.
    - [sync_latency]: simulated seconds per sync.  The real
      {!Sim.Disk.sync} is instantaneous in simulated time; charging a
      latency here is what gives group commit something to amortize and
      what makes the serial one-sync-per-force baseline measurably slow.

    Completion callbacks are scheduled through an injected [schedule]
    thunk (a site-bound {!Sim.World.set_timer} in practice), so pending
    flushes die with the site: a crash inside a batch loses every
    covered record's callback, exactly as a real crash loses an
    un-fsynced tail.  {!crash} additionally drops the queue and bumps a
    generation counter so stale completions can never resurrect.

    Callbacks run strictly in submission order (FIFO across batches), so
    continuation-passing callers keep their force ordering. *)

type group = { max_batch : int; max_wait : float }

type entry = Record of (unit -> unit) | Barrier of (unit -> unit)

type t = {
  sync : unit -> unit;
  group : group option;
  sync_latency : float;
  mutable schedule : (float -> (unit -> unit) -> unit) option;
  mutable on_flush : (batch:int -> unit) option;
  mutable on_drain : (unit -> unit) option;
  queue : entry Queue.t;
  mutable busy : bool;  (** a sync is in flight *)
  mutable due : bool;  (** the [max_wait] timer expired with records still queued *)
  mutable in_flight : int;  (** records submitted whose callback has not yet run *)
  mutable gen : int;  (** bumped on crash: stale completions and timers no-op *)
  mutable arm_id : int;  (** invalidates pending [max_wait] timers after a flush *)
}

let create ?group ?(sync_latency = 0.0) ~sync () =
  (match group with
  | Some { max_batch; max_wait } ->
      if max_batch < 1 then invalid_arg "Batch.create: max_batch must be >= 1";
      if max_wait < 0.0 then invalid_arg "Batch.create: max_wait must be >= 0"
  | None -> ());
  if sync_latency < 0.0 then invalid_arg "Batch.create: sync_latency must be >= 0";
  {
    sync;
    group;
    sync_latency;
    schedule = None;
    on_flush = None;
    on_drain = None;
    queue = Queue.create ();
    busy = false;
    due = false;
    in_flight = 0;
    gen = 0;
    arm_id = 0;
  }

let attach t ~schedule ?on_flush ?on_drain () =
  t.schedule <- Some schedule;
  (match on_flush with Some _ -> t.on_flush <- on_flush | None -> ());
  match on_drain with Some _ -> t.on_drain <- on_drain | None -> ()

let pending t = t.in_flight

let queued_records t =
  Queue.fold (fun acc e -> match e with Record _ -> acc + 1 | Barrier _ -> acc) 0 t.queue

(* Dequeue entries until [n] records have been taken; barriers ride along
   with the batch they are queued behind. *)
let take_batch t n =
  let taken = ref [] and records = ref 0 in
  while (not (Queue.is_empty t.queue)) && !records < n do
    let e = Queue.pop t.queue in
    (match e with Record _ -> incr records | Barrier _ -> ());
    taken := e :: !taken
  done;
  (* trailing barriers directly behind the last record belong to this sync *)
  let rec drain_barriers () =
    match Queue.peek_opt t.queue with
    | Some (Barrier _ as e) ->
        ignore (Queue.pop t.queue);
        taken := e :: !taken;
        drain_barriers ()
    | _ -> ()
  in
  drain_barriers ();
  (List.rev !taken, !records)

let rec pump t =
  if (not t.busy) && not (Queue.is_empty t.queue) then begin
    (* a barrier at the head has nothing queued in front of it: run now *)
    match Queue.peek t.queue with
    | Barrier k ->
        ignore (Queue.pop t.queue);
        k ();
        pump t
    | Record _ -> (
        match t.group with
        | None -> start_flush t 1
        | Some { max_batch; max_wait } ->
            let n = queued_records t in
            if n >= max_batch || t.due then start_flush t max_batch
            else arm_timer t max_wait)
  end

and arm_timer t max_wait =
  match t.schedule with
  | None -> start_flush t max_int (* unattached: degrade to flush-through *)
  | Some schedule ->
      t.arm_id <- t.arm_id + 1;
      let arm = t.arm_id and gen = t.gen in
      schedule max_wait (fun () ->
          if t.gen = gen && t.arm_id = arm && not (Queue.is_empty t.queue) then begin
            t.due <- true;
            pump t
          end)

and start_flush t n =
  let batch, records = take_batch t n in
  t.due <- false;
  t.arm_id <- t.arm_id + 1;
  t.busy <- true;
  let gen = t.gen in
  let complete () =
    if t.gen = gen then begin
      if records > 0 then begin
        t.sync ();
        match t.on_flush with Some f -> f ~batch:records | None -> ()
      end;
      t.busy <- false;
      List.iter
        (fun e ->
          match e with
          | Record k ->
              t.in_flight <- t.in_flight - 1;
              k ()
          | Barrier k -> k ())
        batch;
      (match t.on_drain with Some f -> f () | None -> ());
      pump t
    end
  in
  match t.schedule with
  | Some schedule when t.sync_latency > 0.0 -> schedule t.sync_latency complete
  | _ -> complete ()

let submit t k =
  match t.schedule with
  | None when t.sync_latency > 0.0 || t.group <> None ->
      (* not yet attached to a scheduler (e.g. startup records): stay
         synchronous so nothing is ever silently deferred forever *)
      t.sync ();
      k ()
  | _ ->
      t.in_flight <- t.in_flight + 1;
      Queue.push (Record k) t.queue;
      pump t

let barrier t k =
  if t.in_flight = 0 && Queue.is_empty t.queue then k ()
  else begin
    Queue.push (Barrier k) t.queue;
    pump t
  end

(** Synchronous flush-through for callers that need the old blocking
    [force]: everything queued becomes durable now and its callbacks run
    now, in order.  An in-flight batch keeps its own (already captured)
    callbacks and completes on its own schedule. *)
let flush_now t =
  let drained = ref [] in
  Queue.iter (fun e -> drained := e :: !drained) t.queue;
  Queue.clear t.queue;
  t.due <- false;
  t.arm_id <- t.arm_id + 1;
  t.sync ();
  List.iter
    (fun e ->
      match e with
      | Record k ->
          t.in_flight <- t.in_flight - 1;
          k ()
      | Barrier k -> k ())
    (List.rev !drained)

(** Crash semantics: every queued record and callback is lost (the
    covered transactions never learn their force completed), in-flight
    completions are fenced off by the generation bump. *)
let crash t =
  t.gen <- t.gen + 1;
  t.arm_id <- t.arm_id + 1;
  Queue.clear t.queue;
  t.busy <- false;
  t.due <- false;
  t.in_flight <- 0
