(** Domain-sharded seed sweeps.

    Seeds are embarrassingly parallel: every run in this tree is a pure
    function of its seed, executing against its own {!World}, its own
    {!Metrics} registry and its own {!Rng} stream — no per-run state is
    ambient.  This module exploits that: a seed range is sharded across
    OCaml 5 domains, each worker pulling the next unclaimed seed from a
    shared atomic cursor, and every result is handed back in seed order.

    Determinism is the contract.  Results are consumed strictly by seed
    offset, so which worker happened to run a seed is unobservable:
    [map ~workers:4] returns exactly what [map ~workers:1] returns, and
    [sweep] merges per-seed {!Metrics} registries in seed order, so the
    merged output is byte-identical whatever the worker count.

    Streaming is the cost model.  A finished seed is consumed as soon as
    every earlier seed has been: with one worker that is the moment it
    ends, with more the calling domain consumes the finished prefix
    between its own seeds and the rest after the joins.  Only the
    out-of-order window of finished-but-unconsumed seeds is ever live.
    [workers = 1] spawns no domain; it is the same loop with no helpers.

    The isolation invariant callers must keep: the sweep function [f]
    must derive everything mutable it touches from [seed] alone.
    Sharing a read-only compiled {!Engine.Rulebook} across workers is
    fine; sharing a metrics registry, a world or an RNG is not. *)

let available_workers () = Domain.recommended_domain_count ()

type 'a slot = Running | Finished of 'a | Consumed

(* Run [run i] for every offset [i] in [0, seeds) and return the array
   of [consume (run i)], calling [consume] on the calling domain in
   offset order, each as soon as its prefix is complete.  A slot is
   published through its own [Atomic], so a helper's write
   happens-before the calling domain's read, and is cleared once
   consumed. *)
let ordered ~workers ~seeds run consume =
  if seeds < 0 then invalid_arg "Sweep.map: seeds must be >= 0";
  if workers < 1 then invalid_arg "Sweep.map: workers must be >= 1";
  let workers = min workers (max 1 seeds) in
  let slots = Array.init seeds (fun _ -> Atomic.make Running) in
  let results = ref [||] in
  let next = Atomic.make 0 in
  let consumed = ref 0 in
  let rec consume_prefix () =
    let i = !consumed in
    if i < seeds then
      match Atomic.get slots.(i) with
      | Finished v ->
          Atomic.set slots.(i) Consumed;
          let r = consume v in
          if i = 0 then results := Array.make seeds r else !results.(i) <- r;
          consumed := i + 1;
          consume_prefix ()
      | Running | Consumed -> ()
  in
  let rec work ~on_caller =
    let i = Atomic.fetch_and_add next 1 in
    if i < seeds then begin
      Atomic.set slots.(i) (Finished (run i));
      if on_caller then consume_prefix ();
      work ~on_caller
    end
  in
  let helper () =
    try work ~on_caller:false
    with e ->
      (* drain the cursor so every worker stops, then surface the failure *)
      Atomic.set next seeds;
      raise e
  in
  let domains = List.init (workers - 1) (fun _ -> Domain.spawn helper) in
  let join_all () =
    List.fold_left
      (fun first d ->
        match Domain.join d with
        | () -> first
        | exception e -> ( match first with None -> Some e | Some _ -> first))
      None domains
  in
  (match work ~on_caller:true with
  | () -> Option.iter raise (join_all ())
  | exception e ->
      Atomic.set next seeds;
      ignore (join_all ());
      raise e);
  consume_prefix ();
  assert (!consumed = seeds);
  !results

let map ?(workers = 1) ?(seed_base = 0) ~seeds (f : seed:int -> 'a) : 'a array =
  ordered ~workers ~seeds (fun i -> f ~seed:(seed_base + i)) Fun.id

let sweep ?(workers = 1) ?(seed_base = 0) ~seeds (f : metrics:Metrics.t -> seed:int -> 'a) =
  (* One fresh registry per seed, timer-drained at run end, merged into
     the accumulator in seed order and dropped: full run isolation with a
     deterministic aggregate, and no registry outlives its merge. *)
  let merged = Metrics.create () in
  let values =
    ordered ~workers ~seeds
      (fun i ->
        let metrics = Metrics.create () in
        let v = f ~metrics ~seed:(seed_base + i) in
        Metrics.drain_timers metrics;
        (v, metrics))
      (fun (v, metrics) ->
        Metrics.merge merged metrics;
        v)
  in
  (values, merged)
