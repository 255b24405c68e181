(** Running one workload: set-up, warm-up, timed batches, output checks,
    and the metrics the ledger reports for it.

    An untraced run reports the end-to-end metrics.  A traced run
    alternates an untraced and a traced batch over the same inputs
    (swapping which goes first), checks that their digests agree, and
    reports the per-layer metrics of the layers the workload drives.  A
    [`All] traced run also fills in every other per-layer metric, each
    tagged with where it was measured: one traced probe batch of the
    metric's home workload, or {!Micro}. *)

module W = Workloads
module J = Sim.Json

(** The end-to-end metrics.  The three host-time ones have a regression
    [bound], the share by which the median may worsen; [compare] applies
    it where a row's spread allows.  BENCHMARK.json holds a wider bound
    per metric for the benchmark as a whole, set by the noisiest
    workload.  The rest are deterministic and must repeat exactly
    ([exact]); the [sim_] ones exist on kv-mixed only. *)
type e2e = { e_name : string; e_unit : string; higher_better : bool; exact : bool; bound : float }

let e2e_metrics =
  let m ?(higher_better = false) ?bound e_name e_unit =
    { e_name; e_unit; higher_better; exact = bound = None; bound = Option.value ~default:0.0 bound }
  in
  [
    m "setup_s" "s" ~bound:0.20;
    m "items_per_s" "items/s" ~bound:0.10 ~higher_better:true;
    m "peak_heap_mb" "MB" ~bound:0.05;
    m "failed_share" "ratio";
    m "sim_commit_p50_s" "sim_s";
    m "sim_commit_p99_s" "sim_s";
    m "sim_msgs_per_txn" "msgs";
    m "sim_forces_per_commit" "forces";
  ]

(** Every per-layer metric a traced run reports, with its unit. *)
let layer_metrics =
  [
    ("sweep.self_us_per_seed", "us");
    ("sweep.merge_us_per_seed", "us");
    ("sweep.retained_mb", "MB");
    ("nemesis.generate_us", "us");
    ("failure_plan.of_schedule_us", "us");
    ("runtime.run_us", "us");
    ("runtime.minor_words_per_run", "words");
    ("runtime.events_per_run", "count");
    ("runtime.messages_per_run", "count");
    ("runtime.timer_events_per_run", "count");
    ("runtime.wal_forces_per_run", "count");
    ("runtime.queue_depth_hwm", "count");
    ("chaos.oracles_us", "us");
    ("chaos.fingerprint_us", "us");
    ("eventq.push_pop_ns_d16", "ns");
    ("eventq.push_pop_ns_d1k", "ns");
    ("eventq.minor_words_per_op", "words");
    ("world.send_deliver_ns", "ns");
    ("world.send_deliver_faulted_ns", "ns");
    ("world.timer_fire_ns", "ns");
    ("world.timer_cancel_ns", "ns");
    ("world.minor_words_per_msg", "words");
    ("world.est_share", "ratio");
    ("metrics.incr_ns", "ns");
    ("metrics.observe_ns", "ns");
    ("metrics.gauge_record_ns", "ns");
    ("metrics.merge_us", "us");
    ("wal.force_ns", "ns");
    ("wal.codec_ns", "ns");
    ("disk.frame_scan_ns_per_record", "ns");
    ("kv.db_run_us_per_txn", "us");
    ("kv.minor_words_per_txn", "words");
    ("kv.msgs_per_txn", "msgs");
    ("kv.forces_per_commit", "forces");
    ("kv.group_flushes_per_commit", "count");
    ("kv.deadlock_aborts", "count");
    ("kv.sim_lock_wait_p50_s", "sim_s");
    ("kv.sim_vote_phase_p50_s", "sim_s");
    ("kv.sim_decision_phase_p50_s", "sim_s");
    ("kv.sim_group_batch_mean", "count");
    ("kv.sim_commit_p50_s", "sim_s");
    ("kv.sim_commit_p99_s", "sim_s");
    ("kv.workload_gen_ms", "ms");
    ("lock_table.acquire_release_ns", "ns");
    ("kv_wal.force_ns", "ns");
    ("kv_wal.codec_ns", "ns");
    ("batch.submit_flush_ns", "ns");
    ("kv_chaos.run_one_us", "us");
    ("kv_chaos.minor_words_per_seed", "words");
    ("rulebook.compile_ms", "ms");
    ("model_check.states", "count");
    ("model_check.minor_words_per_state", "words");
    ("model_check.packed_encode_ns", "ns");
    ("model_check.packed_decode_ns", "ns");
    ("explore.self_us_per_run", "us");
    ("explore.harness_run_us", "us");
    ("explore.shrink_runs", "count");
    ("explore.corpus_size", "count");
    ("explore.coverage_edges", "count");
    ("coverage.add_novel_us", "us");
    ("gc.minor_words_per_item", "words");
    ("gc.major_collections_per_batch", "count");
    ("trace.overhead", "ratio");
    ("trace.self_coverage", "ratio");
  ]

(* Each per-layer metric's home: the workload whose traced batches
   measure it where it matters most (sweep retention on the short chaos
   runs, the event loop on the detector runs).  Other workloads may
   drive the same layer and report it too.  [world.est_share] derives
   from the [runtime.] figures and the micro-loops; the remaining
   metrics come from {!Micro}, except the [gc.] and [trace.] ones, which
   every workload reports. *)
let homes =
  [
    ("sweep.", "chaos-oracle");
    ("nemesis.", "chaos-oracle");
    ("failure_plan.", "chaos-oracle");
    ("chaos.", "chaos-oracle");
    ("runtime.", "chaos-detector");
    ("kv_chaos.", "kv-chaos");
    ("kv.", "kv-mixed");
    ("model_check.states", "check-3pc");
    ("model_check.minor_words_per_state", "check-3pc");
    ("explore.", "explore-guided");
    ("coverage.", "explore-guided");
  ]

let home m = List.find_map (fun (prefix, w) -> if String.starts_with ~prefix m then Some w else None) homes
let every_workload m = String.starts_with ~prefix:"gc." m || String.starts_with ~prefix:"trace." m

(* Metric <- (span, how the span's totals become the metric). *)
let span_metrics =
  [
    ("sweep.self_us_per_seed", "sweep", `Self_us_per_item);
    ("nemesis.generate_us", "nemesis.generate", `Mean_us);
    ("failure_plan.of_schedule_us", "failure_plan.of_schedule", `Mean_us);
    ("runtime.run_us", "runtime.run", `Mean_us);
    ("runtime.minor_words_per_run", "runtime.run", `Words_per_call);
    ("chaos.oracles_us", "chaos.violations_of", `Mean_us);
    ("kv_chaos.run_one_us", "kv_chaos.run_one", `Mean_us);
    ("kv_chaos.minor_words_per_seed", "kv_chaos.run_one", `Words_per_call);
    ("kv.db_run_us_per_txn", "kv.db_run", `Total_us_per_item);
    ("kv.minor_words_per_txn", "kv.db_run", `Words_per_item);
    ("model_check.minor_words_per_state", "model_check.run", `Words_per_item);
    ("explore.self_us_per_run", "explore.search", `Self_us_per_item);
    ("explore.harness_run_us", "explore.harness_run", `Mean_us);
  ]

let median = Micro.median

(** First quartile, median, third quartile — the quartiles exactly as
    Python's [statistics.quantiles(values, n=4)] computes them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(** Medians per key over several [(key, value)] lists. *)
let median_by_key lists =
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) lists) in
  List.map (fun k -> (k, median (List.filter_map (List.assoc_opt k) lists))) keys

let derive_from_spans stats ~items =
  List.filter_map
    (fun (metric, span, how) ->
      Option.map
        (fun (s : Span.stat) ->
          let per n x = x /. float_of_int (max 1 n) in
          ( metric,
            match how with
            | `Mean_us -> per s.calls (float_of_int s.total_ns /. 1e3)
            | `Words_per_call -> per s.calls s.words
            | `Self_us_per_item -> per items (float_of_int s.self_ns /. 1e3)
            | `Total_us_per_item -> per items (float_of_int s.total_ns /. 1e3)
            | `Words_per_item -> per items s.words ))
        (List.assoc_opt span stats))
    span_metrics

type result = {
  workload : string;
  seed : int;
  seconds : float;
  scale : int;
  traced : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** empty iff every output check passed *)
  digest : string;  (** batch 0's *)
  e2e : (string * float) list;
  layers : (string * float) list;
  sources : (string * string) list;
      (** where each per-layer metric not measured on this workload came
          from: its home workload, or ["micro"] *)
  shares : (string * float) list;  (** self-time share per span name *)
  batch_rates : float list;  (** corrected items/s of each untraced timed batch *)
  raw_items_per_s : float;  (** median uncorrected batch rate *)
  host_slowdown : float;  (** median slowdown around the untraced batches *)
}

let correct r = r.problems = []

(* Batch indices: timed batches count up from 0, the warm-up uses its own
   inputs.  The first [pinned_batches] always run, so the deterministic
   metrics read from them, and the peak heap read after them, repeat
   exactly whatever the host's speed.  (OCaml 5.1 does not compact, so
   the heap ratchets up batch by batch; a peak read after however many
   batches fit in the time would grow as the program got faster.  By
   the eighth batch the kv workloads' heaps have levelled off.) *)
let warmup_index = 99
let max_batches = 90
let pinned_batches = 8
let setup_reps = 5

(* Every timed interval starts from a collected heap, so one batch's
   garbage is never charged to the next.  The host's reference kernel
   runs after each interval; the mean of its slowdown before and after
   an interval corrects that interval's wall time to the quiet host's
   speed. *)
let slowdown_after_last = ref Float.nan

let timed f =
  Gc.full_major ();
  if Float.is_nan !slowdown_after_last then slowdown_after_last := Span.host_slowdown ();
  let before = !slowdown_after_last in
  let t0 = Span.now () in
  let v = f () in
  let dt = Span.seconds_since t0 in
  slowdown_after_last := Span.host_slowdown ();
  (v, dt, (before +. !slowdown_after_last) /. 2.0)

(** Set-up, [setup_reps] times: compile what batches share, then one
    untimed warm-up batch at a quarter size.  Returns the median
    corrected set-up time and the first set-up's batch generator. *)
let setup (w : W.t) ~seed ~scale =
  let runs =
    List.init setup_reps (fun _ ->
        timed (fun () ->
            let prepare = w.setup ~seed ~scale in
            ignore (prepare ~index:warmup_index ~warmup:true ~traced:false);
            prepare))
  in
  let prepare, _, _ = List.hd runs in
  (median (List.map (fun (_, dt, slow) -> dt /. slow) runs), prepare)

(** One traced batch of a home workload, for a traced run of a workload
    that does not drive all of its layers. *)
let probe (w : W.t) ~seed ~scale =
  let prepare = w.setup ~seed ~scale in
  let batch = prepare ~index:0 ~warmup:false in
  Span.reset ~capacity:(1 lsl 16);
  let o = Span.record (fun () -> batch ~traced:true) in
  (derive_from_spans (Span.stats ()) ~items:o.items @ o.analyse (), o.problems)

(** How much of a run's event-loop time the micro-loops account for:
    messages × send/deliver + timer events × timer fire, over run time. *)
let est_share get =
  ((get "runtime.messages_per_run" *. get "world.send_deliver_ns")
  +. (get "runtime.timer_events_per_run" *. get "world.timer_fire_ns"))
  /. (1e3 *. get "runtime.run_us")

(* Every per-layer metric [own] lacks, tagged with its source: from one
   traced batch of each missing metric's home workload, and from the
   micro-loops.  The probes run after the workload's own batches, so
   they cannot touch its figures. *)
let fill_in ~seed ~scale ~problem own =
  let missing m = not (List.mem_assoc m own) in
  let probed =
    List.filter_map (fun (m, _) -> if missing m then home m else None) layer_metrics
    |> List.sort_uniq compare
    |> List.concat_map (fun h ->
           let got, ps = probe (Option.get (W.find h)) ~seed ~scale in
           List.iter problem ps;
           List.filter_map (fun (m, v) -> if missing m && home m = Some h then Some (m, (v, h)) else None) got)
  in
  let layers = own @ probed @ List.map (fun (m, v) -> (m, (v, "micro"))) (Micro.run ~scale) in
  let get m = match List.assoc_opt m layers with Some (v, _) -> v | None -> 0.0 in
  let run_source = match List.assoc_opt "runtime.run_us" layers with Some (_, s) -> s | None -> "" in
  ("world.est_share", (est_share get, run_source)) :: layers

(** Run [w]'s timed batches for at least [seconds].  When traced, the
    spans go to [out/<workload>.spans.jsonl] and the result carries the
    per-layer metrics of the layers [w] drives ([`Own]), or every
    per-layer metric ([`All]). *)
let run (w : W.t) ~seed ~seconds ~scale ~(trace : [ `Off | `Own | `All ]) ~out =
  let traced = trace <> `Off in
  let setup_s, prepare = setup w ~seed ~scale in
  let problems = ref [] and digest0 = ref "" in
  let problem p = if not (List.mem p !problems) then problems := p :: !problems in
  let attempted = ref 0 and failed = ref 0 in
  let rates = ref [] and raw_rates = ref [] and slowdowns = ref [] in
  let traced_rates = ref [] and traced_wall = ref 0.0 and traced_items = ref 0 in
  let pinned = ref [] and analysed = ref [] and gc_rows = ref [] and peak_heap_words = ref 0 in
  (* the span buffer would count in an untraced run's peak heap *)
  if traced then Span.reset ~capacity:(1 lsl 18);
  let untraced batch =
    let s0 = Gc.quick_stat () in
    let o, dt, slow = timed (fun () -> batch ~traced:false) in
    let s1 = Gc.quick_stat () in
    let raw = float_of_int o.W.items /. dt in
    rates := (raw *. slow) :: !rates;
    raw_rates := raw :: !raw_rates;
    slowdowns := slow :: !slowdowns;
    gc_rows :=
      [
        ("gc.minor_words_per_item", (s1.minor_words -. s0.minor_words) /. float_of_int (max 1 o.items));
        ("gc.major_collections_per_batch", float_of_int (s1.major_collections - s0.major_collections));
      ]
      :: !gc_rows;
    o
  in
  let traced_batch batch =
    let o, dt, slow = timed (fun () -> Span.record (fun () -> batch ~traced:true)) in
    traced_rates := (float_of_int o.W.items /. dt *. slow) :: !traced_rates;
    traced_wall := !traced_wall +. dt;
    traced_items := !traced_items + o.items;
    analysed := o.analyse () :: !analysed;
    o
  in
  let t_start = Span.now () in
  let index = ref 0 in
  while !index < max_batches && (!index < pinned_batches || Span.seconds_since t_start < seconds) do
    let i = !index in
    let batch = prepare ~index:i ~warmup:false in
    let outs =
      if not traced then [ untraced batch ]
      else if i mod 2 = 0 then
        let u = untraced batch in
        [ u; traced_batch batch ]
      else
        let t = traced_batch batch in
        [ untraced batch; t ]
    in
    let o = List.hd outs in
    List.iter (fun (x : W.outcome) -> List.iter problem x.problems) outs;
    if List.exists (fun (x : W.outcome) -> x.digest <> o.digest) outs then
      problem (Printf.sprintf "batch %d: traced digest differs from untraced" i);
    if i = 0 then begin
      digest0 := o.digest;
      match Golden.lookup ~workload:w.name ~scale with
      | Some g when seed = 0 && g <> o.digest ->
          problem (Printf.sprintf "seed-0 golden digest mismatch: expected %S, got %S" g o.digest)
      | _ -> ()
    end;
    (* only the numbers: a whole outcome would keep the batch's results
       alive and into the peak heap *)
    if i < pinned_batches then pinned := (o.items, o.failed, o.exact) :: !pinned;
    if i = pinned_batches - 1 then peak_heap_words := (Gc.quick_stat ()).top_heap_words;
    attempted := !attempted + o.items;
    failed := !failed + o.failed;
    incr index
  done;
  let peak_heap_mb = float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let sum f = List.fold_left (fun a p -> a + f p) 0 !pinned in
  let e2e =
    [
      ("setup_s", setup_s);
      ("items_per_s", median !rates);
      ("peak_heap_mb", peak_heap_mb);
      ( "failed_share",
        float_of_int (sum (fun (_, f, _) -> f)) /. float_of_int (max 1 (sum (fun (n, _, _) -> n))) );
    ]
    @ median_by_key (List.map (fun (_, _, exact) -> exact) !pinned)
  in
  let layers, shares =
    if not traced then ([], [])
    else begin
      let stats = Span.stats () in
      Span.write_jsonl (Filename.concat out (w.name ^ ".spans.jsonl"));
      let span_ns = List.fold_left (fun a (_, (s : Span.stat)) -> a + s.self_ns) 0 stats in
      let own =
        derive_from_spans stats ~items:!traced_items
        @ median_by_key !analysed @ median_by_key !gc_rows
        @ [
            ("trace.overhead", (median !rates /. median !traced_rates) -. 1.0);
            ("trace.self_coverage", float_of_int span_ns /. 1e9 /. !traced_wall);
          ]
        |> List.map (fun (m, v) -> (m, (v, w.name)))
      in
      let layers = if trace = `All then fill_in ~seed ~scale ~problem own else own in
      let shares =
        List.map (fun (n, (s : Span.stat)) -> (n, float_of_int s.self_ns /. float_of_int (max 1 span_ns))) stats
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      List.iter
        (fun (m, _) ->
          let expected = trace = `All || every_workload m || home m = Some w.name in
          if expected && not (List.mem_assoc m layers) then problem ("per-layer metric missing: " ^ m))
        layer_metrics;
      (List.filter_map (fun (m, _) -> Option.map (fun v -> (m, v)) (List.assoc_opt m layers)) layer_metrics, shares)
    end
  in
  {
    workload = w.name;
    seed;
    seconds;
    scale;
    traced;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    digest = !digest0;
    e2e;
    layers = List.map (fun (m, (v, _)) -> (m, v)) layers;
    sources = List.filter_map (fun (m, (_, s)) -> if s = w.name then None else Some (m, s)) layers;
    shares;
    batch_rates = List.rev !rates;
    raw_items_per_s = median !raw_rates;
    host_slowdown = median !slowdowns;
  }

(* ---------------- records ---------------- *)

let unit_of name =
  match List.find_opt (fun e -> e.e_name = name) e2e_metrics with
  | Some e -> e.e_unit
  | None -> Option.value ~default:"" (List.assoc_opt name layer_metrics)

let num v = J.Float (if Float.is_finite v then v else 0.0)

let metric_obj ?(source = fun _ -> None) kvs =
  J.Obj
    (List.map
       (fun (k, v) ->
         let src = match source k with Some s -> [ ("source", J.Str s) ] | None -> [] in
         (k, J.Obj ([ ("value", num v); ("unit", J.Str (unit_of k)) ] @ src)))
       kvs)

let source_of r m = Option.value ~default:r.workload (List.assoc_opt m r.sources)

(** The per-layer table of a set of [`Own] traced records: each metric
    from its home workload's record, the micro-loop figures from [micro],
    and [world.est_share] from both, with the source of each.  The [gc.]
    and [trace.] metrics stay in each workload's own record. *)
let merge records micro =
  let from w m = Option.bind (List.find_opt (fun r -> r.workload = w) records) (fun r -> List.assoc_opt m r.layers) in
  let get m = Option.value ~default:0.0 (match home m with Some h -> from h m | None -> List.assoc_opt m micro) in
  let runtime_home = Option.get (home "runtime.run_us") in
  List.filter_map
    (fun (m, _) ->
      if every_workload m then None
      else if m = "world.est_share" then
        Option.map (fun _ -> (m, (est_share get, runtime_home))) (from runtime_home "runtime.run_us")
      else
        match home m with
        | Some h -> Option.map (fun v -> (m, (v, h))) (from h m)
        | None -> Option.map (fun v -> (m, (v, "micro"))) (List.assoc_opt m micro))
    layer_metrics

let to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("seconds", J.Float r.seconds);
      ("scale", J.Int r.scale);
      ("traced", J.Bool r.traced);
      ("correct", J.Bool (r.problems = []));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("problems", J.List (List.map (fun p -> J.Str p) r.problems));
      ("digest", J.Str r.digest);
      ("metrics", metric_obj r.e2e);
      ("layers", metric_obj ~source:(fun m -> Some (source_of r m)) r.layers);
      ("shares", J.Obj (List.map (fun (k, v) -> (k, num v)) r.shares));
      ("batch_rates", J.List (List.map num r.batch_rates));
      ("raw_items_per_s", num r.raw_items_per_s);
      ("host_slowdown", num r.host_slowdown);
    ]

exception Bad_record of string

let of_json j =
  let field k = match J.member k j with Some v -> v | None -> raise (Bad_record ("missing " ^ k)) in
  let str = function J.Str s -> s | _ -> raise (Bad_record "expected a string") in
  let int = function J.Int i -> i | _ -> raise (Bad_record "expected an integer") in
  let float v = match J.to_float_opt v with Some f -> f | None -> raise (Bad_record "expected a number") in
  let metrics = function
    | J.Obj kvs ->
        List.map
          (fun (k, v) -> (k, float (match J.member "value" v with Some x -> x | None -> raise (Bad_record k))))
          kvs
    | _ -> raise (Bad_record "expected a metrics object")
  in
  let workload = str (field "workload") in
  let sources =
    match field "layers" with
    | J.Obj kvs ->
        List.filter_map
          (fun (k, v) -> match J.member "source" v with Some (J.Str s) when s <> workload -> Some (k, s) | _ -> None)
          kvs
    | _ -> []
  in
  {
    workload;
    seed = int (field "seed");
    seconds = float (field "seconds");
    scale = int (field "scale");
    traced = field "traced" = J.Bool true;
    attempted = int (field "attempted");
    failed = int (field "failed");
    problems = (match field "problems" with J.List ps -> List.map str ps | _ -> []);
    digest = str (field "digest");
    e2e = metrics (field "metrics");
    layers = metrics (field "layers");
    sources;
    shares = (match field "shares" with J.Obj kvs -> List.map (fun (k, v) -> (k, float v)) kvs | _ -> []);
    batch_rates = (match field "batch_rates" with J.List xs -> List.map float xs | _ -> []);
    raw_items_per_s = float (field "raw_items_per_s");
    host_slowdown = float (field "host_slowdown");
  }
