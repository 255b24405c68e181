(** Tests for {!Sim.Metrics}: the geometric-bucket histograms behind the
    observability layer — bucket boundaries, percentile accuracy against
    a sorted-sample oracle, JSON export round-trips, and determinism. *)

module M = Sim.Metrics
module J = Sim.Json

(* ---------------- bucket layout ---------------- *)

let test_bucket_boundaries () =
  Alcotest.(check int) "zero -> bucket 0" 0 (M.bucket_index 0.0);
  Alcotest.(check int) "negative -> bucket 0" 0 (M.bucket_index (-3.0));
  Alcotest.(check int) "tiny -> bucket 0" 0 (M.bucket_index 1e-9);
  Alcotest.(check int) "nan -> bucket 0" 0 (M.bucket_index Float.nan);
  Alcotest.(check int) "huge -> last bucket" (M.n_buckets - 1) (M.bucket_index 1e30);
  Alcotest.(check int) "infinity -> last bucket" (M.n_buckets - 1)
    (M.bucket_index Float.infinity);
  (* a value on a bucket's lower boundary belongs to that bucket
     ([lower, upper) intervals), and interior points stay inside *)
  for i = 1 to M.n_buckets - 2 do
    let lo = M.bucket_lower i and hi = M.bucket_upper i in
    Alcotest.(check bool) (Fmt.str "bucket %d lower < upper" i) true (lo < hi);
    Alcotest.(check int) (Fmt.str "lower boundary of bucket %d" i) i (M.bucket_index lo);
    let mid = Float.sqrt (lo *. hi) in
    Alcotest.(check int) (Fmt.str "midpoint of bucket %d" i) i (M.bucket_index mid)
  done;
  (* buckets tile the positive axis: upper(i) = lower(i+1) *)
  for i = 0 to M.n_buckets - 3 do
    Alcotest.(check (float 1e-12))
      (Fmt.str "upper %d = lower %d" i (i + 1))
      (M.bucket_upper i) (M.bucket_lower (i + 1))
  done

let test_bucket_index_monotone () =
  let rng = Sim.Rng.create ~seed:7 in
  let values =
    List.init 2_000 (fun _ -> Sim.Rng.float rng 2.0e6) |> List.sort compare
  in
  let _ =
    List.fold_left
      (fun prev v ->
        let i = M.bucket_index v in
        Alcotest.(check bool) "bucket index nondecreasing" true (i >= prev);
        i)
      0 values
  in
  ()

(* The bucket bounds come from a table built once; every entry, and the
   out-of-range results, must be bit-identical to the formula, and
   [bucket_index] must agree with the version that evaluated the formula
   on every call. *)
let formula_upper i = if i >= 95 then Float.infinity else 1e-3 *. (1.25 ** float_of_int i)
let formula_lower i = if i <= 0 then 0.0 else 1e-3 *. (1.25 ** float_of_int (i - 1))

let formula_index v =
  if not (v > 0.0) || v < 1e-3 then 0
  else if not (Float.is_finite v) then 95
  else
    let i = 1 + int_of_float (Float.log (v /. 1e-3) /. Float.log 1.25) in
    let i = if i >= 1 && v < formula_lower i then i - 1 else i in
    let i = if v >= formula_upper i then i + 1 else i in
    if i < 0 then 0 else if i > 95 then 95 else i

let test_bucket_table_bit_identical () =
  Alcotest.(check int) "96 buckets" 96 M.n_buckets;
  let bits = Int64.bits_of_float in
  for i = -3 to M.n_buckets + 3 do
    Alcotest.(check int64) (Fmt.str "upper %d" i) (bits (formula_upper i)) (bits (M.bucket_upper i));
    Alcotest.(check int64) (Fmt.str "lower %d" i) (bits (formula_lower i)) (bits (M.bucket_lower i))
  done;
  let sweep = ref [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity; 1e-300; 1e30; Float.max_float ] in
  for i = 0 to M.n_buckets + 2 do
    List.iter
      (fun b -> if Float.is_finite b then sweep := Float.pred b :: b :: Float.succ b :: !sweep)
      [ formula_lower i; formula_upper i ]
  done;
  let rng = Sim.Rng.create ~seed:11 in
  for _ = 1 to 5_000 do
    sweep := (1e-4 *. (10.0 ** Sim.Rng.float rng 11.0)) :: !sweep
  done;
  List.iter
    (fun v -> Alcotest.(check int) (Fmt.str "bucket_index %h" v) (formula_index v) (M.bucket_index v))
    !sweep

(* ---------------- summaries and percentiles ---------------- *)

let test_summary_exact_fields () =
  let m = M.create () in
  List.iter (M.observe m "x") [ 3.0; 1.0; 2.0; 10.0 ];
  match M.summarize m "x" with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check int) "count" 4 s.M.count;
      Alcotest.(check (float 1e-9)) "total" 16.0 s.M.total;
      Alcotest.(check (float 1e-9)) "mean" 4.0 s.M.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.M.min;
      Alcotest.(check (float 1e-9)) "max" 10.0 s.M.max

let test_percentile_against_oracle () =
  (* percentiles interpolated from geometric buckets must land within one
     bucket width (a factor of 1.25) of the exact sorted-sample value *)
  let rng = Sim.Rng.create ~seed:42 in
  let n = 5_000 in
  let values = List.init n (fun _ -> 0.001 +. Sim.Rng.float rng 1000.0) in
  let m = M.create () in
  List.iter (M.observe m "lat") values;
  let sorted = Array.of_list (List.sort compare values) in
  let oracle p =
    let rank = int_of_float (Float.round (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  in
  List.iter
    (fun p ->
      match M.percentile m "lat" p with
      | None -> Alcotest.fail "expected a percentile"
      | Some est ->
          let exact = oracle p in
          let ratio = est /. exact in
          Alcotest.(check bool)
            (Fmt.str "p%.0f estimate %.4f within a bucket of exact %.4f" p est exact)
            true
            (ratio > 1.0 /. 1.3 && ratio < 1.3))
    [ 50.0; 90.0; 99.0 ];
  (* edge percentiles are exact: tracked min/max *)
  Alcotest.(check (option (float 1e-9))) "p0 = min" (Some sorted.(0)) (M.percentile m "lat" 0.0);
  Alcotest.(check (option (float 1e-9)))
    "p100 = max"
    (Some sorted.(n - 1))
    (M.percentile m "lat" 100.0)

let test_percentiles_ordered () =
  let m = M.create () in
  let rng = Sim.Rng.create ~seed:9 in
  List.iter (fun _ -> M.observe m "d" (Sim.Rng.exponential rng ~mean:5.0)) (List.init 1000 Fun.id);
  match M.summarize m "d" with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check bool) "min <= p50" true (s.M.min <= s.M.p50);
      Alcotest.(check bool) "p50 <= p90" true (s.M.p50 <= s.M.p90);
      Alcotest.(check bool) "p90 <= p99" true (s.M.p90 <= s.M.p99);
      Alcotest.(check bool) "p99 <= max" true (s.M.p99 <= s.M.max)

(* ---------------- counters, gauges, timers ---------------- *)

let test_counters_and_gauges () =
  let m = M.create () in
  M.incr m "a";
  M.incr ~by:4 m "a";
  M.incr m "b";
  Alcotest.(check int) "a" 5 (M.counter m "a");
  Alcotest.(check int) "b" 1 (M.counter m "b");
  Alcotest.(check int) "unknown counter" 0 (M.counter m "nope");
  M.gauge_max m "depth" 3;
  M.gauge_max m "depth" 9;
  M.gauge_max m "depth" 5;
  Alcotest.(check int) "gauge keeps max" 9 (M.gauge m "depth");
  Alcotest.(check (list (pair string int))) "counters sorted" [ ("a", 5); ("b", 1) ] (M.counters m)

let test_timers () =
  let m = M.create () in
  M.timer_start m (M.label "op") ~key:1 ~at:10.0;
  M.timer_start m (M.label "op") ~key:2 ~at:11.0;
  M.timer_stop m (M.label "op") ~key:2 ~at:14.0;
  M.timer_stop m (M.label "op") ~key:1 ~at:12.0;
  M.timer_stop m (M.label "op") ~key:3 ~at:99.0;
  (* no matching start: ignored *)
  M.timer_start m (M.label "op") ~key:4 ~at:0.0;
  M.timer_discard m (M.label "op") ~key:4;
  M.timer_stop m (M.label "op") ~key:4 ~at:50.0;
  (* discarded: ignored *)
  match M.summarize m "op" with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check int) "two completed timers" 2 s.M.count;
      Alcotest.(check (float 1e-9)) "total elapsed" 5.0 s.M.total;
      Alcotest.(check (float 1e-9)) "min elapsed" 2.0 s.M.min;
      Alcotest.(check (float 1e-9)) "max elapsed" 3.0 s.M.max

(* ---------------- JSON ---------------- *)

let test_json_roundtrip () =
  let m = M.create () in
  M.incr ~by:7 m "msgs";
  M.gauge_max m "queue" 12;
  let rng = Sim.Rng.create ~seed:3 in
  List.iter (fun _ -> M.observe m "lat" (Sim.Rng.float rng 50.0)) (List.init 500 Fun.id);
  let j = M.to_json m in
  let s = J.to_string j in
  let j' = J.of_string s in
  (* canonical after one round trip: parse(print(j)) prints identically *)
  Alcotest.(check string) "fixed point" s (J.to_string j');
  (* spot-check structure through the parsed tree *)
  Alcotest.(check (option (float 0.0)))
    "counter preserved" (Some 7.0)
    Option.(bind (J.member "counters" j') (J.member "msgs") |> fun o -> bind o J.to_float_opt);
  Alcotest.(check (option (float 0.0)))
    "gauge preserved" (Some 12.0)
    Option.(bind (J.member "gauges" j') (J.member "queue") |> fun o -> bind o J.to_float_opt);
  let hist =
    Option.bind (J.member "histograms" j') (J.member "lat")
  in
  Alcotest.(check (option (float 0.0)))
    "histogram count preserved" (Some 500.0)
    Option.(bind hist (J.member "count") |> fun o -> bind o J.to_float_opt);
  (match Option.bind hist (J.member "buckets") with
  | Some (J.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "expected non-empty buckets list");
  (* NaN and infinities degrade to null, not invalid JSON *)
  Alcotest.(check string)
    "non-finite -> null" "[null,null,null]"
    (J.to_string (J.List [ J.Float Float.nan; J.Float Float.infinity; J.Float Float.neg_infinity ]))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.fail (Fmt.str "expected parse error on %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_run_deterministic () =
  (* the full metrics snapshot of a simulated run is a pure function of
     the seed: byte-identical JSON across runs *)
  let snapshot () =
    let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
    let plan =
      Engine.Failure_plan.crash_at_step ~site:1 ~step:2 ~mode:(Engine.Failure_plan.After_logging 0)
    in
    let r = Engine.Runtime.run (Engine.Runtime.config ~plan ~seed:5 rb) in
    J.to_string (Sim.Metrics.to_json r.Engine.Runtime.run_metrics)
  in
  Alcotest.(check string) "same seed, same metrics" (snapshot ()) (snapshot ())

(* ---------------- merge, drain, wall filtering ---------------- *)

let hist_names = [| "lat"; "dur"; "q" |]

type op = Obs of int * float | Incr of int * int | Gauge of int * int

let gen_ops =
  let open QCheck2.Gen in
  let gen_op =
    oneof
      [
        map2 (fun i v -> Obs (i, v)) (int_range 0 2) (float_range 0.0005 5000.0);
        map2 (fun i n -> Incr (i, n)) (int_range 0 2) (int_range 1 5);
        map2 (fun i n -> Gauge (i, n)) (int_range 0 2) (int_range 0 100);
      ]
  in
  pair (list_size (int_range 0 400) gen_op) (int_range 1 5)

let apply m = function
  | Obs (i, v) -> M.observe m hist_names.(i) v
  | Incr (i, n) -> M.incr ~by:n m ("c_" ^ hist_names.(i))
  | Gauge (i, n) -> M.gauge_max m ("g_" ^ hist_names.(i)) n

let buckets_of m name =
  Option.bind (J.member "histograms" (M.to_json m)) (J.member name)
  |> Fun.flip Option.bind (J.member "buckets")
  |> Option.map J.to_string

(* Sharding a stream of updates K ways and merging must be observably
   equivalent to applying the stream to one registry: counters and gauges
   exact, histogram bucket arrays / count / min / max exact — hence
   identical percentiles — and totals equal up to float reassociation. *)
let prop_merge_equals_single =
  Helpers.qtest ~count:150 "merge: K-way sharded registries = the single run" gen_ops
    (fun (ops, k) ->
      let single = M.create () in
      List.iter (apply single) ops;
      let shards = Array.init k (fun _ -> M.create ()) in
      List.iteri (fun ix op -> apply shards.(ix mod k) op) ops;
      let merged = M.merge_all (Array.to_list shards) in
      M.counters merged = M.counters single
      && Array.for_all
           (fun name -> M.gauge merged ("g_" ^ name) = M.gauge single ("g_" ^ name))
           hist_names
      && Array.for_all
           (fun name ->
             buckets_of merged name = buckets_of single name
             &&
             match (M.summarize merged name, M.summarize single name) with
             | None, None -> true
             | Some a, Some b ->
                 a.M.count = b.M.count && a.M.min = b.M.min && a.M.max = b.M.max
                 && a.M.p50 = b.M.p50 && a.M.p90 = b.M.p90 && a.M.p99 = b.M.p99
                 && Float.abs (a.M.total -. b.M.total)
                    <= 1e-9 *. Float.max 1.0 (Float.abs b.M.total)
             | _ -> false)
           hist_names)

(* [merge] walks each source's tables in hash order.  Registries holding
   the same per-label updates, with the labels first touched in different
   orders (so different table layouts and walk orders), must merge to
   byte-identical output: every combination is order-free except a
   histogram's total, which takes one float addition per source. *)
let prop_merge_independent_of_insertion_order =
  let open QCheck2.Gen in
  let gen_op =
    oneof
      [
        map2 (fun i v -> Obs (i, v)) (int_range 0 39) (float_range 0.0005 5000.0);
        map2 (fun i n -> Incr (i, n)) (int_range 0 39) (int_range 1 5);
        map2 (fun i n -> Gauge (i, n)) (int_range 0 39) (int_range 0 100);
      ]
  in
  Helpers.qtest ~count:100 "merge: output independent of label insertion order"
    (pair (list_size (int_range 1 5) (list_size (int_range 0 150) gen_op)) int)
    (fun (shards, shuffle_seed) ->
      let label = function Obs (i, _) | Incr (i, _) | Gauge (i, _) -> i in
      let apply m = function
        | Obs (i, v) -> M.observe m (Fmt.str "h%d" i) v
        | Incr (i, n) -> M.incr ~by:n m (Fmt.str "c%d" i)
        | Gauge (i, n) -> M.gauge_max m (Fmt.str "g%d" i) n
      in
      let in_order ops =
        let m = M.create () in
        List.iter (apply m) ops;
        m
      in
      (* each label's updates in their own order, labels in a shuffled one *)
      let regrouped ops =
        let rng = Random.State.make [| shuffle_seed |] in
        let labels = List.sort_uniq compare (List.map label ops) in
        let labels =
          List.map (fun l -> (Random.State.bits rng, l)) labels |> List.sort compare |> List.map snd
        in
        in_order (List.concat_map (fun l -> List.filter (fun op -> label op = l) ops) labels)
      in
      let merged build = J.to_string (M.to_json ~drop_wall:true (M.merge_all (List.map build shards))) in
      merged in_order = merged regrouped)

(* ---------------- labels ---------------- *)

let test_label_lazy () =
  let m = M.create () in
  M.incr m "a";
  let before = J.to_string (M.to_json m) in
  let _never = M.label "never" in
  let _a = M.label "a" in
  Alcotest.(check (list (pair string int))) "counters unchanged" [ ("a", 1) ] (M.counters m);
  Alcotest.(check string) "to_json unchanged" before (J.to_string (M.to_json m));
  Alcotest.(check int) "unbumped label reads 0" 0 (M.counter m "never");
  Alcotest.(check int) "unbumped label counts 0" 0 (M.count m (M.label "never"))

let test_label_sums_with_incr () =
  let m = M.create () in
  (* the counter exists by name before the label's first bump *)
  let a = M.label "a" in
  M.incr m "a";
  M.bump m a;
  M.bump m a;
  M.incr ~by:3 m "a";
  M.bump m a;
  Alcotest.(check int) "name first: bumps and incr sum" 7 (M.counter m "a");
  (* the label registers the counter; incr by name and a second lookup join it *)
  let b1 = M.label "b" and b2 = M.label "b" in
  M.bump m b1;
  M.incr ~by:2 m "b";
  M.bump m b2;
  M.bump m b1;
  Alcotest.(check int) "label first: bumps and incr sum" 5 (M.counter m "b");
  Alcotest.(check int) "count by label" 5 (M.count m b2);
  Alcotest.(check (list (pair string int)))
    "one entry per label" [ ("a", 7); ("b", 5) ] (M.counters m)

(* The same update stream applied with every counter bump going through
   a label, and with [incr] by name: the registries, and their merges
   into a common destination, must be indistinguishable. *)
let prop_labels_merge_like_names =
  Helpers.qtest ~count:150 "merge: registries filled through labels = filled by name" gen_ops
    (fun (ops, k) ->
      let by_label = M.create () and by_name = M.create () in
      let labels = Array.map (fun name -> M.label ("c_" ^ name)) hist_names in
      List.iter
        (function
          | Incr (i, n) ->
              for _ = 1 to n do
                M.bump by_label labels.(i)
              done
          | op -> apply by_label op)
        ops;
      List.iter (apply by_name) ops;
      let base () =
        let b = M.create () in
        List.iteri (fun ix op -> if ix mod k = 0 then apply b op) ops;
        b
      in
      let merged_label = base () and merged_name = base () in
      M.merge merged_label by_label;
      M.merge merged_name by_name;
      J.to_string (M.to_json by_label) = J.to_string (M.to_json by_name)
      && J.to_string (M.to_json merged_label) = J.to_string (M.to_json merged_name))

(* Fresh names interned from 4 domains at once: every domain sees one
   id per name, and every name keeps the id it was first given. *)
let test_label_intern_domains () =
  let names = Array.init 200 (Fmt.str "intern_race_%d") in
  let intern offset () = Array.init 200 (fun i -> M.label names.((i + offset) mod 200)) in
  let by_domain =
    List.map (fun offset -> Domain.spawn (intern (offset * 50))) [ 0; 1; 2; 3 ] |> List.map Domain.join
  in
  let ids offset labels = Array.init 200 (fun i -> labels.((i - offset + 200) mod 200)) in
  let canonical = Array.map M.label names in
  List.iteri
    (fun d labels ->
      Alcotest.(check bool)
        (Fmt.str "domain %d: one id per name" d)
        true
        (ids (d * 50) labels = canonical))
    by_domain;
  Alcotest.(check int)
    "distinct ids" 200
    (List.length (List.sort_uniq compare (Array.to_list canonical)));
  Array.iteri
    (fun i l -> Alcotest.(check string) (Fmt.str "name of id %d" i) names.(i) (M.label_name l))
    canonical

(* ---------------- sparse histograms ---------------- *)

(* The pre-sparse histogram, kept as the reference: count, total, min and
   max tracked exactly, a full bucket array from the first observation,
   and the same JSON layout as {!M.to_json}'s histogram entries. *)
module Dense = struct
  type t = {
    mutable count : int;
    mutable total : float;
    mutable min : float;
    mutable max : float;
    counts : int array;
  }

  let create () =
    {
      count = 0;
      total = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
      counts = Array.make M.n_buckets 0;
    }

  let observe h v =
    h.count <- h.count + 1;
    h.total <- h.total +. v;
    if v < h.min then h.min <- v;
    if v > h.max then h.max <- v;
    let i = M.bucket_index v in
    h.counts.(i) <- h.counts.(i) + 1

  let merge d s =
    d.count <- d.count + s.count;
    d.total <- d.total +. s.total;
    if s.min < d.min then d.min <- s.min;
    if s.max > d.max then d.max <- s.max;
    Array.iteri (fun i c -> d.counts.(i) <- d.counts.(i) + c) s.counts

  let percentile h p =
    if p <= 0.0 then h.min
    else if p >= 100.0 then h.max
    else
      let rank = p /. 100.0 *. float_of_int h.count in
      let rec go i cum =
        if i >= M.n_buckets then h.max
        else
          let c = h.counts.(i) in
          let cum' = cum +. float_of_int c in
          if c > 0 && cum' >= rank then
            let lo = M.bucket_lower i in
            let hi = if i = M.n_buckets - 1 || M.bucket_upper i > h.max then h.max else M.bucket_upper i in
            lo +. ((rank -. cum) /. float_of_int c *. (hi -. lo))
          else go (i + 1) (if c > 0 then cum' else cum)
      in
      Float.min h.max (Float.max h.min (go 0 0.0))

  let to_json name h =
    if h.count = 0 then
      J.Obj [ ("counters", J.Obj []); ("gauges", J.Obj []); ("histograms", J.Obj []) ]
    else
      let buckets =
        List.filter_map Fun.id
          (List.init M.n_buckets (fun i ->
               if h.counts.(i) = 0 then None
               else
                 let upper = M.bucket_upper i in
                 let upper = if upper = Float.infinity then h.max else upper in
                 Some (J.Obj [ ("le", J.Float upper); ("count", J.Int h.counts.(i)) ])))
      in
      J.Obj
        [
          ("counters", J.Obj []);
          ("gauges", J.Obj []);
          ( "histograms",
            J.Obj
              [
                ( name,
                  J.Obj
                    [
                      ("count", J.Int h.count);
                      ("total", J.Float h.total);
                      ("min", J.Float h.min);
                      ("max", J.Float h.max);
                      ("mean", J.Float (h.total /. float_of_int h.count));
                      ("p50", J.Float (percentile h 50.0));
                      ("p90", J.Float (percentile h 90.0));
                      ("p99", J.Float (percentile h 99.0));
                      ("buckets", J.List buckets);
                    ] );
              ] );
        ]
end

(* Observation sequences of 0-30 values, either side of the sparse cap,
   cut into shards that are merged in order: each shard small (sparse),
   large (dense) or mixed, so merges go sparse into dense, dense into
   sparse and sparse into sparse.  The merged registry must export
   exactly what the dense reference fed the same shards does. *)
let prop_sparse_matches_dense =
  let open QCheck2.Gen in
  let gen =
    pair
      (list_size (int_range 0 30) (float_range 0.0005 5000.0))
      (list_size (int_range 0 6) (int_range 0 12))
  in
  assert (M.sparse_cap < 30);
  Helpers.qtest ~count:300 "sparse histograms merge to the dense reference's JSON" gen
    (fun (values, cuts) ->
      (* cut [values] into consecutive shards at the given lengths; the
         rest forms the last shard *)
      let rec shards vs = function
        | [] -> [ vs ]
        | n :: ns ->
            let n = min n (List.length vs) in
            List.filteri (fun i _ -> i < n) vs :: shards (List.filteri (fun i _ -> i >= n) vs) ns
      in
      let parts = shards values cuts in
      let merged = M.create () and reference = Dense.create () in
      List.iter
        (fun part ->
          let shard = M.create () and dshard = Dense.create () in
          List.iter (M.observe shard "h") part;
          List.iter (Dense.observe dshard) part;
          M.merge merged shard;
          Dense.merge reference dshard)
        parts;
      let single = M.create () and dsingle = Dense.create () in
      List.iter (M.observe single "h") values;
      List.iter (Dense.observe dsingle) values;
      J.to_string (M.to_json merged) = J.to_string (Dense.to_json "h" reference)
      && J.to_string (M.to_json single) = J.to_string (Dense.to_json "h" dsingle))

let test_drain_timers () =
  let m = M.create () in
  M.timer_start m (M.label "op") ~key:1 ~at:1.0;
  M.timer_start m (M.label "op") ~key:2 ~at:2.0;
  M.timer_stop m (M.label "op") ~key:1 ~at:3.0;
  M.timer_start m (M.label "other") ~key:1 ~at:0.0;
  Alcotest.(check (list (pair string int)))
    "in flight" [ ("op", 1); ("other", 1) ] (M.timers_in_flight m);
  M.drain_timers m;
  Alcotest.(check int) "op leak counted" 1 (M.counter m "timers_in_flight_op");
  Alcotest.(check int) "other leak counted" 1 (M.counter m "timers_in_flight_other");
  Alcotest.(check (list (pair string int))) "drained" [] (M.timers_in_flight m);
  (* a stop after the drain is ignored: its start was cleared *)
  M.timer_stop m (M.label "op") ~key:2 ~at:9.0;
  (match M.summarize m "op" with
  | Some s -> Alcotest.(check int) "only the completed timer observed" 1 s.M.count
  | None -> Alcotest.fail "expected a summary");
  M.drain_timers m;
  Alcotest.(check int) "drain idempotent" 1 (M.counter m "timers_in_flight_op")

let test_merge_drains_in_flight () =
  let a = M.create () and b = M.create () in
  M.timer_start a (M.label "op") ~key:1 ~at:0.0;
  M.timer_start b (M.label "op") ~key:9 ~at:5.0;
  M.merge a b;
  Alcotest.(check int) "both sides' leaks counted" 2 (M.counter a "timers_in_flight_op");
  Alcotest.(check (list (pair string int))) "nothing left in flight" [] (M.timers_in_flight a)

let test_drop_wall () =
  Alcotest.(check bool) "wall_ prefix detected" true (M.is_wall "wall_oracle_atomicity_s");
  Alcotest.(check bool) "plain name kept" false (M.is_wall "oracle_atomicity_s");
  let m = M.create () in
  M.incr m "wall_ticks";
  M.incr m "sim_ticks";
  M.observe m "wall_oracle_atomicity_s" 0.5;
  M.observe m "lat" 1.0;
  let j = M.to_json ~drop_wall:true m in
  let has section name = Option.bind (J.member section j) (J.member name) <> None in
  Alcotest.(check bool) "wall counter dropped" false (has "counters" "wall_ticks");
  Alcotest.(check bool) "sim counter kept" true (has "counters" "sim_ticks");
  Alcotest.(check bool) "wall histogram dropped" false (has "histograms" "wall_oracle_atomicity_s");
  Alcotest.(check bool) "sim histogram kept" true (has "histograms" "lat");
  let full = M.to_json m in
  Alcotest.(check bool)
    "default keeps wall series" true
    (Option.bind (J.member "counters" full) (J.member "wall_ticks") <> None)

(* ---------------- report ---------------- *)

let test_report_sections () =
  let r = Sim.Report.create () in
  Sim.Report.add r "first" (J.Int 1);
  Sim.Report.add r "second" (J.Str "two");
  Sim.Report.add r "first" (J.Int 3);
  (* replaced in place *)
  Alcotest.(check string)
    "insertion order, schema_version first"
    "{\"schema_version\":1,\"first\":3,\"second\":\"two\"}"
    (J.to_string (Sim.Report.to_json r))

let suite =
  [
    Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "bucket index monotone" `Quick test_bucket_index_monotone;
    Alcotest.test_case "bucket table equals the formula bit for bit" `Quick test_bucket_table_bit_identical;
    Alcotest.test_case "summary exact fields" `Quick test_summary_exact_fields;
    Alcotest.test_case "percentiles vs sorted oracle" `Quick test_percentile_against_oracle;
    Alcotest.test_case "percentiles ordered" `Quick test_percentiles_ordered;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "labelled timers" `Quick test_timers;
    Alcotest.test_case "to_json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "run metrics deterministic" `Quick test_run_deterministic;
    prop_merge_equals_single;
    prop_merge_independent_of_insertion_order;
    Alcotest.test_case "label registers lazily" `Quick test_label_lazy;
    Alcotest.test_case "label bumps and incr sum" `Quick test_label_sums_with_incr;
    prop_labels_merge_like_names;
    Alcotest.test_case "labels interned from 4 domains at once" `Quick test_label_intern_domains;
    prop_sparse_matches_dense;
    Alcotest.test_case "drain_timers accounts leaks" `Quick test_drain_timers;
    Alcotest.test_case "merge drains in-flight timers" `Quick test_merge_drains_in_flight;
    Alcotest.test_case "to_json ~drop_wall filters wall_ series" `Quick test_drop_wall;
    Alcotest.test_case "report sections" `Quick test_report_sections;
  ]
