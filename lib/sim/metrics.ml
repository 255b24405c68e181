(** Simulation metrics: labelled counters, high-water-mark gauges,
    fixed-bucket histograms with percentile summaries, and labelled
    timers — collected per run, reported by the experiment harness, and
    exportable as JSON for cross-run perf diffing.

    Histograms use geometric buckets with O(1) insert and O(1) memory per
    label (replacing the unbounded per-sample list this module started
    with).  Exact count/total/min/max are tracked alongside the buckets,
    so mean/min/max stay exact; percentiles are bucket-interpolated and
    accurate to one bucket width (a factor of {!growth}). *)

(* ---------------- bucket layout ---------------- *)

(* Bucket 0 is [0, lowest); bucket i in 1..n-2 is
   [lowest*growth^(i-1), lowest*growth^i); the last bucket catches
   everything above.  lowest = 1e-3 and growth = 1.25 span 1e-3 .. ~1.3e6
   in 96 buckets — the full range of simulation times we record, with at
   most 25% relative error on a percentile. *)
let n_buckets = 96
let lowest = 1e-3
let growth = 1.25

let bucket_upper i =
  if i >= n_buckets - 1 then Float.infinity else lowest *. (growth ** float_of_int i)

let bucket_lower i = if i <= 0 then 0.0 else lowest *. (growth ** float_of_int (i - 1))

let bucket_index v =
  if not (v > 0.0) || v < lowest then 0
  else if not (Float.is_finite v) then n_buckets - 1
  else
    let i = 1 + int_of_float (Float.log (v /. lowest) /. Float.log growth) in
    (* float log can land one bucket off at exact boundaries: nudge *)
    let i = if i >= 1 && v < bucket_lower i then i - 1 else i in
    let i = if v >= bucket_upper i then i + 1 else i in
    if i < 0 then 0 else if i > n_buckets - 1 then n_buckets - 1 else i

(* ---------------- state ---------------- *)

type histogram = {
  mutable h_count : int;
  mutable h_total : float;
  mutable h_min : float;
  mutable h_max : float;
  counts : int array;
}

type summary = {
  count : int;
  total : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;  (** high-water marks *)
  hists : (string, histogram) Hashtbl.t;
  timers : (string * int, float) Hashtbl.t;  (** (label, key) -> start time *)
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
    timers = Hashtbl.create 16;
  }

(* ---------------- counters and gauges ---------------- *)

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

(* A handle starts on the shared [unregistered] cell and registers its
   label on the first bump — never earlier, so a label nobody bumps stays
   out of [counters] and [to_json] exactly as if the handle did not
   exist.  Registration reuses a cell that [incr] created meanwhile, so
   bumps through the handle and by name land on the same count. *)
type counter = { reg : t; name : string; mutable cell : int ref }

let unregistered = ref 0

let counter_handle t name = { reg = t; name; cell = unregistered }

let bump h =
  if h.cell == unregistered then
    h.cell <-
      (match Hashtbl.find_opt h.reg.counters h.name with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add h.reg.counters h.name r;
          r);
  h.cell := !(h.cell) + 1

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counters [] |> List.sort compare

let gauge_max t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.add t.gauges name (ref v)

type gauge = int ref

let gauge_handle t name =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.gauges name r;
      r

let gauge_record (g : gauge) v = if v > !g then g := v

let gauge t name = match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0

let gauges t = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.gauges [] |> List.sort compare

(* ---------------- histograms ---------------- *)

let find_or_create_hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h =
        {
          h_count = 0;
          h_total = 0.0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          counts = Array.make n_buckets 0;
        }
      in
      Hashtbl.add t.hists name h;
      h

let observe t name v =
  let h = find_or_create_hist t name in
  h.h_count <- h.h_count + 1;
  h.h_total <- h.h_total +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.counts.(i) <- h.counts.(i) + 1

let hist_percentile h p =
  if h.h_count = 0 then nan
  else if p <= 0.0 then h.h_min
  else if p >= 100.0 then h.h_max
  else begin
    let rank = p /. 100.0 *. float_of_int h.h_count in
    let est = ref h.h_max in
    (try
       let cum = ref 0.0 in
       for i = 0 to n_buckets - 1 do
         let c = h.counts.(i) in
         if c > 0 then begin
           let cum' = !cum +. float_of_int c in
           if cum' >= rank then begin
             let lo = bucket_lower i in
             let hi = if i = n_buckets - 1 || bucket_upper i > h.h_max then h.h_max else bucket_upper i in
             let frac = (rank -. !cum) /. float_of_int c in
             est := lo +. (frac *. (hi -. lo));
             raise Exit
           end;
           cum := cum'
         end
       done
     with Exit -> ());
    Float.min h.h_max (Float.max h.h_min !est)
  end

let percentile t name p =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h when h.h_count = 0 -> None
  | Some h -> Some (hist_percentile h p)

let summarize t name : summary option =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h when h.h_count = 0 -> None
  | Some h ->
      Some
        {
          count = h.h_count;
          total = h.h_total;
          min = h.h_min;
          max = h.h_max;
          mean = h.h_total /. float_of_int h.h_count;
          p50 = hist_percentile h 50.0;
          p90 = hist_percentile h 90.0;
          p99 = hist_percentile h 99.0;
        }

let buckets t name =
  match Hashtbl.find_opt t.hists name with
  | None -> []
  | Some h ->
      let acc = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.counts.(i) > 0 then acc := (bucket_lower i, bucket_upper i, h.counts.(i)) :: !acc
      done;
      !acc

let histograms t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.hists []
  |> List.sort compare
  |> List.filter_map (fun k -> Option.map (fun s -> (k, s)) (summarize t k))

(* ---------------- labelled timers ---------------- *)

let timer_start t name ~key ~at = Hashtbl.replace t.timers (name, key) at

let timer_stop t name ~key ~at =
  match Hashtbl.find_opt t.timers (name, key) with
  | None -> ()
  | Some t0 ->
      Hashtbl.remove t.timers (name, key);
      observe t name (at -. t0)

let timer_discard t name ~key = Hashtbl.remove t.timers (name, key)

let timers_in_flight t =
  Hashtbl.fold (fun (name, _) _ acc -> (name, 1 + Option.value ~default:0 (List.assoc_opt name acc)) :: List.remove_assoc name acc) t.timers []
  |> List.sort compare

let drain_timers t =
  (* A timer started and never stopped — a site that crashed mid-measure —
     must not silently vanish from the registry: account each one under a
     per-label counter, then clear, so [merge] never sees a dangling
     start.  Idempotent once drained, and free when nothing is in
     flight (every sweep drains every seed's registry). *)
  if Hashtbl.length t.timers > 0 then begin
    List.iter
      (fun (name, n) -> incr ~by:n t ("timers_in_flight_" ^ name))
      (timers_in_flight t);
    Hashtbl.reset t.timers
  end

(* ---------------- merge ---------------- *)

let merge dst src =
  (* Counters sum; gauges keep the overall high-water mark; histograms
     add bucket arrays element-wise with exact count/total and the
     combined min/max.  The source tables are walked in hash order: every
     combination here is order-free (integer sums, max, min) except the
     histogram total, and that gets exactly one float addition per source
     registry whatever the walk order.  So folding the same sources in
     the same order always produces the same [dst], and a sharded sweep
     merged in seed order is reproducible whatever the worker count.
     In-flight timers on either side are drained first — an interrupted
     measurement becomes a [timers_in_flight_<label>] counter instead of
     silently disappearing. *)
  drain_timers dst;
  Hashtbl.iter (fun (name, _) _ -> incr dst ("timers_in_flight_" ^ name)) src.timers;
  Hashtbl.iter (fun name v -> incr ~by:!v dst name) src.counters;
  Hashtbl.iter (fun name v -> gauge_max dst name !v) src.gauges;
  Hashtbl.iter
    (fun name h ->
      let d = find_or_create_hist dst name in
      d.h_count <- d.h_count + h.h_count;
      d.h_total <- d.h_total +. h.h_total;
      if h.h_min < d.h_min then d.h_min <- h.h_min;
      if h.h_max > d.h_max then d.h_max <- h.h_max;
      for i = 0 to n_buckets - 1 do
        d.counts.(i) <- d.counts.(i) + h.counts.(i)
      done)
    src.hists

let merge_all srcs =
  let t = create () in
  List.iter (merge t) srcs;
  t

(* ---------------- rendering ---------------- *)

let pp ppf t =
  List.iter (fun (k, v) -> Fmt.pf ppf "%-28s %d@," k v) (counters t);
  List.iter (fun (k, v) -> Fmt.pf ppf "%-28s max=%d@," k v) (gauges t);
  List.iter
    (fun (k, s) ->
      Fmt.pf ppf "%-28s n=%d mean=%.3f min=%.3f max=%.3f p50=%.3f p90=%.3f p99=%.3f@," k s.count
        s.mean s.min s.max s.p50 s.p90 s.p99)
    (histograms t)

(* Names under the [wall_] prefix hold host wall-clock measurements
   (see {!Clock}): real time, different on every run.  Everything else
   is simulation-derived and deterministic in the seed, which is what
   sweep merge-equivalence checks compare. *)
let is_wall name = String.length name >= 5 && String.sub name 0 5 = "wall_"

let to_json ?(drop_wall = false) t : Json.t =
  let keep (name, _) = (not drop_wall) || not (is_wall name) in
  let hist_json (name, s) =
    ( name,
      Json.Obj
        [
          ("count", Json.Int s.count);
          ("total", Json.Float s.total);
          ("min", Json.Float s.min);
          ("max", Json.Float s.max);
          ("mean", Json.Float s.mean);
          ("p50", Json.Float s.p50);
          ("p90", Json.Float s.p90);
          ("p99", Json.Float s.p99);
          ( "buckets",
            Json.List
              (List.map
                 (fun (_, upper, count) ->
                   let upper = if upper = Float.infinity then s.max else upper in
                   Json.Obj [ ("le", Json.Float upper); ("count", Json.Int count) ])
                 (buckets t name)) );
        ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (List.filter keep (counters t))));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (List.filter keep (gauges t))));
      ("histograms", Json.Obj (List.map hist_json (List.filter keep (histograms t))));
    ]
