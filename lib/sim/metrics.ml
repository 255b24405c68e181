(** Simulation metrics: labelled counters, high-water-mark gauges,
    fixed-bucket histograms with percentile summaries, and labelled
    timers — collected per run, reported by the experiment harness, and
    exportable as JSON for cross-run perf diffing.

    Names are interned once per process into {!label}s, and a registry
    is a set of label-indexed slot arrays plus the labels it touched, so
    an update is an array access and a merge walks only what its source
    touched.  Histograms use geometric buckets; a histogram keeps the
    bucket indices of its first {!sparse_cap} observations and grows the
    full bucket array only past that, since most per-run histograms see
    one or a few values.  Exact count/total/min/max are tracked
    alongside the buckets, so mean/min/max stay exact; percentiles are
    bucket-interpolated and accurate to one bucket width (a factor of
    {!growth}). *)

(* ---------------- bucket layout ---------------- *)

(* Bucket 0 is [0, lowest); bucket i in 1..n-2 is
   [lowest*growth^(i-1), lowest*growth^i); the last bucket catches
   everything above.  lowest = 1e-3 and growth = 1.25 span 1e-3 .. ~1.3e6
   in 96 buckets — the full range of simulation times we record, with at
   most 25% relative error on a percentile. *)
let n_buckets = 96
let lowest = 1e-3
let growth = 1.25

let upper_of i = if i >= n_buckets - 1 then Float.infinity else lowest *. (growth ** float_of_int i)
let lower_of i = if i <= 0 then 0.0 else lowest *. (growth ** float_of_int (i - 1))

(* The bounds of every bucket, computed once by the same expressions, so
   a table entry is bit-identical to the formula; indices outside the
   table still go to the formula. *)
let uppers = Array.init n_buckets upper_of
let lowers = Array.init n_buckets lower_of

let[@inline] bucket_upper i = if i >= 0 && i < n_buckets then Array.unsafe_get uppers i else upper_of i
let[@inline] bucket_lower i = if i >= 0 && i < n_buckets then Array.unsafe_get lowers i else lower_of i
let log_growth = Float.log growth

let bucket_index v =
  if not (v > 0.0) || v < lowest then 0
  else if not (Float.is_finite v) then n_buckets - 1
  else
    let i = 1 + int_of_float (Float.log (v /. lowest) /. log_growth) in
    (* float log can land one bucket off at exact boundaries: nudge *)
    let i = if i >= 1 && v < bucket_lower i then i - 1 else i in
    let i = if v >= bucket_upper i then i + 1 else i in
    if i < 0 then 0 else if i > n_buckets - 1 then n_buckets - 1 else i

(* ---------------- labels ---------------- *)

type label = int

(* The process-wide name table.  Readers take the published snapshot
   with one atomic load and never lock.  A new name copies the snapshot
   under [lock] and publishes the copy, so a published table is never
   mutated and sweep domains can read it while another domain interns. *)
type names = { ids : (string, label) Hashtbl.t; by_id : string array }

let names = Atomic.make { ids = Hashtbl.create 64; by_id = [||] }
let lock = Mutex.create ()

let find_label name = Hashtbl.find_opt (Atomic.get names).ids name

let label name =
  match find_label name with
  | Some l -> l
  | None ->
      Mutex.protect lock (fun () ->
          let cur = Atomic.get names in
          match Hashtbl.find_opt cur.ids name with
          | Some l -> l
          | None ->
              let l = Array.length cur.by_id in
              let ids = Hashtbl.copy cur.ids in
              Hashtbl.replace ids name l;
              Atomic.set names { ids; by_id = Array.append cur.by_id [| name |] };
              l)

let label_name l = (Atomic.get names).by_id.(l)

(* ---------------- state ---------------- *)

(* [cells] is sparse while it is shorter than [n_buckets]: the bucket
   indices of the first [n] observations.  Past [sparse_cap]
   observations it becomes the dense per-bucket counts. *)
type histogram = {
  mutable n : int;  (** observations *)
  stats : float array;  (** [| total; min; max |], unboxed *)
  mutable cells : int array;
}

let sparse_cap = 8

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

(* A slot holds [absent] until its label is touched; touching it also
   puts the label on the registry's list for its kind. *)
let absent = min_int

(* The empty histogram slot; never mutated. *)
let no_hist = { n = 0; stats = [||]; cells = [||] }

type t = {
  mutable counts : int array;  (** by label *)
  mutable counted : label list;
  mutable peaks : int array;  (** by label: high-water marks *)
  mutable peaked : label list;
  mutable hists : histogram array;  (** by label *)
  mutable observed : label list;
  mutable timers : (label * int, float) Hashtbl.t option;  (** (label, key) -> start time *)
}

let create () =
  { counts = [||]; counted = []; peaks = [||]; peaked = []; hists = [||]; observed = []; timers = None }

(* A slot array grown to cover label [l]: 64 slots at first, then at
   least doubling.  Its size follows the labels the registry touches, not
   how many the process has interned. *)
let grown a l fill =
  let a' = Array.make (max (l + 1) (max 64 (2 * Array.length a))) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* ---------------- counters and gauges ---------------- *)

let bump ?(by = 1) t l =
  if l >= Array.length t.counts then t.counts <- grown t.counts l absent;
  let c = Array.unsafe_get t.counts l in
  if c = absent then begin
    Array.unsafe_set t.counts l by;
    t.counted <- l :: t.counted
  end
  else Array.unsafe_set t.counts l (c + by)

let count t l = if l < Array.length t.counts && t.counts.(l) <> absent then t.counts.(l) else 0
let incr ?by t name = bump ?by t (label name)
let counter t name = match find_label name with Some l -> count t l | None -> 0

let sorted_by_name ls value =
  let by_id = (Atomic.get names).by_id in
  List.rev_map (fun l -> (by_id.(l), value l)) ls
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_by_name t.counted (fun l -> t.counts.(l))

let peak t l v =
  if l >= Array.length t.peaks then t.peaks <- grown t.peaks l absent;
  let g = Array.unsafe_get t.peaks l in
  if g = absent then begin
    Array.unsafe_set t.peaks l v;
    t.peaked <- l :: t.peaked
  end
  else if v > g then Array.unsafe_set t.peaks l v

let gauge_max t name v = peak t (label name) v

type gauge = { reg : t; g_label : label }

let gauge_handle t name =
  let l = label name in
  if l >= Array.length t.peaks || t.peaks.(l) = absent then peak t l 0;
  { reg = t; g_label = l }

let gauge_record g v = peak g.reg g.g_label v

let gauge t name =
  match find_label name with
  | Some l when l < Array.length t.peaks && t.peaks.(l) <> absent -> t.peaks.(l)
  | Some _ | None -> 0

let gauges t = sorted_by_name t.peaked (fun l -> t.peaks.(l))

(* ---------------- histograms ---------------- *)

let new_hist () =
  { n = 0; stats = [| 0.0; Float.infinity; Float.neg_infinity |]; cells = Array.make sparse_cap 0 }
let[@inline] is_dense h = Array.length h.cells = n_buckets

(* The per-bucket counts of [n] sparse bucket indices. *)
let dense_of cells n =
  let d = Array.make n_buckets 0 in
  for k = 0 to n - 1 do
    let i = cells.(k) in
    d.(i) <- d.(i) + 1
  done;
  d

let bucket_counts h = if is_dense h then h.cells else dense_of h.cells h.n

let hist_for t l =
  if l >= Array.length t.hists then t.hists <- grown t.hists l no_hist;
  let h = Array.unsafe_get t.hists l in
  if h != no_hist then h
  else begin
    let h = new_hist () in
    t.hists.(l) <- h;
    t.observed <- l :: t.observed;
    h
  end

let sample t l v =
  let h = hist_for t l in
  let s = h.stats in
  s.(0) <- s.(0) +. v;
  if v < s.(1) then s.(1) <- v;
  if v > s.(2) then s.(2) <- v;
  let i = bucket_index v in
  let n = h.n in
  if is_dense h then h.cells.(i) <- h.cells.(i) + 1
  else if n < sparse_cap then h.cells.(n) <- i
  else begin
    h.cells <- dense_of h.cells n;
    h.cells.(i) <- h.cells.(i) + 1
  end;
  h.n <- n + 1

let observe t name v = sample t (label name) v

let hist_percentile h counts p =
  let h_min = h.stats.(1) and h_max = h.stats.(2) in
  if h.n = 0 then nan
  else if p <= 0.0 then h_min
  else if p >= 100.0 then h_max
  else begin
    let rank = p /. 100.0 *. float_of_int h.n in
    let est = ref h_max in
    (try
       let cum = ref 0.0 in
       for i = 0 to n_buckets - 1 do
         let c = counts.(i) in
         if c > 0 then begin
           let cum' = !cum +. float_of_int c in
           if cum' >= rank then begin
             let lo = bucket_lower i in
             let hi = if i = n_buckets - 1 || bucket_upper i > h_max then h_max else bucket_upper i in
             let frac = (rank -. !cum) /. float_of_int c in
             est := lo +. (frac *. (hi -. lo));
             raise Exit
           end;
           cum := cum'
         end
       done
     with Exit -> ());
    Float.min h_max (Float.max h_min !est)
  end

(* The histogram under [name], if anything was observed there. *)
let find_hist t name =
  match find_label name with
  | Some l when l < Array.length t.hists && t.hists.(l) != no_hist -> Some t.hists.(l)
  | Some _ | None -> None

let percentile t name p =
  Option.map (fun h -> hist_percentile h (bucket_counts h) p) (find_hist t name)

let summary_of h : summary =
  let counts = bucket_counts h in
  {
    count = h.n;
    total = h.stats.(0);
    min = h.stats.(1);
    max = h.stats.(2);
    mean = h.stats.(0) /. float_of_int h.n;
    p50 = hist_percentile h counts 50.0;
    p90 = hist_percentile h counts 90.0;
    p99 = hist_percentile h counts 99.0;
  }

let summarize t name = Option.map summary_of (find_hist t name)

let bucket_list h =
  let counts = bucket_counts h in
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if counts.(i) > 0 then acc := (bucket_lower i, bucket_upper i, counts.(i)) :: !acc
  done;
  !acc

let buckets_of t l =
  if l < Array.length t.hists && t.hists.(l) != no_hist then bucket_list t.hists.(l) else []

let buckets t name = match find_label name with Some l -> buckets_of t l | None -> []

(* Every histogram as (name, histogram), sorted by name. *)
let named_hists t = sorted_by_name t.observed (fun l -> t.hists.(l))

let histograms t = List.map (fun (name, h) -> (name, summary_of h)) (named_hists t)

(* ---------------- labelled timers ---------------- *)

let timer_start t l ~key ~at =
  let tbl =
    match t.timers with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        t.timers <- Some tbl;
        tbl
  in
  Hashtbl.replace tbl (l, key) at

let timer_stop t l ~key ~at =
  match t.timers with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl (l, key) with
      | None -> ()
      | Some t0 ->
          Hashtbl.remove tbl (l, key);
          sample t l (at -. t0))

let timer_discard t l ~key = Option.iter (fun tbl -> Hashtbl.remove tbl (l, key)) t.timers

let timers_in_flight t =
  match t.timers with
  | None -> []
  | Some tbl ->
      Hashtbl.fold
        (fun (l, _) _ acc ->
          let name = label_name l in
          (name, 1 + Option.value ~default:0 (List.assoc_opt name acc)) :: List.remove_assoc name acc)
        tbl []
      |> List.sort compare

let drain_timers t =
  (* A timer started and never stopped — a site that crashed mid-measure —
     must not silently vanish from the registry: account each one under a
     per-label counter, then clear, so [merge] never sees a dangling
     start.  Idempotent once drained, and free when nothing is in
     flight (every sweep drains every seed's registry). *)
  match t.timers with
  | Some tbl when Hashtbl.length tbl > 0 ->
      List.iter (fun (name, n) -> incr ~by:n t ("timers_in_flight_" ^ name)) (timers_in_flight t);
      Hashtbl.reset tbl
  | Some _ | None -> ()

(* ---------------- merge ---------------- *)

(* Add [s]'s bucket counts into the dense array [d]. *)
let add_counts d s =
  if is_dense s then
    for i = 0 to n_buckets - 1 do
      d.(i) <- d.(i) + s.cells.(i)
    done
  else
    for k = 0 to s.n - 1 do
      let i = s.cells.(k) in
      d.(i) <- d.(i) + 1
    done

let merge_hist d s =
  let n = d.n + s.n in
  d.stats.(0) <- d.stats.(0) +. s.stats.(0);
  if s.stats.(1) < d.stats.(1) then d.stats.(1) <- s.stats.(1);
  if s.stats.(2) > d.stats.(2) then d.stats.(2) <- s.stats.(2);
  if is_dense d then add_counts d.cells s
  else if n <= sparse_cap then Array.blit s.cells 0 d.cells d.n s.n
  else begin
    d.cells <- dense_of d.cells d.n;
    add_counts d.cells s
  end;
  d.n <- n

let merge dst src =
  (* Counters sum; gauges keep the overall high-water mark; histograms
     add bucket counts with exact count/total and the combined min/max.
     Only the labels [src] touched are walked, in its touch order: every
     combination here is order-free (integer sums, max, min) except the
     histogram total, and that gets exactly one float addition per source
     registry whatever the walk order.  So folding the same sources in
     the same order always produces the same [dst], and a sharded sweep
     merged in seed order is reproducible whatever the worker count.
     In-flight timers on either side are drained first — an interrupted
     measurement becomes a [timers_in_flight_<label>] counter instead of
     silently disappearing. *)
  drain_timers dst;
  Option.iter
    (Hashtbl.iter (fun (l, _) _ -> incr dst ("timers_in_flight_" ^ label_name l)))
    src.timers;
  List.iter (fun l -> bump ~by:src.counts.(l) dst l) src.counted;
  List.iter (fun l -> peak dst l src.peaks.(l)) src.peaked;
  List.iter (fun l -> merge_hist (hist_for dst l) src.hists.(l)) src.observed

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
  let hist_json (name, h) =
    let s = summary_of h in
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
                 (bucket_list h)) );
        ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (List.filter keep (counters t))));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (List.filter keep (gauges t))));
      ("histograms", Json.Obj (List.map hist_json (List.filter keep (named_hists t))));
    ]
