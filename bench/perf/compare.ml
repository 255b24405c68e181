(** Parent-vs-change comparison over N result files per side.

    One row per workload × end-to-end metric: each side's quartiles and
    a verdict.  Run i of each side forms pair i.  A host-time metric has
    two bounds: the ledger's [bound] ({!Ledger.e2e_metrics}), and the
    wider [limit] BENCHMARK.json fixes for the benchmark as a whole,
    which the noisiest workload sets.

    - [regressed]: the change's median is worse than the parent's by
      more than the limit;
    - [unresolved]: either side's spread (quartile distance over median)
      exceeds the bound, and not every change run beats every parent
      run;
    - [regressed]: the change's median is worse than the parent's by
      more than the bound;
    - [improved]: over at least ten pairs, the change wins at least 9 of
      every 10 (ties count for neither) and the medians differ by more
      than the parent's own quartile distance;
    - [unchanged]: otherwise.

    Deterministic metrics are a function of the seed, so they are
    compared pair by pair: [unresolved] unless both sides ran the same
    seeds in the same order, [regressed] if any pair reads worse,
    [improved] if none does and one reads better, else [unchanged]. *)

module J = Sim.Json

let read_json file = J.of_string (In_channel.with_open_text file In_channel.input_all)

(** The per-workload records of a [run]/[trace] result file, or of a
    single child record. *)
let records file =
  let j = read_json file in
  match J.member "workloads" j with
  | Some (J.List ws) -> List.map Ledger.of_json ws
  | _ -> [ Ledger.of_json j ]

(** [(metric, bound)] of BENCHMARK.json's end-to-end metrics. *)
let bounds file =
  match J.member "end_to_end" (read_json file) with
  | Some (J.List ms) ->
      List.filter_map
        (fun m ->
          match (J.member "name" m, Option.bind (J.member "bound" m) J.to_float_opt) with
          | Some (J.Str n), Some b -> Some (n, b)
          | _ -> None)
        ms
  | _ -> failwith (file ^ ": no end_to_end list")

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let spread xs =
  let q1, med, q3 = Ledger.quartiles xs in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs med

(* No gain is claimed from fewer pairs than this. *)
let min_pairs = 10

(** Pairs the change won, and pairs: run i of each side forms pair i. *)
let pair_wins ~better parent change =
  let rec go p c =
    match (p, c) with x :: p', y :: c' -> (if better y x then 1 else 0) + go p' c' | _ -> 0
  in
  (go parent change, min (List.length parent) (List.length change))

(** Verdict on one metric: [better a b] holds when [a] reads better than
    [b]; [same_seeds] when both sides ran the same seeds in order. *)
let judge ~exact ~same_seeds ~bound ~limit ~better parent change =
  let _, mp, _ = Ledger.quartiles parent and _, mc, _ = Ledger.quartiles change in
  if exact then
    if not (same_seeds && List.compare_lengths parent change = 0) then Unresolved
    else if List.exists2 better parent change then Regressed
    else if List.exists2 better change parent then Improved
    else Unchanged
  else begin
    let worse_share = if better mc mp || mp = 0.0 then 0.0 else Float.abs (mc -. mp) /. Float.abs mp in
    let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
    let q1p, _, q3p = Ledger.quartiles parent in
    let wins, pairs = pair_wins ~better parent change in
    let enough = pairs >= min_pairs in
    if worse_share > limit then Regressed
    else if Float.max (spread parent) (spread change) > bound then
      if all_better && enough then Improved else Unresolved
    else if worse_share > bound then Regressed
    else if enough && 10 * wins >= 9 * pairs && better mc mp && Float.abs (mc -. mp) > q3p -. q1p then Improved
    else Unchanged
  end

(** Print every row; return [(workload, metric, verdict)] per row. *)
let run ~bounds parent_files change_files =
  let parent = List.concat_map records parent_files and change = List.concat_map records change_files in
  let workloads = List.sort_uniq compare (List.map (fun (r : Ledger.result) -> r.workload) parent) in
  Printf.printf "%-15s %-22s %-38s %-38s %8s %7s %s\n" "workload" "metric" "parent q1/median/q3" "change q1/median/q3"
    "delta" "wins" "verdict";
  List.concat_map
    (fun w ->
      let side rs = List.filter (fun (r : Ledger.result) -> r.workload = w) rs in
      let values rs name = List.filter_map (fun (r : Ledger.result) -> List.assoc_opt name r.e2e) rs in
      let seeds rs = List.map (fun (r : Ledger.result) -> r.seed) (side rs) in
      let same_seeds = seeds parent = seeds change in
      List.filter_map
        (fun (e : Ledger.e2e) ->
          match (values (side parent) e.e_name, values (side change) e.e_name) with
          | [], _ | _, [] -> None
          | p, c ->
              let limit =
                if e.exact then 0.0
                else
                  match List.assoc_opt e.e_name bounds with
                  | Some b -> Float.max b e.bound
                  | None -> failwith ("no bound for " ^ e.e_name ^ " in BENCHMARK.json")
              in
              let better a b = if e.higher_better then a > b else a < b in
              let v = judge ~exact:e.exact ~same_seeds ~bound:e.bound ~limit ~better p c in
              let q1p, mp, q3p = Ledger.quartiles p and q1c, mc, q3c = Ledger.quartiles c in
              let wins, pairs = pair_wins ~better p c in
              Printf.printf "%-15s %-22s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %3d/%-3d %s\n" w e.e_name q1p
                mp q3p q1c mc q3c
                (if mp = 0.0 then 0.0 else 100.0 *. (mc -. mp) /. Float.abs mp)
                wins pairs (verdict_name v);
              Some (w, e, v))
        Ledger.e2e_metrics)
    workloads
