(** The perf ledger's command line.

    {v
    perf.exe --workload W --seed S --seconds T --trace 0|1
        one workload in this process; prints "workload metric value unit"
        lines, then one JSON object as the last line
    perf.exe run   [--seed S] [--seconds T] [--workload W]...
        every (or each named) workload untraced, one child process each,
        one after another; writes <out>/result.json
    perf.exe trace [--seed S] [--seconds T] [--workload W]...
        the same, traced: each child reports the layers its workload
        drives, the micro-loops run once, and <out>/trace.json takes each
        per-layer metric from its home workload; also writes
        <out>/W.spans.jsonl
    perf.exe compare [--bounds BENCHMARK.json] PARENT.json... -- CHANGE.json...
        one verdict row per workload x end-to-end metric; exits 1 on any
        regression
    perf.exe smoke [--bounds BENCHMARK.json]
        every workload at 1/50 scale, untraced and traced, plus compare
    v}

    A single traced workload ([--trace 1]) reports every per-layer
    metric, each metric of a layer it does not drive tagged with its
    source; [--own-layers] limits it to the layers it drives.  Common
    options: [--scale K] divides every batch size by K (default 1),
    [--out DIR] (default bench/perf/out).  Any failed output check exits
    1. *)

module J = Sim.Json

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  own_layers : bool;
  scale : int;
  out : string;
  record : string option;
  bounds : string;
  files : string list;
}

let usage () =
  prerr_endline
    "usage: perf.exe [run|trace|compare|smoke] [--workload W]... [--seed S] [--seconds T] [--trace \
     0|1] [--own-layers] [--scale K] [--out DIR] [--bounds FILE] [FILES... -- FILES...]";
  exit 2

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workloads = o.workloads @ [ w ] } rest
    | "--seed" :: s :: rest -> go { o with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: (("0" | "1") as b) :: rest -> go { o with trace = b = "1" } rest
    | "--own-layers" :: rest -> go { o with own_layers = true } rest
    | "--scale" :: k :: rest -> go { o with scale = max 1 (int_of_string k) } rest
    | "--out" :: d :: rest -> go { o with out = d } rest
    | "--record" :: f :: rest -> go { o with record = Some f } rest
    | "--bounds" :: f :: rest -> go { o with bounds = f } rest
    | f :: rest when String.length f = 0 || f.[0] <> '-' || f = "--" -> go { o with files = o.files @ [ f ] } rest
    | _ -> usage ()
  in
  try
    go
      {
        workloads = [];
        seed = 0;
        seconds = 8.0;
        trace = false;
        own_layers = false;
        scale = 1;
        out = "bench/perf/out";
        record = None;
        bounds = "BENCHMARK.json";
        files = [];
      }
      args
  with Failure _ -> usage ()

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2

let print_lines (r : Ledger.result) =
  let line (k, v) = Printf.printf "%s %s %.6g %s\n" r.workload k v (Ledger.unit_of k) in
  List.iter line r.e2e;
  let lo, med, hi = Ledger.quartiles r.batch_rates in
  Printf.printf "%s batch_items_per_s q1 %.6g median %.6g q3 %.6g max %.6g batches %d\n" r.workload lo med
    hi
    (List.fold_left Float.max 0.0 r.batch_rates)
    (List.length r.batch_rates);
  Printf.printf "%s uncorrected_items_per_s %.6g host_slowdown %.4f\n" r.workload r.raw_items_per_s r.host_slowdown;
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k r.sources with
      | Some src -> Printf.printf "%s %s %.6g %s (from %s)\n" r.workload k v (Ledger.unit_of k) src
      | None -> line (k, v))
    r.layers;
  Printf.printf "%s digest %S\n" r.workload r.digest;
  List.iter (fun p -> Printf.printf "%s PROBLEM %s\n" r.workload p) r.problems;
  flush stdout

(* The last-line JSON summary: the three host-time metrics untraced, the
   per-layer set traced. *)
let contract_line (r : Ledger.result) =
  let pick =
    if r.traced then r.layers
    else
      List.filter
        (fun (k, _) -> List.exists (fun (e : Ledger.e2e) -> e.e_name = k && not e.exact) Ledger.e2e_metrics)
        r.e2e
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (Ledger.correct r));
         ("attempted", J.Int (max 1 r.attempted));
         ("failed", J.Int r.failed);
         ("metrics", Ledger.metric_obj pick);
       ])

let one o =
  let w = workload (match o.workloads with [ w ] -> w | _ -> usage ()) in
  mkdir_p o.out;
  let trace = if not o.trace then `Off else if o.own_layers then `Own else `All in
  let r = Ledger.run w ~seed:o.seed ~seconds:o.seconds ~scale:o.scale ~trace ~out:o.out in
  print_lines r;
  (match o.record with
  | Some f -> Out_channel.with_open_text f (fun oc -> output_string oc (J.to_string (Ledger.to_json r)))
  | None -> ());
  print_endline (contract_line r);
  if not (Ledger.correct r) then exit 1

let host () =
  J.Obj
    [
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("workers", J.Int 1);
      ("word_size", J.Int Sys.word_size);
    ]

(** [name] in a child process with the common options and [args]; its
    record, if it wrote one. *)
let child o ~args name =
  let record = Filename.concat o.out (name ^ ".record.json") in
  if Sys.file_exists record then Sys.remove record;
  let argv =
    [
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%g" o.seconds; "--scale"; string_of_int o.scale; "--out"; o.out; "--record"; record;
    ]
    @ args
  in
  let pid = Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr in
  if snd (Unix.waitpid [] pid) <> Unix.WEXITED 0 then Printf.printf "%s child exited abnormally\n%!" name;
  if Sys.file_exists record then Some (J.of_string (In_channel.with_open_text record In_channel.input_all)) else None

(** Each workload in its own child process, one after another, so a
    workload's peak heap is its own and load never exceeds one core.
    Traced children report only the layers their workload drives; the
    micro-loops then run once, here, and trace.json's [layers] table
    takes each per-layer metric from its home. *)
let all ~mode o =
  let names = if o.workloads = [] then List.map (fun (w : Workloads.t) -> w.name) Workloads.all else o.workloads in
  List.iter (fun n -> ignore (workload n)) names;
  mkdir_p o.out;
  let args = if mode = `Trace then [ "--trace"; "1"; "--own-layers" ] else [ "--trace"; "0" ] in
  let records = List.map (child o ~args) names in
  let file = Filename.concat o.out (if mode = `Trace then "trace.json" else "result.json") in
  let ok = List.for_all (function Some j -> J.member "correct" j = Some (J.Bool true) | None -> false) records in
  let records = List.filter_map Fun.id records in
  let layers =
    if mode <> `Trace then []
    else
      let merged = Ledger.merge (List.map Ledger.of_json records) (Micro.run ~scale:o.scale) in
      [
        ( "layers",
          Ledger.metric_obj
            ~source:(fun m -> Option.map snd (List.assoc_opt m merged))
            (List.map (fun (m, (v, _)) -> (m, v)) merged) );
      ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              ([
                 ("mode", J.Str (if mode = `Trace then "trace" else "run"));
                 ("seed", J.Int o.seed);
                 ("seconds", J.Float o.seconds);
                 ("scale", J.Int o.scale);
                 ("host", host ());
                 ("correct", J.Bool ok);
               ]
              @ layers
              @ [ ("workloads", J.List records) ]))));
  Printf.printf "wrote %s\n%!" file;
  (file, ok)

let compare o =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> usage ()
  in
  let parent, change = split [] o.files in
  if parent = [] || change = [] then usage ();
  let rows = Compare.run ~bounds:(Compare.bounds o.bounds) parent change in
  if List.exists (fun (_, _, v) -> v = Compare.Regressed) rows then exit 1

(* Two untraced sets and one traced set at 1/50 scale, plus one traced
   check-3pc run that reports every per-layer metric (it drives the
   fewest layers, so nearly all are probed); every output check, the
   record schema against BENCHMARK.json, each per-layer metric's source,
   digest agreement across the sets, and [compare] on the untraced pair,
   where only the deterministic metrics are gated. *)
let smoke o =
  let o = { o with scale = 50; seconds = 0.2; workloads = []; out = Filename.concat o.out "smoke" } in
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  let set name mode =
    let file, ok = all ~mode { o with out = Filename.concat o.out name } in
    check (name ^ ": output checks failed") ok;
    file
  in
  let run_a = set "run-a" `Run in
  let traced = set "trace" `Trace in
  let run_b = set "run-b" `Run in
  let full =
    let o = { o with out = Filename.concat o.out "trace-all" } in
    mkdir_p o.out;
    Option.map Ledger.of_json (child o ~args:[ "--trace"; "1" ] "check-3pc")
  in
  check "trace-all: check-3pc wrote no correct record"
    (match full with Some r -> Ledger.correct r | None -> false);
  let bench = Compare.read_json o.bounds in
  let names key = match J.member key bench with Some (J.List xs) -> xs | _ -> [] in
  let str k j = match J.member k j with Some (J.Str s) -> s | _ -> "" in
  check "BENCHMARK.json workloads differ from the ledger's"
    (List.map (str "name") (names "workloads") = List.map (fun (w : Workloads.t) -> w.name) Workloads.all);
  check "BENCHMARK.json per_layer differs from the ledger's"
    (List.map (fun j -> (str "name" j, str "unit" j)) (names "per_layer") = Ledger.layer_metrics);
  List.iter
    (fun j ->
      check ("BENCHMARK.json end-to-end metric unknown to the ledger: " ^ str "name" j)
        (List.exists
           (fun (e : Ledger.e2e) ->
             e.e_name = str "name" j && e.e_unit = str "unit" j && (not e.exact)
             && (str "better" j = if e.higher_better then "higher" else "lower")
             && Option.bind (J.member "bound" j) J.to_float_opt >= Some e.bound)
           Ledger.e2e_metrics))
    (names "end_to_end");
  let a = Compare.records run_a and t = Compare.records traced and b = Compare.records run_b in
  List.iter
    (fun (r : Ledger.result) ->
      List.iter
        (fun (e : Ledger.e2e) ->
          let want = e.e_name = "failed_share" || not e.exact || r.workload = "kv-mixed" in
          if want then check (r.workload ^ ": no " ^ e.e_name) (List.mem_assoc e.e_name r.e2e))
        Ledger.e2e_metrics)
    a;
  let merged = match J.member "layers" (Compare.read_json traced) with Some (J.Obj kvs) -> kvs | _ -> [] in
  let source j = Option.bind (J.member "source" j) (function J.Str s -> Some s | _ -> None) in
  let expected_source m =
    match Ledger.home m with
    | Some h -> h
    | None -> if m = "world.est_share" then Option.get (Ledger.home "runtime.run_us") else "micro"
  in
  List.iter
    (fun (m, _) ->
      if not (Ledger.every_workload m) then
        check ("trace.json: " ^ m ^ " missing or not from " ^ expected_source m)
          (Option.bind (List.assoc_opt m merged) source = Some (expected_source m)))
    Ledger.layer_metrics;
  Option.iter
    (fun (r : Ledger.result) ->
      List.iter
        (fun (m, _) ->
          let want = if Ledger.every_workload m then r.workload else expected_source m in
          check
            (Printf.sprintf "trace-all %s: %s missing or not from %s" r.workload m want)
            (List.mem_assoc m r.layers && Ledger.source_of r m = want))
        Ledger.layer_metrics)
    full;
  List.iter
    (fun (w : Workloads.t) ->
      let digests =
        List.map
          (fun rs -> Option.map (fun (r : Ledger.result) -> r.digest) (List.find_opt (fun (r : Ledger.result) -> r.workload = w.name) rs))
          [ a; t; b ]
      in
      check (w.name ^ ": digests differ across sets or a set is missing")
        (List.for_all (fun d -> d <> None && d = List.hd digests) digests))
    Workloads.all;
  Option.iter
    (fun (r : Ledger.result) ->
      check "trace-all: check-3pc digest differs"
        (List.exists (fun (x : Ledger.result) -> x.workload = r.workload && x.digest = r.digest) a))
    full;
  List.iter
    (fun (w, (e : Ledger.e2e), v) ->
      if e.exact then check (Printf.sprintf "%s %s: %s across identical runs" w e.e_name (Compare.verdict_name v)) (v = Compare.Unchanged))
    (Compare.run ~bounds:(Compare.bounds o.bounds) [ run_a ] [ run_b ]);
  match !failures with
  | [] -> print_endline "perf-smoke: every workload correct untraced and traced, schema and digests agree"
  | fs ->
      List.iter (fun f -> Printf.printf "perf-smoke FAIL %s\n" f) (List.rev fs);
      exit 1

let () =
  let o, cmd =
    match List.tl (Array.to_list Sys.argv) with
    | ("run" | "trace" | "compare" | "smoke") as c :: rest -> (parse rest, c)
    | rest -> (parse rest, "one")
  in
  match cmd with
  | "run" -> if not (snd (all ~mode:`Run o)) then exit 1
  | "trace" -> if not (snd (all ~mode:`Trace o)) then exit 1
  | "compare" -> compare o
  | "smoke" -> smoke o
  | _ -> one o
