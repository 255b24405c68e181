(** The ledger's host clock and in-memory span recorder.

    Every host-time number in the ledger comes from {!now}, bechamel's
    [CLOCK_MONOTONIC] stub — never {!Sim.Clock}, so a change to the
    program under test cannot change the ruler.

    Spans are recorded from the benchmark's own files, around calls into
    each layer's public functions.  They go into preallocated parallel
    arrays and are written out when a workload finishes.  Recording is
    off outside {!record}, so an untraced batch never pays for it. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* The shared host's speed drifts by tens of percent over seconds as
   other tenants come and go, and it slows arithmetic and memory alike.
   A fixed reference kernel — a multiply chain plus random reads over
   8 MB kept outside the OCaml heap, so no change to the program under
   test can speed it up or slow it down — timed next to each batch says
   how slow the host ran then. *)
let reference_words = 1 lsl 20

let reference_mem = Bigarray.Array1.init Bigarray.int Bigarray.c_layout reference_words Fun.id

(* the kernel's time on the 2-vCPU Xeon VM of README.md's Baseline when
   no other tenant is busy *)
let reference_nominal_ns = 7.0e6

(** Time the reference kernel once and return it over its nominal time:
    1.0 on a quiet host, 1.3 when the host runs 30 % slow. *)
let host_slowdown () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 2_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFFF
  done;
  let j = ref 0 and sum = ref 0 in
  for _ = 1 to 400_000 do
    j := ((!j * 1103515245) + 12345) land (reference_words - 1);
    sum := !sum + Bigarray.Array1.unsafe_get reference_mem !j
  done;
  ignore (Sys.opaque_identity (!x + !sum));
  float_of_int (now () - t0) /. reference_nominal_ns

(* Span names are interned once, when the module naming them
   initialises, so recording never hashes a string. *)
let names : (int, string) Hashtbl.t = Hashtbl.create 16

let register name =
  let id = Hashtbl.length names in
  Hashtbl.add names id name;
  id

type buffer = {
  name : int array;
  item : int array;
  parent : int array;
  start : int array;
  stop : int array;
  words : float array;
}

let alloc capacity =
  {
    name = Array.make capacity 0;
    item = Array.make capacity 0;
    parent = Array.make capacity (-1);
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    words = Array.make capacity 0.0;
  }

let buf = ref (alloc 0)
let next = ref 0
let current = ref (-1)
let enabled = ref false

(** Drop every recorded span and preallocate room for [capacity]. *)
let reset ~capacity =
  buf := alloc capacity;
  next := 0;
  current := -1

(** [record f] runs [f] with recording on. *)
let record f =
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := false) f

(* Doubling when full keeps every span; it is rare because [reset]
   preallocates for the expected count. *)
let grow () =
  let b = !buf and n = Array.length !buf.name in
  let b' = alloc (2 * max 1 n) in
  Array.blit b.name 0 b'.name 0 n;
  Array.blit b.item 0 b'.item 0 n;
  Array.blit b.parent 0 b'.parent 0 n;
  Array.blit b.start 0 b'.start 0 n;
  Array.blit b.stop 0 b'.stop 0 n;
  Array.blit b.words 0 b'.words 0 n;
  buf := b'

(** [span id ~item f] runs [f]; when recording, it stores [f]'s wall
    interval, its parent (the innermost open span) and the minor words
    it allocated. *)
let span id ~item f =
  if not !enabled then f ()
  else begin
    if !next >= Array.length !buf.name then grow ();
    let b = !buf and i = !next in
    incr next;
    let parent = !current in
    b.name.(i) <- id;
    b.item.(i) <- item;
    b.parent.(i) <- parent;
    current := i;
    let w0 = Gc.minor_words () in
    b.start.(i) <- now ();
    let close () =
      (* [grow] may have replaced the arrays while [f] ran *)
      let b = !buf in
      b.stop.(i) <- now ();
      b.words.(i) <- Gc.minor_words () -. w0;
      current := parent
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** Per-name totals over the recorded spans: calls, summed duration,
    summed self time (duration minus what direct children cover) and
    summed minor words. *)
type stat = { calls : int; total_ns : int; self_ns : int; words : float }

let stats () =
  let b = !buf and n = !next in
  let child_ns = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = b.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + (b.stop.(i) - b.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let d = b.stop.(i) - b.start.(i) in
    let s =
      Option.value (Hashtbl.find_opt tbl b.name.(i))
        ~default:{ calls = 0; total_ns = 0; self_ns = 0; words = 0.0 }
    in
    Hashtbl.replace tbl b.name.(i)
      {
        calls = s.calls + 1;
        total_ns = s.total_ns + d;
        self_ns = s.self_ns + d - child_ns.(i);
        words = s.words +. b.words.(i);
      }
  done;
  Hashtbl.fold (fun id s acc -> (Hashtbl.find names id, s) :: acc) tbl [] |> List.sort compare

(** One JSON object per span, in recording order. *)
let write_jsonl file =
  let b = !buf in
  Out_channel.with_open_text file (fun oc ->
      for i = 0 to !next - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"item\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f}\n"
          i (Hashtbl.find names b.name.(i)) b.item.(i) b.parent.(i) b.start.(i) b.stop.(i)
          b.words.(i)
      done)
