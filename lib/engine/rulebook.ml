(** The backup coordinator's rulebook, compiled from the formal analysis.

    Before a protocol is deployed, its reachable state graph is analyzed
    once; the resulting table tells a backup coordinator, for each local
    state it may find itself in, whether the decision rule yields commit,
    abort — or whether the state is a {e blocking} state (its concurrency
    set offers no safe decision, which the fundamental theorem proves can
    only happen in blocking protocols such as 2PC).

    The same compilation keeps the protocol's {!Core.Intern} tables, with
    the verdicts and the final and buffer states laid out per state code:
    the runtime's interpreter and the model checker both execute these. *)

type verdict =
  | Decide of Core.Types.outcome
  | Blocked  (** no safe unilateral decision exists from this state *)
[@@deriving show { with_path = false }, eq]

type t = {
  protocol : Core.Protocol.t;
  codes : Core.Intern.t;
  verdicts : verdict option array array;
      (** site-1 -> state code -> verdict; [None] for a state no
          failure-free run occupies at that site *)
  commit_code : int array;
  abort_code : int array;
  buffer_code : int option array;
  nonblocking : bool;  (** the fundamental theorem's verdict on the protocol *)
  resilience : int;
}

(* The state a site is put in when it learns an outcome: its first
   declared state of the outcome's kind, else the catalog's id for it if
   some other site declares that, else -1 (the protocol declares no such
   state anywhere, so no site can learn that outcome). *)
let final_codes (c : Core.Intern.t) want fallback =
  Array.init c.Core.Intern.n (fun i ->
      let a = Core.Protocol.automaton c.Core.Intern.protocol (i + 1) in
      let id =
        match List.find_opt (fun s -> s.Core.Automaton.kind = want) a.Core.Automaton.states with
        | Some s -> s.Core.Automaton.id
        | None -> fallback
      in
      Option.value ~default:(-1) (Core.Intern.state_code c id))

(** [compile protocol] builds the graph, evaluates the theorem and the
    decision rule for every occupiable (site, state) pair.

    The verdict generalizes the paper's rule so it stays safe {e and}
    coherent across sites (cascading backups must never reach opposite
    decisions from the same state id):

    - {b commit} iff the state is committable and its concurrency set
      contains no abort state — everyone has voted yes and nobody can have
      aborted;
    - otherwise {b abort} iff its concurrency set contains no commit state
      — nobody can have committed;
    - otherwise {b blocked}.

    On the canonical (homogeneous) protocols this coincides with the
    paper's "commit iff the concurrency set contains a commit state": under
    the theorem's condition 2 a concurrency set containing a commit state
    implies committability.  The generalized form additionally lets the
    central-site 3PC coordinator commit from its buffer state [p1] — whose
    exact concurrency set contains no [c] (slaves enter [c] only after the
    coordinator leaves [p1]) yet from which commit is the only decision
    coherent with what a slave backup in [p] would decide. *)
let compile (protocol : Core.Protocol.t) : t =
  let graph = Core.Reachability.build protocol in
  let cs = Core.Concurrency.compute graph in
  let cm = Core.Committable.compute graph in
  let report = Core.Nonblocking.analyze graph in
  let codes = Core.Intern.compile protocol in
  let code_exn id = Option.get (Core.Intern.state_code codes id) in
  let verdicts =
    Array.init codes.Core.Intern.n (fun _ -> Array.make (Core.Intern.n_state_codes codes) None)
  in
  let set site id v = verdicts.(site - 1).(code_exn id) <- Some v in
  List.iter
    (fun site ->
      List.iter
        (fun state ->
          let has_commit = Core.Concurrency.contains_commit cs ~site ~state in
          let has_abort = Core.Concurrency.contains_abort cs ~site ~state in
          let committable = Core.Committable.is_committable cm ~site ~state in
          set site state
            (if committable && not has_abort then Decide Core.Types.Committed
             else if not has_commit then Decide Core.Types.Aborted
             else Blocked))
        (Core.Concurrency.occupied_states cs ~site))
    (Core.Protocol.sites protocol);
  (* Coherence: no state id may yield opposite decisions at two sites —
     successive backup coordinators homogenized by phase 1 would then
     contradict each other.  This can only arise for protocols outside the
     catalog; refuse rather than risk inconsistency. *)
  for code = 0 to Core.Intern.n_state_codes codes - 1 do
    let decides o = Array.exists (fun row -> row.(code) = Some (Decide o)) verdicts in
    if decides Core.Types.Committed && decides Core.Types.Aborted then
      Fmt.invalid_arg "Rulebook.compile: incoherent decisions for state %s of %s"
        (Core.Intern.state_name codes code) protocol.Core.Protocol.name
  done;
  (* Final states decide themselves regardless of concurrency sets. *)
  List.iter
    (fun site ->
      List.iter
        (fun (s : Core.Automaton.state) ->
          match Core.Types.outcome_of_kind s.Core.Automaton.kind with
          | Some o -> set site s.Core.Automaton.id (Decide o)
          | None -> ())
        (Core.Protocol.automaton protocol site).Core.Automaton.states)
    (Core.Protocol.sites protocol);
  {
    protocol;
    codes;
    verdicts;
    commit_code = final_codes codes Core.Types.Commit "c";
    abort_code = final_codes codes Core.Types.Abort "a";
    buffer_code =
      Array.init codes.Core.Intern.n (fun i ->
          List.find_opt
            (fun (s : Core.Automaton.state) -> s.Core.Automaton.kind = Core.Types.Buffer)
            (Core.Protocol.automaton protocol (i + 1)).Core.Automaton.states
          |> Option.map (fun s -> code_exn s.Core.Automaton.id));
    nonblocking = report.Core.Nonblocking.nonblocking;
    resilience = report.Core.Nonblocking.resilience;
  }

let verdict_of_code t ~site ~code =
  match t.verdicts.(site - 1).(code) with Some v -> v | None -> Blocked

(** [verdict t ~site ~state] : what a backup coordinator at [site], finding
    itself in [state], may safely do.  A state never occupied in
    failure-free runs cannot arise; it is conservatively blocked. *)
let verdict t ~site ~state =
  match Core.Intern.state_code t.codes state with
  | Some code -> verdict_of_code t ~site ~code
  | None -> Blocked

let final_code t ~site (o : Core.Types.outcome) =
  match o with Core.Types.Committed -> t.commit_code.(site - 1) | Aborted -> t.abort_code.(site - 1)

let pp ppf t =
  Fmt.pf ppf "@[<v>rulebook for %s (%s, resilience %d):@," t.protocol.Core.Protocol.name
    (if t.nonblocking then "nonblocking" else "blocking")
    t.resilience;
  Array.to_list t.verdicts
  |> List.mapi (fun i row ->
         Array.to_list row
         |> List.mapi (fun code v ->
                Option.map (fun v -> ((i + 1, Core.Intern.state_name t.codes code), v)) v)
         |> List.filter_map Fun.id)
  |> List.concat |> List.sort compare
  |> List.iter (fun ((site, state), v) ->
         Fmt.pf ppf "  site %d, %-4s -> %a@," site state pp_verdict v);
  Fmt.pf ppf "@]"
