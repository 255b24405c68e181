(** Exhaustive model checking of a commit protocol {e with failures} and
    the termination protocol layered on top.

    The paper notes that "failures cause an exponential growth in the
    number of reachable global states" and sidesteps building that graph;
    this module builds it anyway, for small site counts and a bounded
    number of crashes, and verifies over {e every} interleaving what the
    simulation sweeps can only sample:

    - {b safety}: no reachable global state mixes a committed site with an
      aborted one (counting the last forced-log state of crashed sites —
      a coordinator that logged its commit and died counts as committed);
    - {b termination} (for nonblocking protocols): in every terminal
      state, every operational site has reached a final state.

    The model extends the paper's global states with: fail-stop crashes
    (with partially completed transitions: the log forced first, then any
    prefix of the emitted messages), an instantaneous accurate failure
    detector, the backup election (lowest operational site), the
    two-phase backup protocol of the paper driven by the compiled
    {!Rulebook}, and partial broadcasts by crashing backups.  Recoveries
    are not modelled (a recovered site only queries; it cannot affect
    safety of the operational sites' decisions).

    Termination-protocol messages ride the same network multiset as
    protocol messages, under reserved names ("!move:…", "!mack",
    "!decide:…") no catalog FSA matches.

    {b Engine.}  Exploration runs entirely over {!Core.Intern}'s compact
    encoding: state ids and message names are the small ints the
    {!Rulebook} interned at compile time (its verdict, final-state and
    buffer-state tables are indexed by them, shared with {!Runtime}),
    whole messages pack into single ints (termination messages become
    tagged name codes above the protocol's — no prefix-string parsing on
    the hot path), and each global state packs into one
    [int array] that {!Core.Intern.Store} dedups: varints in a byte arena
    under an open-addressing index, with dense indices in discovery
    order.  The BFS frontier is therefore the index range of states not
    yet popped; each popped state is decoded once from the arena, and a
    [parent] index array gives counterexample paths.  The original
    string-keyed engine survives as {!Model_check_ref}; differential
    tests assert both produce identical [explored] counts and verdicts,
    a golden table pins every verdict and reported state over the
    catalog, and [Packed] below exposes the codec for round-trip
    tests. *)

module MS = Core.Message.Multiset

type st = {
  locals : string array;  (** last forced-log state per site *)
  voted : bool array;
  alive : bool array;
  aware : bool array;
      (** per site: has its failure detector reported some crash yet?
          Detection is asynchronous, so awareness spreads
          nondeterministically; an aware site freezes its commit-protocol
          FSA (the protocol is impaired) and may act as backup *)
  crashes_left : int;
  network : MS.t;
  moving : (string * int list) option array;
      (** per site: as backup coordinator, phase 1 in flight —
          (move target, sites whose acks are still awaited) *)
  polling : (int list * (int * string) list) option array;
      (** quorum rule only: a state poll in flight — (sites whose replies
          are awaited, replies so far) *)
  polled : bool array;
      (** quorum rule only: this site already ran its one poll (no retry:
          a below-quorum backup stays blocked, making blocking visible as
          a terminal state) *)
  epoch : int array;
      (** highest-ranked backup each site has obeyed.  Successive backups
          have strictly increasing ranks under fail-stop, so moves from
          lower ranks are stale directives from deposed backups and are
          discarded — without this, a stale move re-promotes a participant
          out of the current backup's state (found at n=4, k=3). *)
}

type config = {
  rulebook : Rulebook.t;
  max_crashes : int;
  limit : int;  (** abort exploration past this many states *)
  rule : [ `Skeen | `Quorum of int ];
      (** how backups decide — the paper's rule, or quorum termination *)
}

type report = {
  explored : int;
  inconsistent : st list;
  blocked_terminals : st list;
  safe : bool;
  nonblocking : bool;
  counterexample : st list option;  (** path from the initial state to the first inconsistency *)
}

module I = Core.Intern

(* ---------------- interned context ---------------- *)

(* Termination-message name codes are laid out above the protocol's
   interned message names (codes < [base] are protocol messages):

     base+0            !mack
     base+1            !streq
     base+2 / base+3   !decide:c / !decide:a
     base+4+s          !move:<state s>      (s < n_state_codes)
     base+4+S+s        !strep:<state s>

   so a whole termination message still packs into one int via the
   shared [(name * (n+1) + src) * (n+1) + dst] codec. *)
type ctx = {
  rb : Rulebook.t;  (** verdicts, final and buffer state codes per site *)
  c : I.t;  (** [rb.codes] *)
  n : int;
  base : int;  (** first termination name code *)
  s_codes : int;  (** number of interned state ids *)
  full_alive : int;  (** bitset of all n sites *)
}

let make_ctx (rb : Rulebook.t) : ctx =
  let c = rb.Rulebook.codes in
  {
    rb;
    c;
    n = c.I.n;
    base = I.size c.I.msg_names;
    s_codes = I.n_state_codes c;
    full_alive = (1 lsl c.I.n) - 1;
  }

(* termination name codes *)
let mack_nc ctx = ctx.base
let streq_nc ctx = ctx.base + 1
let decide_nc ctx (o : Core.Types.outcome) =
  match o with Core.Types.Committed -> ctx.base + 2 | Aborted -> ctx.base + 3

let move_nc ctx state = ctx.base + 4 + state
let strep_nc ctx state = ctx.base + 4 + ctx.s_codes + state
let is_term ctx code = I.msg_name_code ctx.c code >= ctx.base
let is_move_nc ctx nc = nc >= ctx.base + 4 && nc < ctx.base + 4 + ctx.s_codes
let is_strep_nc ctx nc = nc >= ctx.base + 4 + ctx.s_codes
let move_target_nc ctx nc = nc - ctx.base - 4
let strep_state_nc ctx nc = nc - ctx.base - 4 - ctx.s_codes

let kind_exn ctx i code =
  match ctx.c.I.kinds.(i).(code) with
  | Some k -> k
  | None ->
      Fmt.invalid_arg "Model_check: state %s not declared at site %d" (I.state_name ctx.c code)
        (i + 1)

let term_name ctx nc =
  if nc = mack_nc ctx then "!mack"
  else if nc = streq_nc ctx then "!streq"
  else if nc = ctx.base + 2 then "!decide:c"
  else if nc = ctx.base + 3 then "!decide:a"
  else if is_move_nc ctx nc then "!move:" ^ I.state_name ctx.c (move_target_nc ctx nc)
  else "!strep:" ^ I.state_name ctx.c (strep_state_nc ctx nc)

let term_name_code ctx name =
  let state_code_exn id =
    match I.state_code ctx.c id with
    | Some x -> x
    | None -> Fmt.invalid_arg "Model_check: unknown state id %S" id
  in
  let has_prefix p = String.length name > String.length p && String.sub name 0 (String.length p) = p in
  let after p = String.sub name (String.length p) (String.length name - String.length p) in
  if name = "!mack" then mack_nc ctx
  else if name = "!streq" then streq_nc ctx
  else if name = "!decide:c" then ctx.base + 2
  else if name = "!decide:a" then ctx.base + 3
  else if has_prefix "!move:" then move_nc ctx (state_code_exn (after "!move:"))
  else if has_prefix "!strep:" then strep_nc ctx (state_code_exn (after "!strep:"))
  else Fmt.invalid_arg "Model_check: unknown termination message %S" name

(* ---------------- interned working state ---------------- *)

(* The working representation during exploration: bitsets for the boolean
   arrays (record copies are then free), int codes everywhere, the
   network a sorted int array.  [moving]/[polling] keep the reference
   engine's list shapes — and crucially its list {e orders} — so state
   identity matches [Model_check_ref.equal_st] exactly: the awaiting and
   reps lists there compare order-sensitively, and reps order feeds the
   quorum rule's [to_move]. *)
type ist = {
  ilocals : int array;  (** state code per site *)
  ivoted : int;
  ialive : int;
  iaware : int;
  ipolled : int;
  icrashes : int;
  inet : int array;  (** sorted message codes *)
  imoving : (int * int list) option array;  (** (target code, awaiting sites) *)
  ipolling : (int list * int list) option array;
      (** (awaiting sites, reps); a rep packs as [src * s_codes + state code] *)
  iepoch : int array;
}

let rep_pack ctx ~src ~code = (src * ctx.s_codes) + code
let rep_src ctx r = r / ctx.s_codes
let rep_code ctx r = r mod ctx.s_codes

(* ---------------- packed canonical encoding ---------------- *)

(* Layout (variable-length sections carry explicit lengths, so the
   encoding is injective):
     [0]  crashes_left    [1] voted  [2] alive  [3] aware  [4] polled
     [5 .. 5+n-1]         locals
     [5+n .. 5+2n-1]      epoch
     moving  mask; per set bit (ascending site): target, |awaiting|, awaiting…
     polling mask; per set bit: |awaiting|, awaiting…, |reps|, reps…
     network codes (the remaining tail) *)

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }
  let clear b = b.len <- 0

  let reserve b extra =
    if b.len + extra > Array.length b.a then begin
      let cap = ref (2 * Array.length b.a) in
      while b.len + extra > !cap do
        cap := 2 * !cap
      done;
      let a = Array.make !cap 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end

  let push b x =
    reserve b 1;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let blit b src =
    let k = Array.length src in
    reserve b k;
    Array.blit src 0 b.a b.len k;
    b.len <- b.len + k
end

let pack_into ctx (buf : Ibuf.t) (s : ist) =
  let n = ctx.n in
  Ibuf.clear buf;
  Ibuf.push buf s.icrashes;
  Ibuf.push buf s.ivoted;
  Ibuf.push buf s.ialive;
  Ibuf.push buf s.iaware;
  Ibuf.push buf s.ipolled;
  Ibuf.blit buf s.ilocals;
  Ibuf.blit buf s.iepoch;
  let mask = ref 0 in
  for i = 0 to n - 1 do
    if s.imoving.(i) <> None then mask := !mask lor (1 lsl i)
  done;
  Ibuf.push buf !mask;
  for i = 0 to n - 1 do
    match s.imoving.(i) with
    | None -> ()
    | Some (target, awaiting) ->
        Ibuf.push buf target;
        Ibuf.push buf (List.length awaiting);
        List.iter (Ibuf.push buf) awaiting
  done;
  mask := 0;
  for i = 0 to n - 1 do
    if s.ipolling.(i) <> None then mask := !mask lor (1 lsl i)
  done;
  Ibuf.push buf !mask;
  for i = 0 to n - 1 do
    match s.ipolling.(i) with
    | None -> ()
    | Some (awaiting, reps) ->
        Ibuf.push buf (List.length awaiting);
        List.iter (Ibuf.push buf) awaiting;
        Ibuf.push buf (List.length reps);
        List.iter (Ibuf.push buf) reps
  done;
  Ibuf.blit buf s.inet

let unpack ctx (data : int array) : ist =
  let n = ctx.n in
  let pos = ref (5 + (2 * n)) in
  let take () =
    let x = data.(!pos) in
    incr pos;
    x
  in
  let take_list () = List.init (take ()) (fun _ -> take ()) in
  let moving_mask = take () in
  let imoving =
    Array.init n (fun i ->
        if moving_mask land (1 lsl i) = 0 then None
        else begin
          let target = take () in
          Some (target, take_list ())
        end)
  in
  let polling_mask = take () in
  let ipolling =
    Array.init n (fun i ->
        if polling_mask land (1 lsl i) = 0 then None
        else begin
          let awaiting = take_list () in
          let reps = take_list () in
          Some (awaiting, reps)
        end)
  in
  {
    icrashes = data.(0);
    ivoted = data.(1);
    ialive = data.(2);
    iaware = data.(3);
    ipolled = data.(4);
    ilocals = Array.sub data 5 n;
    iepoch = Array.sub data (5 + n) n;
    imoving;
    ipolling;
    inet = Array.sub data !pos (Array.length data - !pos);
  }

(* ---------------- interned <-> public state ---------------- *)

let decode_tmsg ctx code =
  let nc = I.msg_name_code ctx.c code in
  let name = if nc < ctx.base then I.name_of ctx.c.I.msg_names nc else term_name ctx nc in
  Core.Message.make ~name ~src:(I.msg_src ctx.c code) ~dst:(I.msg_dst ctx.c code)

let encode_tmsg ctx (m : Core.Message.t) =
  let name =
    if String.length m.Core.Message.name > 0 && m.Core.Message.name.[0] = '!' then
      term_name_code ctx m.Core.Message.name
    else
      match I.find ctx.c.I.msg_names m.Core.Message.name with
      | Some nc -> nc
      | None -> Fmt.invalid_arg "Model_check: unknown message name %S" m.Core.Message.name
  in
  I.msg_code ctx.c ~name ~src:m.Core.Message.src ~dst:m.Core.Message.dst

let to_public ctx (s : ist) : st =
  let n = ctx.n in
  let bit set i = set land (1 lsl i) <> 0 in
  {
    locals = Array.init n (fun i -> I.state_name ctx.c s.ilocals.(i));
    voted = Array.init n (bit s.ivoted);
    alive = Array.init n (bit s.ialive);
    aware = Array.init n (bit s.iaware);
    crashes_left = s.icrashes;
    network = MS.of_list (Array.to_list (Array.map (decode_tmsg ctx) s.inet));
    moving =
      Array.map
        (Option.map (fun (target, awaiting) -> (I.state_name ctx.c target, awaiting)))
        s.imoving;
    polling =
      Array.map
        (Option.map (fun (awaiting, reps) ->
             ( awaiting,
               List.map (fun r -> (rep_src ctx r, I.state_name ctx.c (rep_code ctx r))) reps )))
        s.ipolling;
    polled = Array.init n (bit s.ipolled);
    epoch = Array.copy s.iepoch;
  }

let of_public ctx (s : st) : ist =
  let bits a =
    let x = ref 0 in
    Array.iteri (fun i b -> if b then x := !x lor (1 lsl i)) a;
    !x
  in
  let state_code_exn id =
    match I.state_code ctx.c id with
    | Some x -> x
    | None -> Fmt.invalid_arg "Model_check: unknown state id %S" id
  in
  let inet = Array.of_list (List.map (encode_tmsg ctx) (MS.to_list s.network)) in
  Array.sort compare inet;
  {
    ilocals = Array.map state_code_exn s.locals;
    ivoted = bits s.voted;
    ialive = bits s.alive;
    iaware = bits s.aware;
    ipolled = bits s.polled;
    icrashes = s.crashes_left;
    inet;
    imoving = Array.map (Option.map (fun (t, aw) -> (state_code_exn t, aw))) s.moving;
    ipolling =
      Array.map
        (Option.map (fun (aw, reps) ->
             (aw, List.map (fun (src, id) -> rep_pack ctx ~src ~code:(state_code_exn id)) reps)))
        s.polling;
    iepoch = Array.copy s.epoch;
  }

(* ---------------- the checker ---------------- *)

let run (cfg : config) : report =
  let ctx = make_ctx cfg.rulebook in
  let c = ctx.c in
  let n = ctx.n in
  let decided s i = Core.Types.is_final (kind_exn ctx i s.ilocals.(i)) in
  let site_outcome s i = Core.Types.outcome_of_kind (kind_exn ctx i s.ilocals.(i)) in
  let alive s i = s.ialive land (1 lsl i) <> 0 in
  (* the elected backup: lowest operational site (no recoveries, so
     operational = never crashed) *)
  let leader s =
    let rec go i = if i >= n then -1 else if alive s i then i else go (i + 1) in
    go 0
  in
  let some_crash s = s.ialive <> ctx.full_alive in
  (* drop messages whose target is dead (reliable network: undeliverable) *)
  let deliverable s (codes : int array) =
    let kept = ref 0 in
    Array.iter (fun m -> if alive s (I.msg_dst c m - 1) then incr kept) codes;
    if !kept = Array.length codes then codes
    else begin
      let out = Array.make !kept 0 in
      let k = ref 0 in
      Array.iter
        (fun m ->
          if alive s (I.msg_dst c m - 1) then begin
            out.(!k) <- m;
            incr k
          end)
        codes;
      out
    end
  in
  let final_code i o = Rulebook.final_code ctx.rb ~site:(i + 1) o in

  (* ---- successor enumeration ----
     A transcription of [Model_check_ref]'s successor function over the
     interned representation; every branch mirrors the reference 1:1 so
     the explored state set is identical.  [push] is the caller's sink —
     successors are packed and deduped as they are produced rather than
     collected into a list. *)
  let successors s push =
    for i = 0 to n - 1 do
      if alive s i then begin
        let bit = 1 lsl i in
        (* 1. protocol FSA steps, complete and (if crash budget remains)
           partially completed.  A backup coordinator with phase 1 in
           flight is frozen: its decision must come from the state it
           moved everyone to, not from wherever a stale protocol message
           would drift it (the runtime enforces the same freeze by not
           firing the FSA outside Normal mode — an earlier version of
           this model omitted it and the checker produced a genuine
           split-brain counterexample through exactly that hole) *)
        if (not (decided s i)) && s.imoving.(i) = None && s.iaware land bit = 0 then begin
          let trs = c.I.trans.(i).(s.ilocals.(i)) in
          for ti = 0 to Array.length trs - 1 do
            let tr = trs.(ti) in
            match I.Net.remove_all tr.I.c_consumes s.inet with
            | None -> ()
            | Some base_net ->
                let ilocals = Array.copy s.ilocals in
                ilocals.(i) <- tr.I.c_to;
                let ivoted = if tr.I.c_vote_yes then s.ivoted lor bit else s.ivoted in
                (* complete transition *)
                push
                  {
                    s with
                    ilocals;
                    ivoted;
                    inet = I.Net.add_all (deliverable s tr.I.c_emits_sorted) base_net;
                  };
                (* crash after forcing the log, having sent only the first
                   k messages, for every k *)
                if s.icrashes > 0 then
                  for k = 0 to Array.length tr.I.c_emits do
                    let sent =
                      let pfx = Array.sub tr.I.c_emits 0 k in
                      Array.sort compare pfx;
                      deliverable s pfx
                    in
                    let imoving = Array.copy s.imoving in
                    imoving.(i) <- None;
                    let ipolling = Array.copy s.ipolling in
                    ipolling.(i) <- None;
                    push
                      {
                        s with
                        ilocals;
                        ivoted;
                        ialive = s.ialive land lnot bit;
                        icrashes = s.icrashes - 1;
                        inet = I.Net.add_all sent base_net;
                        imoving;
                        ipolling;
                      }
                  done
          done
        end;
        (* 2. spontaneous crash (before any transition) *)
        if s.icrashes > 0 then begin
          let imoving = Array.copy s.imoving in
          imoving.(i) <- None;
          let ipolling = Array.copy s.ipolling in
          ipolling.(i) <- None;
          push
            { s with ialive = s.ialive land lnot bit; icrashes = s.icrashes - 1; imoving; ipolling }
        end;
        (* 2b. failure detection: after any crash, each site becomes aware
           at a nondeterministic moment; from then on its commit-protocol
           FSA is frozen and it may serve as backup coordinator *)
        if some_crash s && s.iaware land bit = 0 then push { s with iaware = s.iaware lor bit };
        (* 3. termination-message deliveries addressed to site i+1 *)
        for j = 0 to Array.length s.inet - 1 do
          let m = s.inet.(j) in
          if I.msg_dst c m = i + 1 && is_term ctx m then begin
            let net = I.Net.remove_index j s.inet in
            (* receiving a termination message is itself awareness *)
            let s = if s.iaware land bit <> 0 then s else { s with iaware = s.iaware lor bit } in
            let nc = I.msg_name_code c m in
            let src = I.msg_src c m in
            if is_move_nc ctx nc then begin
              if src < s.iepoch.(i) then
                (* stale directive from a deposed backup: discard *)
                push { s with inet = net }
              else if decided s i then
                (* answer with the outcome instead of an ack *)
                (match site_outcome s i with
                | Some o ->
                    let reply = I.msg_code c ~name:(decide_nc ctx o) ~src:(i + 1) ~dst:src in
                    let inet =
                      if alive s (src - 1) then I.Net.add_one reply net else net
                    in
                    push { s with inet }
                | None -> assert false)
              else begin
                let ilocals = Array.copy s.ilocals in
                ilocals.(i) <- move_target_nc ctx nc;
                let iepoch = Array.copy s.iepoch in
                iepoch.(i) <- src;
                let ack = I.msg_code c ~name:(mack_nc ctx) ~src:(i + 1) ~dst:src in
                let inet = if alive s (src - 1) then I.Net.add_one ack net else net in
                push { s with ilocals; iepoch; inet }
              end
            end
            else if nc = mack_nc ctx then (
              match s.imoving.(i) with
              | Some (target, awaiting) when List.mem src awaiting ->
                  let awaiting = List.filter (fun x -> x <> src) awaiting in
                  let imoving = Array.copy s.imoving in
                  imoving.(i) <- Some (target, awaiting);
                  push { s with inet = net; imoving }
              | _ -> push { s with inet = net })
            else if nc = streq_nc ctx then begin
              (* quorum poll: report the current local state *)
              let reply =
                I.msg_code c ~name:(strep_nc ctx s.ilocals.(i)) ~src:(i + 1) ~dst:src
              in
              let inet = if alive s (src - 1) then I.Net.add_one reply net else net in
              push { s with inet }
            end
            else if is_strep_nc ctx nc then (
              match s.ipolling.(i) with
              | Some (awaiting, reps) when List.mem src awaiting ->
                  let awaiting = List.filter (fun x -> x <> src) awaiting in
                  let ipolling = Array.copy s.ipolling in
                  ipolling.(i) <-
                    Some (awaiting, rep_pack ctx ~src ~code:(strep_state_nc ctx nc) :: reps);
                  push { s with inet = net; ipolling }
              | _ -> push { s with inet = net })
            else begin
              (* a decide *)
              let o =
                if nc = ctx.base + 2 then Core.Types.Committed else Core.Types.Aborted
              in
              if decided s i then push { s with inet = net }
              else begin
                let ilocals = Array.copy s.ilocals in
                ilocals.(i) <- final_code i o;
                let imoving = Array.copy s.imoving in
                imoving.(i) <- None;
                push { s with ilocals; inet = net; imoving }
              end
            end
          end
        done;
        (* 4. backup coordinator actions at the elected leader, once it is
           aware of a failure *)
        if leader s = i && some_crash s && s.iaware land bit <> 0 then begin
          let others = List.init n (fun j -> j) |> List.filter (fun j -> j <> i && alive s j) in
          (* broadcast helper with partial-crash variants.  All broadcasts
             send one name from src i+1 to ascending destinations, so the
             code array is sorted, as is any prefix of it. *)
          let broadcast name after =
            let msgs =
              Array.of_list (List.map (fun j -> I.msg_code c ~name ~src:(i + 1) ~dst:(j + 1)) others)
            in
            (* complete broadcast *)
            push (after { s with inet = I.Net.add_all (deliverable s msgs) s.inet });
            if s.icrashes > 0 then
              for k = 0 to Array.length msgs do
                let sent = deliverable s (Array.sub msgs 0 k) in
                let s' = after { s with inet = I.Net.add_all sent s.inet } in
                let imoving = Array.copy s'.imoving in
                imoving.(i) <- None;
                let ipolling = Array.copy s'.ipolling in
                ipolling.(i) <- None;
                push
                  {
                    s' with
                    ialive = s'.ialive land lnot bit;
                    icrashes = s.icrashes - 1;
                    imoving;
                    ipolling;
                  }
              done
          in
          match s.imoving.(i) with
          | Some (_, awaiting) ->
              (* phase 1 in flight: complete it when every awaited site is
                 acked or dead *)
              if List.for_all (fun j -> not (alive s (j - 1))) awaiting then begin
                match Rulebook.verdict_of_code ctx.rb ~site:(i + 1) ~code:s.ilocals.(i) with
                | Rulebook.Decide o ->
                    let ilocals = Array.copy s.ilocals in
                    ilocals.(i) <- final_code i o;
                    let imoving = Array.copy s.imoving in
                    imoving.(i) <- None;
                    broadcast (decide_nc ctx o) (fun s -> { s with ilocals; imoving })
                | Rulebook.Blocked -> ()
              end
          | None ->
              if decided s i then begin
                (* already final: phase 1 omitted; announce, but only if
                   someone still needs it and no announcement is already
                   in flight (keeps the graph finite) *)
                match site_outcome s i with
                | Some o ->
                    let dnc = decide_nc ctx o in
                    let needed =
                      List.exists
                        (fun j ->
                          (not (decided s j))
                          && not
                               (Array.exists
                                  (fun m ->
                                    I.msg_dst c m = j + 1 && I.msg_name_code c m = dnc)
                                  s.inet))
                        others
                    in
                    if needed then broadcast dnc (fun s -> s)
                | None -> assert false
              end
              else begin
                match cfg.rule with
                | `Skeen -> (
                    match Rulebook.verdict_of_code ctx.rb ~site:(i + 1) ~code:s.ilocals.(i) with
                    | Rulebook.Decide _ ->
                        (* phase 1: move everyone to our state — only once
                           per configuration (no move already in flight
                           from us) *)
                        let already =
                          Array.exists
                            (fun m ->
                              I.msg_src c m = i + 1 && is_move_nc ctx (I.msg_name_code c m))
                            s.inet
                        in
                        if not already then begin
                          let target = s.ilocals.(i) in
                          let imoving = Array.copy s.imoving in
                          imoving.(i) <- Some (target, List.map (fun j -> j + 1) others);
                          let iepoch = Array.copy s.iepoch in
                          iepoch.(i) <- max iepoch.(i) (i + 1);
                          broadcast (move_nc ctx target) (fun s -> { s with imoving; iepoch })
                        end
                    | Rulebook.Blocked -> ())
                | `Quorum q -> (
                    match s.ipolling.(i) with
                    | None ->
                        if s.ipolled land bit = 0 then begin
                          (* start the (single) state poll *)
                          let ipolling = Array.copy s.ipolling in
                          ipolling.(i) <- Some (List.map (fun j -> j + 1) others, []);
                          let iepoch = Array.copy s.iepoch in
                          iepoch.(i) <- max iepoch.(i) (i + 1);
                          broadcast (streq_nc ctx) (fun s ->
                              { s with ipolled = s.ipolled lor bit; ipolling; iepoch })
                        end
                    | Some (awaiting, reps)
                      when awaiting = [] || List.for_all (fun j -> not (alive s (j - 1))) awaiting
                      -> (
                        (* the view is complete: decide by counts, moves
                           monotone (never demoting a precommit) *)
                        let view = rep_pack ctx ~src:(i + 1) ~code:s.ilocals.(i) :: reps in
                        let kinds =
                          List.map (fun r -> kind_exn ctx (rep_src ctx r - 1) (rep_code ctx r)) view
                        in
                        let commit_decide o =
                          let ilocals = Array.copy s.ilocals in
                          ilocals.(i) <- final_code i o;
                          let ipolling = Array.copy s.ipolling in
                          ipolling.(i) <- None;
                          broadcast (decide_nc ctx o) (fun s -> { s with ilocals; ipolling })
                        in
                        let prepared_up =
                          List.length
                            (List.filter
                               (fun k -> k = Core.Types.Buffer || Core.Types.is_commit k)
                               kinds)
                        in
                        if List.exists Core.Types.is_commit kinds then
                          commit_decide Core.Types.Committed
                        else if List.exists Core.Types.is_abort kinds then
                          commit_decide Core.Types.Aborted
                        else if prepared_up >= q then begin
                          (* move the view up to the buffer state, then the
                             shared phase-1 completion commits *)
                          match ctx.rb.Rulebook.buffer_code.(i) with
                          | Some target ->
                              let ilocals = Array.copy s.ilocals in
                              ilocals.(i) <- target;
                              let ipolling = Array.copy s.ipolling in
                              ipolling.(i) <- None;
                              let to_move =
                                List.filter_map
                                  (fun r ->
                                    let src = rep_src ctx r in
                                    if src <> i + 1 && alive s (src - 1) && rep_code ctx r <> target
                                    then Some src
                                    else None)
                                  reps
                              in
                              let imoving = Array.copy s.imoving in
                              imoving.(i) <- Some (target, to_move);
                              let iepoch = Array.copy s.iepoch in
                              iepoch.(i) <- max iepoch.(i) (i + 1);
                              (* the move goes to every other operational
                                 site — a harmless re-move for
                                 already-buffered ones keeps the broadcast
                                 uniform *)
                              broadcast (move_nc ctx target) (fun s ->
                                  { s with ilocals; ipolling; imoving; iepoch })
                          | None -> ()
                        end
                        else if
                          List.length kinds - prepared_up >= q
                          && ctx.rb.Rulebook.buffer_code.(i) <> None
                          (* the unprepared-quorum abort is sound only when
                             committing requires a quorum-visible buffer
                             phase; without one (2PC) only visible outcomes
                             may decide *)
                        then commit_decide Core.Types.Aborted
                        else (* below quorum either way: blocked *) ())
                    | Some _ -> ())
              end
        end
      end
    done
  in

  (* ---- BFS over the state store ----
     States are interned in discovery order and popped in FIFO order, so
     the frontier is the index range [next .. Store.length store - 1]:
     no queue, and each popped state is decoded once from the arena. *)
  let init =
    {
      ilocals = Array.copy c.I.initial_locals;
      ivoted = 0;
      ialive = ctx.full_alive;
      iaware = 0;
      ipolled = 0;
      icrashes = cfg.max_crashes;
      inet = Array.copy c.I.initial_net;
      imoving = Array.make n None;
      ipolling = Array.make n None;
      iepoch = Array.make n 0;
    }
  in
  let store = I.Store.create () in
  let parent = ref (Array.make 4096 (-1)) in
  let buf = Ibuf.create () in
  let intern_state parent_ix s =
    pack_into ctx buf s;
    let fresh = I.Store.length store in
    if I.Store.intern store buf.Ibuf.a ~len:buf.Ibuf.len = fresh then begin
      if fresh >= Array.length !parent then begin
        let grown = Array.make (2 * fresh) (-1) in
        Array.blit !parent 0 grown 0 fresh;
        parent := grown
      end;
      !parent.(fresh) <- parent_ix
    end
  in
  intern_state (-1) init;
  let next = ref 0 in
  let inconsistent = ref [] and blocked_terminals = ref [] in
  while !next < I.Store.length store do
    let ix = !next in
    incr next;
    if !next > cfg.limit then failwith "Model_check.run: state limit exceeded";
    let s = unpack ctx (I.Store.get store ix) in
    (* safety: mixed outcomes across ALL sites (crashed sites' last forced
       log state counts) *)
    let commit = ref false and abort = ref false in
    Array.iteri
      (fun i code ->
        let k = kind_exn ctx i code in
        if Core.Types.is_commit k then commit := true;
        if Core.Types.is_abort k then abort := true)
      s.ilocals;
    if !commit && !abort then inconsistent := ix :: !inconsistent;
    let n_succ = ref 0 in
    successors s (fun succ ->
        incr n_succ;
        intern_state ix succ);
    if !n_succ = 0 then begin
      (* terminal: every operational site should have decided *)
      let blocked = ref false in
      for i = 0 to n - 1 do
        if s.ialive land (1 lsl i) <> 0 && not (decided s i) then blocked := true
      done;
      if !blocked then blocked_terminals := ix :: !blocked_terminals
    end
  done;
  let decode ix = to_public ctx (unpack ctx (I.Store.get store ix)) in
  let path_to target =
    let rec go ix acc =
      let acc = decode ix :: acc in
      if !parent.(ix) < 0 then acc else go !parent.(ix) acc
    in
    go target []
  in
  {
    explored = !next;
    inconsistent = List.map decode !inconsistent;
    blocked_terminals = List.map decode !blocked_terminals;
    safe = !inconsistent = [];
    nonblocking = !blocked_terminals = [];
    counterexample =
      (match !inconsistent with [] -> None | ix :: _ -> Some (path_to ix));
  }

(* ---------------- packed codec, exposed for round-trip tests ---------------- *)

module Packed = struct
  type nonrec ctx = ctx

  let ctx rulebook = make_ctx rulebook
  let encode ctx s =
    let buf = Ibuf.create () in
    pack_into ctx buf (of_public ctx s);
    Array.sub buf.Ibuf.a 0 buf.Ibuf.len
  let decode ctx data = to_public ctx (unpack ctx data)
end

let pp_st ppf st =
  Fmt.pf ppf "<%a | alive=%a | %a>"
    Fmt.(array ~sep:comma string)
    st.locals
    Fmt.(array ~sep:comma bool)
    st.alive MS.pp st.network

let pp_report ppf r =
  Fmt.pf ppf "@[<v>explored %d states@,inconsistent: %d@,blocked terminals: %d@,safe: %b@,nonblocking: %b@]"
    r.explored (List.length r.inconsistent)
    (List.length r.blocked_terminals)
    r.safe r.nonblocking
