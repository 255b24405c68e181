(** Exhaustive model checking of a commit protocol with failures and the
    termination protocol on top; the interface describes the model.

    Termination-protocol messages ride the same network multiset as
    protocol messages, under reserved names no catalog FSA matches:
    "!move:<state>", "!mack", "!streq", "!strep:<state>", "!decide:c" and
    "!decide:a".

    {b Engine.}  Exploration runs entirely over {!Core.Intern}'s compact
    encoding: state ids and message names are the small ints the
    {!Rulebook} interned at compile time (its verdict, final-state and
    buffer-state tables are indexed by them, shared with {!Runtime}),
    termination messages become tagged name codes above the protocol's so
    a whole message packs into one int, and each global state packs into
    one [int array] that {!Core.Intern.Store} dedups: varints in a byte
    arena under an open-addressing index, with dense indices in discovery
    order.  The BFS frontier is therefore the index range of states not
    yet popped, and a [parent] index array gives counterexample paths.
    Each popped state is decoded once, into arrays reused from pop to pop,
    and each successor is packed in place from it plus one site's edit:
    no successor is built as a value, and a visit allocates only what the
    {!Termination} rules return.  The initial state, the BFS and [Packed]
    below (the codec, exposed for round-trip tests) share one packer and
    one decoder.  The original string-keyed engine survives as
    {!Model_check_ref}; differential tests assert both produce identical
    [explored] counts and verdicts, and a golden table pins every verdict
    and reported state over the catalog and an unsafe protocol. *)

module MS = Core.Message.Multiset

(* the public state; its fields are documented in the interface *)
type st = {
  locals : string array;
  voted : bool array;
  alive : bool array;
  aware : bool array;
  crashes_left : int;
  network : MS.t;
  moving : (string * int list) option array;
  polling : (int list * (int * string) list) option array;
  polled : bool array;
  epoch : int array;
}

type config = {
  rulebook : Rulebook.t;
  max_crashes : int;
  limit : int;  (** abort exploration past this many states *)
  rule : [ `Skeen | `Quorum ];
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

let state_code_exn ctx id =
  match I.state_code ctx.c id with
  | Some x -> x
  | None -> Fmt.invalid_arg "Model_check: unknown state id %S" id

let term_name_code ctx name =
  let has_prefix p = String.length name > String.length p && String.sub name 0 (String.length p) = p in
  let after p = String.sub name (String.length p) (String.length name - String.length p) in
  if name = "!mack" then mack_nc ctx
  else if name = "!streq" then streq_nc ctx
  else if name = "!decide:c" then ctx.base + 2
  else if name = "!decide:a" then ctx.base + 3
  else if has_prefix "!move:" then move_nc ctx (state_code_exn ctx (after "!move:"))
  else if has_prefix "!strep:" then strep_nc ctx (state_code_exn ctx (after "!strep:"))
  else Fmt.invalid_arg "Model_check: unknown termination message %S" name

(* ---------------- the working state ---------------- *)

(* One global state unpacked: bitsets for the boolean arrays, int codes
   everywhere, the network a sorted int array.  Move and poll slots keep
   their packed words, so their lists keep the reference engine's
   {e orders}, which are part of state identity there
   ([Model_check_ref.equal_st]) and feed the quorum rule's [to_move]. *)
type work = {
  mutable crashes : int;
  mutable voted : int;
  mutable alive : int;
  mutable aware : int;
  mutable polled : int;
  locals : int array;  (** state code per site *)
  epoch : int array;
  mov : int array array;  (** per site: target code, |awaiting|, awaiting… *)
  mov_len : int array;  (** words of [mov.(i)] in use; 0 when no move is in flight *)
  pol : int array array;
      (** per site: |awaiting|, awaiting…, |reps|, reps…; a rep packs as
          [src * s_codes + state code] *)
  pol_len : int array;
  mutable net : int array;  (** its first [net_len] codes, sorted *)
  mutable net_len : int;
}

(* move and poll rows and the network grow on first use *)
let work_create n =
  let zeros () = Array.make n 0 in
  { crashes = 0; voted = 0; alive = 0; aware = 0; polled = 0; locals = zeros (); epoch = zeros ();
    mov = Array.make n [||]; mov_len = zeros (); pol = Array.make n [||]; pol_len = zeros ();
    net = [||]; net_len = 0 }

(* A successor's edit beyond its scalars: its site's new move and poll
   slots when staged here, and the sorted codes it sends. *)
type edit = { smov : int array; spol : int array; adds : int array }

let no_edit = { smov = [||]; spol = [||]; adds = [||] }

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

  (* room for [k] values, keeping none *)
  let reserve b k = if k > Array.length b.a then b.a <- Array.make (2 * k) 0
end

(* How a successor's site's move or poll slot relates to its parent's:
   the same, none, or the one staged in the edit. *)
type slot = Keep | Clear | Staged

(* Successor flags: its site votes yes, becomes aware, has polled, or
   crashes (one crash fewer left, the site no longer alive). *)
let f_vote = 1
let f_aware = 2
let f_poll = 4
let f_crash = 8

(* the words of the move ([poll = false]) or poll slot at [r.(p)] *)
let slot_len ~poll (r : int array) p = if poll then 2 + r.(p) + r.(p + 1 + r.(p)) else 2 + r.(p + 1)

(* one section of per-site slots at [a.(pos)]: the mask of sites holding
   one, then each one's words, ascending site; the position after it *)
let put_slots (a : int array) pos (rows : int array array) (lens : int array) ~site mode staged staged_len =
  let mask = ref 0 and p = ref (pos + 1) in
  for i = 0 to Array.length lens - 1 do
    let len = if i <> site || mode == Keep then lens.(i) else if mode == Clear then 0 else staged_len in
    let r = if i = site && mode == Staged then staged else rows.(i) in
    if len > 0 then mask := !mask lor (1 lsl i);
    for j = 0 to len - 1 do
      Array.unsafe_set a (!p + j) (Array.unsafe_get r j)
    done;
    p := !p + len
  done;
  a.(pos) <- !mask;
  !p

(* The one packer: [w] with site [site]'s fields edited ([site = -1]
   edits none), into [buf].  The site gets state [local], epoch [epoch],
   the [flags] above and its move and poll slots per [mov] and [pol]; the
   network loses the code at index [drop] and one occurrence of each of
   [consumes] (sorted, all present) and gains the first [n_adds] codes of
   [e.adds] (sorted).  Allocates nothing once [buf] has grown. *)
let pack_into (w : work) (e : edit) (buf : Ibuf.t) ~site ~flags ~local ~epoch ~mov ~pol ~drop ~consumes ~n_adds =
  let n = Array.length w.locals in
  let room = ref (Array.length e.smov + Array.length e.spol + 7 + (2 * n) + w.net_len + n_adds) in
  for i = 0 to n - 1 do
    room := !room + w.mov_len.(i) + w.pol_len.(i)
  done;
  Ibuf.reserve buf !room;
  let a = buf.Ibuf.a in
  let bit = if site < 0 then 0 else 1 lsl site and crash = flags land f_crash <> 0 in
  a.(0) <- (if crash then w.crashes - 1 else w.crashes);
  a.(1) <- (if flags land f_vote <> 0 then w.voted lor bit else w.voted);
  a.(2) <- (if crash then w.alive land lnot bit else w.alive);
  a.(3) <- (if flags land f_aware <> 0 then w.aware lor bit else w.aware);
  a.(4) <- (if flags land f_poll <> 0 then w.polled lor bit else w.polled);
  for i = 0 to n - 1 do
    a.(5 + i) <- (if i = site then local else w.locals.(i));
    a.(5 + n + i) <- (if i = site then epoch else w.epoch.(i))
  done;
  let staged poll r mode = if mode == Staged then slot_len ~poll r 0 else 0 in
  let p = put_slots a (5 + (2 * n)) w.mov w.mov_len ~site mov e.smov (staged false e.smov mov) in
  let p = put_slots a p w.pol w.pol_len ~site pol e.spol (staged true e.spol pol) in
  let p = ref p and x = ref 0 and k = ref 0 in
  for j = 0 to w.net_len - 1 do
    let m = Array.unsafe_get w.net j in
    if j = drop then ()
    else if !k < Array.length consumes && consumes.(!k) = m then incr k
    else begin
      while !x < n_adds && e.adds.(!x) < m do
        Array.unsafe_set a !p e.adds.(!x);
        incr p;
        incr x
      done;
      Array.unsafe_set a !p m;
      incr p
    end
  done;
  for x = !x to n_adds - 1 do
    Array.unsafe_set a !p e.adds.(x);
    incr p
  done;
  buf.Ibuf.len <- !p

let pack_whole w buf =
  pack_into w no_edit buf ~site:(-1) ~flags:0 ~local:0 ~epoch:0 ~mov:Keep ~pol:Keep ~drop:(-1) ~consumes:[||] ~n_adds:0

(* one section of per-site slots read back from [data] at [pos]; the
   position after it *)
let take_slots (rows : int array array) (lens : int array) (data : int array) pos ~poll =
  let mask = data.(pos) and pos = ref (pos + 1) in
  for i = 0 to Array.length lens - 1 do
    if mask land (1 lsl i) = 0 then lens.(i) <- 0
    else begin
      let p = !pos in
      let len = slot_len ~poll data p in
      if Array.length rows.(i) < len then rows.(i) <- Array.make len 0;
      Array.blit data p rows.(i) 0 len;
      lens.(i) <- len;
      pos := p + len
    end
  done;
  !pos

(* The one decoder, the inverse of [pack_whole]: [data.(0 .. len-1)]
   into [w]. *)
let unpack_into (w : work) (data : int array) len =
  let n = Array.length w.locals in
  w.crashes <- data.(0);
  w.voted <- data.(1);
  w.alive <- data.(2);
  w.aware <- data.(3);
  w.polled <- data.(4);
  Array.blit data 5 w.locals 0 n;
  Array.blit data (5 + n) w.epoch 0 n;
  let pos = take_slots w.mov w.mov_len data (5 + (2 * n)) ~poll:false in
  let pos = take_slots w.pol w.pol_len data pos ~poll:true in
  w.net_len <- len - pos;
  if Array.length w.net < w.net_len then w.net <- Array.make (2 * w.net_len) 0;
  Array.blit data pos w.net 0 w.net_len

(* the mask of the sites (1-based) in [r.(off .. off+cnt-1)] *)
let site_mask (r : int array) off cnt =
  let m = ref 0 in
  for j = off to off + cnt - 1 do
    m := !m lor (1 lsl (r.(j) - 1))
  done;
  !m

(* copy [r.(off .. off+cnt-1)] less every [x] to [dst] from [doff]; how
   many were copied *)
let drop_awaited (r : int array) off cnt x (dst : int array) doff =
  let k = ref 0 in
  for j = off to off + cnt - 1 do
    if r.(j) <> x then begin
      dst.(doff + !k) <- r.(j);
      incr k
    end
  done;
  !k

(* write a list to [dst] from [k]; the index after it *)
let rec stage_list (dst : int array) k = function
  | [] -> k
  | x :: rest ->
      dst.(k) <- x;
      stage_list dst (k + 1) rest

(* ---------------- work <-> public state ---------------- *)

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

let to_public ctx (w : work) : st =
  let n = ctx.n in
  let bit set i = set land (1 lsl i) <> 0 in
  let words (r : int array) off k = List.init k (fun j -> r.(off + j)) in
  let rep x = (rep_src ctx x, I.state_name ctx.c (rep_code ctx x)) in
  {
    locals = Array.init n (fun i -> I.state_name ctx.c w.locals.(i));
    voted = Array.init n (bit w.voted);
    alive = Array.init n (bit w.alive);
    aware = Array.init n (bit w.aware);
    crashes_left = w.crashes;
    network = MS.of_list (List.init w.net_len (fun j -> decode_tmsg ctx w.net.(j)));
    moving =
      Array.init n (fun i ->
          let r = w.mov.(i) in
          if w.mov_len.(i) = 0 then None else Some (I.state_name ctx.c r.(0), words r 2 r.(1)));
    polling =
      Array.init n (fun i ->
          let r = w.pol.(i) in
          if w.pol_len.(i) = 0 then None
          else Some (words r 1 r.(0), List.map rep (words r (2 + r.(0)) r.(1 + r.(0)))));
    polled = Array.init n (bit w.polled);
    epoch = Array.copy w.epoch;
  }

let of_public ctx (s : st) : work =
  let w = work_create ctx.n in
  let bits a =
    let x = ref 0 in
    Array.iteri (fun i b -> if b then x := !x lor (1 lsl i)) a;
    !x
  in
  let code = state_code_exn ctx in
  let slot rows lens i words = (rows.(i) <- Array.of_list words; lens.(i) <- List.length words) in
  w.crashes <- s.crashes_left;
  w.voted <- bits s.voted;
  w.alive <- bits s.alive;
  w.aware <- bits s.aware;
  w.polled <- bits s.polled;
  Array.iteri (fun i id -> w.locals.(i) <- code id) s.locals;
  Array.blit s.epoch 0 w.epoch 0 ctx.n;
  Array.iteri
    (fun i -> Option.iter (fun (t, aw) -> slot w.mov w.mov_len i (code t :: List.length aw :: aw)))
    s.moving;
  Array.iteri
    (fun i ->
      Option.iter (fun (aw, reps) ->
          let reps = List.map (fun (src, id) -> rep_pack ctx ~src ~code:(code id)) reps in
          slot w.pol w.pol_len i ((List.length aw :: aw) @ (List.length reps :: reps))))
    s.polling;
  w.net <- Array.of_list (List.map (encode_tmsg ctx) (MS.to_list s.network));
  Array.sort compare w.net;
  w.net_len <- Array.length w.net;
  w

let decode_public ctx data =
  let w = work_create ctx.n in
  unpack_into w data (Array.length data);
  to_public ctx w

(* ---------------- the checker ---------------- *)

let run (cfg : config) : report =
  let ctx = make_ctx cfg.rulebook in
  let c = ctx.c and n = ctx.n in
  let max_emits = Array.fold_left (Array.fold_left (Array.fold_left (fun m tr -> max m (Array.length tr.I.c_emits)))) in
  (* the popped state, and the edit to it that each successor stages: a
     move slot holds at most n+2 words, a poll slot 2n+2, and it sends one
     transition's emits, a reply or a broadcast to the other sites *)
  let w = work_create n in
  let e = { smov = Array.make (n + 2) 0; spol = Array.make ((2 * n) + 2) 0; adds = Array.make (max_emits n c.I.trans) 0 } in
  (* the sites (1-based, ascending) of each mask of sites: the live sites
     a backup addresses, and the sites it awaits *)
  let sites_of =
    Array.init (1 lsl n) (fun mask ->
        List.filter (fun j -> mask land (1 lsl (j - 1)) <> 0) (List.init n (fun j -> j + 1)))
  in
  let alive i = w.alive land (1 lsl i) <> 0 in
  let failed j = not (alive (j - 1)) in
  let decided i = Core.Types.is_final (kind_exn ctx i w.locals.(i)) in
  let site_outcome i = Core.Types.outcome_of_kind (kind_exn ctx i w.locals.(i)) in
  let final_code i o = Rulebook.final_code ctx.rb ~site:(i + 1) o in
  let rule = match cfg.rule with `Skeen -> Termination.Skeen | `Quorum -> Termination.Quorum in
  let no_codes = [||] in
  let store = I.Store.create () in
  let parent = ref (Array.make 4096 (-1)) in
  let buf = Ibuf.create () in
  let from = ref (-1) and n_succ = ref 0 in
  (* per network index of the popped state: the destination of a
     termination message, else 0 *)
  let term_dst = ref [||] in
  (* intern the state packed in [buf], a successor of state [!from] *)
  let intern () =
    incr n_succ;
    let fresh = I.Store.length store in
    if I.Store.intern store buf.Ibuf.a ~len:buf.Ibuf.len = fresh then begin
      if fresh >= Array.length !parent then begin
        let grown = Array.make (2 * fresh) (-1) in
        Array.blit !parent 0 grown 0 fresh;
        parent := grown
      end;
      !parent.(fresh) <- !from
    end
  in
  (* the popped state with site [i]'s fields edited, see [pack_into] *)
  let step i ~flags ~local ~epoch ~mov ~pol ~drop ~consumes ~n_adds =
    pack_into w e buf ~site:i ~flags ~local ~epoch ~mov ~pol ~drop ~consumes ~n_adds;
    intern ()
  in
  (* the same, and then site [i] crashes: the round it had in flight dies
     with it *)
  let crash i ~flags ~local ~epoch ~consumes ~n_adds =
    step i ~flags:(flags lor f_crash) ~local ~epoch ~mov:Clear ~pol:Clear ~drop:(-1) ~consumes ~n_adds
  in
  (* site [i] consumes the termination message at network index [drop] *)
  let deliver i drop ~local ~epoch ~mov ~pol ~n_adds =
    step i ~flags:f_aware ~local ~epoch ~mov ~pol ~drop ~consumes:no_codes ~n_adds
  in
  (* can the network give one of each of [consumes] (sorted)? *)
  let consumable (consumes : int array) =
    let k = ref 0 and j = ref 0 in
    while !k < Array.length consumes && !j < w.net_len && w.net.(!j) <= consumes.(!k) do
      if w.net.(!j) = consumes.(!k) then incr k;
      incr j
    done;
    !k = Array.length consumes
  in
  (* [e.adds] := the first [k] of [emits] sorted, less those to dead
     sites (reliable network: undeliverable); their number *)
  let sent (emits : int array) k =
    let len = ref 0 in
    for x = 0 to k - 1 do
      let m = emits.(x) and j = ref !len in
      if alive (I.msg_dst c m - 1) then begin
        while !j > 0 && e.adds.(!j - 1) > m do
          e.adds.(!j) <- e.adds.(!j - 1);
          decr j
        done;
        e.adds.(!j) <- m;
        incr len
      end
    done;
    !len
  in
  (* site [i]'s answer to [src] in [e.adds]; a reply to a dead site is
     dropped *)
  let reply i ~src name =
    if failed src then 0 else (e.adds.(0) <- I.msg_code c ~name ~src:(i + 1) ~dst:src; 1)
  in
  (* is a message named [nc] in flight to [dst]; a move from site [i]? *)
  let in_flight ~dst nc =
    let found = ref false in
    for j = 0 to w.net_len - 1 do
      if I.msg_dst c w.net.(j) = dst && I.msg_name_code c w.net.(j) = nc then found := true
    done;
    !found
  in
  let moving_from i =
    let found = ref false in
    for j = 0 to w.net_len - 1 do
      if I.msg_src c w.net.(j) = i + 1 && is_move_nc ctx (I.msg_name_code c w.net.(j)) then found := true
    done;
    !found
  in
  (* is a site of [sites] undecided with no decide [dnc] to it in flight? *)
  let rec waiting dnc = function
    | [] -> false
    | j :: rest -> (not (decided (j - 1) || in_flight ~dst:j dnc)) || waiting dnc rest
  in
  let rec fill_broadcast name src k = function
    | [] -> k
    | dst :: rest ->
        e.adds.(k) <- I.msg_code c ~name ~src ~dst;
        fill_broadcast name src (k + 1) rest
  in
  (* site [i] sends [name] to every other live site, with the given edits,
     and the partial-crash variants.  All broadcasts send one name from
     src i+1 to ascending destinations, so the code array is sorted, as is
     any prefix of it. *)
  let broadcast i name ~flags ~local ~epoch ~mov ~pol =
    let k = fill_broadcast name (i + 1) 0 sites_of.(w.alive land lnot (1 lsl i)) in
    step i ~flags ~local ~epoch ~mov ~pol ~drop:(-1) ~consumes:no_codes ~n_adds:k;
    if w.crashes > 0 then
      for prefix = 0 to k do
        crash i ~flags ~local ~epoch ~consumes:no_codes ~n_adds:prefix
      done
  in
  let decide i o ~mov ~pol =
    broadcast i (decide_nc ctx o) ~flags:0 ~local:(final_code i o) ~epoch:w.epoch.(i) ~mov ~pol
  in

  (* ---- successor enumeration ----
     The commit FSAs fire from the rulebook's tables; every termination
     step (answering a move, closing phase 1, the quorum rule, learning a
     decide, opening a backup's round) is a {!Termination} rule, so the
     checker and the runtime share one definition.  What stays here is
     the enumeration of inputs, the crash-prefix variants and the
     checker's own guards that keep the graph finite.  The explored state
     set is the reference engine's ({!Model_check_ref}), which writes the
     same steps out by hand.  Each successor is the popped state [w] plus
     one site's edit, packed straight into [buf] and interned there: no
     successor is built as a value. *)
  let successors () =
    (* the elected backup: lowest operational site (no recoveries, so
       operational = never crashed) *)
    let lead = ref (-1) in
    for i = n - 1 downto 0 do
      if alive i then lead := i
    done;
    let some_crash = w.alive <> ctx.full_alive in
    for i = 0 to n - 1 do
      if alive i then begin
        let bit = 1 lsl i and local = w.locals.(i) and epoch = w.epoch.(i) in
        (* 1. protocol FSA steps, complete and (if crash budget remains)
           partially completed.  A backup coordinator with phase 1 in
           flight is frozen: its decision must come from the state it
           moved everyone to, not from wherever a stale protocol message
           would drift it (the runtime enforces the same freeze by not
           firing the FSA outside Normal mode — an earlier version of
           this model omitted it and the checker produced a genuine
           split-brain counterexample through exactly that hole) *)
        if (not (decided i)) && w.mov_len.(i) = 0 && w.aware land bit = 0 then begin
          let trs = c.I.trans.(i).(local) in
          for ti = 0 to Array.length trs - 1 do
            let tr = trs.(ti) in
            let consumes = tr.I.c_consumes in
            if consumable consumes then begin
              let flags = if tr.I.c_vote_yes then f_vote else 0 and local = tr.I.c_to in
              let emits = tr.I.c_emits in
              (* complete transition *)
              step i ~flags ~local ~epoch ~mov:Keep ~pol:Keep ~drop:(-1) ~consumes
                ~n_adds:(sent emits (Array.length emits));
              (* crash after forcing the log, having sent only the first
                 k messages, for every k *)
              if w.crashes > 0 then
                for k = 0 to Array.length emits do
                  crash i ~flags ~local ~epoch ~consumes ~n_adds:(sent emits k)
                done
            end
          done
        end;
        (* 2. spontaneous crash (before any transition) *)
        if w.crashes > 0 then crash i ~flags:0 ~local ~epoch ~consumes:no_codes ~n_adds:0;
        (* 2b. failure detection: after any crash, each site becomes aware
           at a nondeterministic moment; from then on its commit-protocol
           FSA is frozen and it may serve as backup coordinator *)
        if some_crash && w.aware land bit = 0 then
          step i ~flags:f_aware ~local ~epoch ~mov:Keep ~pol:Keep ~drop:(-1) ~consumes:no_codes ~n_adds:0;
        (* 3. termination-message deliveries addressed to site i+1;
           receiving one is itself awareness *)
        for drop = 0 to w.net_len - 1 do
          let m = w.net.(drop) in
          if !term_dst.(drop) = i + 1 then begin
            let nc = I.msg_name_code c m in
            let src = I.msg_src c m in
            if is_move_nc ctx nc then begin
              (* a move is fenced at its sender's rank *)
              match
                Termination.answer_move ~outcome:(site_outcome i) ~recovered:false ~fencing:true
                  ~epoch_seen:epoch ~epoch:src
              with
              | Termination.Reply o ->
                  deliver i drop ~local ~epoch ~mov:Keep ~pol:Keep ~n_adds:(reply i ~src (decide_nc ctx o))
              | Termination.Adopt obeyed ->
                  deliver i drop ~local:(move_target_nc ctx nc) ~epoch:obeyed ~mov:Keep ~pol:Keep
                    ~n_adds:(reply i ~src (mack_nc ctx))
              | Termination.Ignore | Termination.Fence ->
                  deliver i drop ~local ~epoch ~mov:Keep ~pol:Keep ~n_adds:0
            end
            else if nc = mack_nc ctx then begin
              (* stop awaiting [src] *)
              let r = w.mov.(i) in
              let aw = if w.mov_len.(i) = 0 then 0 else r.(1) in
              let kept = drop_awaited r 2 aw src e.smov 2 in
              let mov =
                if kept = aw then Keep
                else begin
                  e.smov.(0) <- r.(0);
                  e.smov.(1) <- kept;
                  Staged
                end
              in
              deliver i drop ~local ~epoch ~mov ~pol:Keep ~n_adds:0
            end
            else if nc = streq_nc ctx then
              (* quorum poll: report the current local state *)
              deliver i drop ~local ~epoch ~mov:Keep ~pol:Keep ~n_adds:(reply i ~src (strep_nc ctx local))
            else if is_strep_nc ctx nc then begin
              (* stop awaiting [src]; its report goes first *)
              let r = w.pol.(i) in
              let aw = if w.pol_len.(i) = 0 then 0 else r.(0) in
              let kept = drop_awaited r 1 aw src e.spol 1 in
              let pol =
                if kept = aw then Keep
                else begin
                  let reps = r.(1 + aw) in
                  e.spol.(0) <- kept;
                  e.spol.(1 + kept) <- reps + 1;
                  e.spol.(2 + kept) <- rep_pack ctx ~src ~code:(strep_state_nc ctx nc);
                  Array.blit r (2 + aw) e.spol (3 + kept) reps;
                  Staged
                end
              in
              deliver i drop ~local ~epoch ~mov:Keep ~pol ~n_adds:0
            end
            else begin
              (* a decide; the checker fences none *)
              let o = if nc = ctx.base + 2 then Core.Types.Committed else Core.Types.Aborted in
              match
                Termination.learn_decide ~fencing:false ~epoch_seen:epoch ~epoch:src
                  ~outcome:(site_outcome i)
              with
              | Termination.Learn -> deliver i drop ~local:(final_code i o) ~epoch ~mov:Clear ~pol:Keep ~n_adds:0
              | Termination.Known | Termination.Fenced ->
                  deliver i drop ~local ~epoch ~mov:Keep ~pol:Keep ~n_adds:0
            end
          end
        done;
        (* 4. backup coordinator actions at the elected leader, once it is
           aware of a failure *)
        if !lead = i && some_crash && w.aware land bit <> 0 then begin
          if w.mov_len.(i) > 0 then begin
            (* phase 1 reads its awaited sites as a set: the precomputed
               list of their mask *)
            let r = w.mov.(i) in
            match
              Termination.close_phase1 ctx.rb ~site:(i + 1) ~code:local
                ~awaiting:sites_of.(site_mask r 2 r.(1)) ~failed
            with
            | Some (Rulebook.Decide o) -> decide i o ~mov:Clear ~pol:Keep
            | Some Rulebook.Blocked | None -> ()
          end
          else if w.pol_len.(i) > 0 && not (decided i) then begin
            (* a poll in flight, complete once every awaited site replied
               or died: the quorum rule over the view *)
            let r = w.pol.(i) in
            if site_mask r 1 r.(0) land w.alive = 0 then begin
              let reps = 2 + r.(0) and n_reps = r.(1 + r.(0)) in
              let kind x = kind_exn ctx (rep_src ctx r.(reps + x) - 1) (rep_code ctx r.(reps + x)) in
              let kinds = kind_exn ctx i local :: List.init n_reps kind in
              match Termination.quorum ~n_sites:n ~buffer:ctx.rb.Rulebook.buffer_code.(i) kinds with
              | Termination.Seen o -> decide i o ~mov:Keep ~pol:Clear
              | Termination.Unprepared _ -> decide i Core.Types.Aborted ~mov:Keep ~pol:Clear
              | Termination.Move_up (target, _) ->
                  (* awaited: the polled live sites not already at the
                     target.  The move itself goes to every other live
                     site: a harmless re-move for already-buffered ones
                     keeps the broadcast uniform *)
                  let k = ref 2 in
                  for x = reps to reps + n_reps - 1 do
                    let src = rep_src ctx r.(x) in
                    if src <> i + 1 && alive (src - 1) && rep_code ctx r.(x) <> target then begin
                      e.smov.(!k) <- src;
                      incr k
                    end
                  done;
                  e.smov.(0) <- target;
                  e.smov.(1) <- !k - 2;
                  broadcast i (move_nc ctx target) ~flags:0 ~local:target ~epoch:(max epoch (i + 1))
                    ~mov:Staged ~pol:Clear
              | Termination.No_buffer | Termination.Short _ -> ()
            end
          end
          else begin
            match
              Termination.open_round rule ctx.rb ~site:(i + 1) ~code:local ~outcome:(site_outcome i)
                ~participants:sites_of.(w.alive land lnot bit)
            with
            | Termination.Announce o ->
                (* only if a live site is undecided with no announcement
                   to it in flight *)
                let dnc = decide_nc ctx o in
                if waiting dnc sites_of.(w.alive land lnot bit) then
                  broadcast i dnc ~flags:0 ~local ~epoch ~mov:Keep ~pol:Keep
            | Termination.Start (Termination.Moving { target; awaiting }) ->
                (* one move in flight from this backup at a time; a
                   backup leads at least at its own rank *)
                if not (moving_from i) then begin
                  e.smov.(0) <- target;
                  e.smov.(1) <- List.length awaiting;
                  ignore (stage_list e.smov 2 awaiting);
                  broadcast i (move_nc ctx target) ~flags:0 ~local ~epoch:(max epoch (i + 1)) ~mov:Staged
                    ~pol:Keep
                end
            | Termination.Start (Termination.Polling { awaiting; _ }) ->
                (* one poll per backup, and no retry: a below-quorum
                   backup stays blocked, which makes blocking visible as
                   a terminal state.  The checker's view adds the
                   backup's own state when the poll closes. *)
                if w.polled land bit = 0 then begin
                  e.spol.(0) <- List.length awaiting;
                  let k = stage_list e.spol 1 awaiting in
                  e.spol.(k) <- 0;
                  broadcast i (streq_nc ctx) ~flags:f_poll ~local ~epoch:(max epoch (i + 1)) ~mov:Keep
                    ~pol:Staged
                end
            | Termination.Blocked -> ()
          end
        end
      end
    done
  in

  (* ---- BFS over the state store ----
     States are interned in discovery order and popped in FIFO order, so
     the frontier is the index range [next .. Store.length store - 1]:
     no queue, and each popped state is decoded once from the arena into
     [w]. *)
  w.crashes <- cfg.max_crashes;
  w.alive <- ctx.full_alive;
  Array.blit c.I.initial_locals 0 w.locals 0 n;
  w.net <- Array.copy c.I.initial_net;
  w.net_len <- Array.length w.net;
  pack_whole w buf;
  intern ();
  let data = ref (Array.make 64 0) in
  let next = ref 0 in
  let inconsistent = ref [] and blocked_terminals = ref [] in
  while !next < I.Store.length store do
    let ix = !next in
    incr next;
    if !next > cfg.limit then failwith "Model_check.run: state limit exceeded";
    let len = I.Store.get_into store ix !data in
    if len > Array.length !data then begin
      data := Array.make (2 * len) 0;
      ignore (I.Store.get_into store ix !data)
    end;
    unpack_into w !data len;
    if Array.length !term_dst < w.net_len then term_dst := Array.make (2 * w.net_len) 0;
    for j = 0 to w.net_len - 1 do
      !term_dst.(j) <- (if is_term ctx w.net.(j) then I.msg_dst c w.net.(j) else 0)
    done;
    (* safety: mixed outcomes across ALL sites (crashed sites' last forced
       log state counts) *)
    let commit = ref false and abort = ref false in
    for i = 0 to n - 1 do
      let k = kind_exn ctx i w.locals.(i) in
      if Core.Types.is_commit k then commit := true;
      if Core.Types.is_abort k then abort := true
    done;
    if !commit && !abort then inconsistent := ix :: !inconsistent;
    from := ix;
    n_succ := 0;
    successors ();
    if !n_succ = 0 then begin
      (* terminal: every operational site should have decided *)
      let blocked = ref false in
      for i = 0 to n - 1 do
        if alive i && not (decided i) then blocked := true
      done;
      if !blocked then blocked_terminals := ix :: !blocked_terminals
    end
  done;
  let decode ix = decode_public ctx (I.Store.get store ix) in
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
    pack_whole (of_public ctx s) buf;
    Array.sub buf.Ibuf.a 0 buf.Ibuf.len

  let decode = decode_public
end

let pp_st ppf (st : st) =
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
