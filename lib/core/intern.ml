(** Per-run interning and compact state encoding for the state-space
    engines ({!Reachability} and the engine-level model checker).

    The explorers used to hash global states by formatting every network
    message to a string ([Message.show]) on every hash of every state —
    the dominant cost of exhaustive exploration.  This module interns
    automaton state ids and message names into small ints once per run,
    compiles every FSA transition to int-coded consume/emit arrays, packs
    whole messages into single ints, and keeps the explored states in one
    flat {!Store}.  Explorers then never touch a string on the hot path. *)

(* ---------------- symbol tables ---------------- *)

type symtab = {
  mutable next : int;
  fwd : (string, int) Hashtbl.t;
  mutable bwd : string array;  (** code -> symbol; grown on demand *)
}

let create_symtab () = { next = 0; fwd = Hashtbl.create 16; bwd = Array.make 8 "" }

let intern t s =
  match Hashtbl.find_opt t.fwd s with
  | Some i -> i
  | None ->
      let i = t.next in
      t.next <- i + 1;
      Hashtbl.add t.fwd s i;
      if i >= Array.length t.bwd then begin
        let bwd = Array.make (2 * Array.length t.bwd) "" in
        Array.blit t.bwd 0 bwd 0 (Array.length t.bwd);
        t.bwd <- bwd
      end;
      t.bwd.(i) <- s;
      i

let find t s = Hashtbl.find_opt t.fwd s

let name_of t i =
  if i < 0 || i >= t.next then Fmt.invalid_arg "Intern.name_of: unknown code %d" i;
  t.bwd.(i)

let size t = t.next

(* ---------------- the state store ---------------- *)

(** An append-only set of packed states.  Each state is stored once, as
    unsigned LEB128 varints in a [Bytes] arena the GC never scans, and
    [starts.(ix) .. starts.(ix+1)-1] are state [ix]'s bytes.  The index
    is open addressing with linear probing over one [int array]: a slot
    is [0] when empty, else [(h lsl idx_bits) lor (ix + 1)], where [h] is
    the state's 31-bit hash.  The slot's position is [h land mask], so
    a resize re-places slots without touching the arena, and a probe
    rejects almost every other state on the slot alone. *)
module Store = struct
  let idx_bits = 31
  let idx_mask = (1 lsl idx_bits) - 1
  let hash_mask = (1 lsl 31) - 1

  type t = {
    mutable arena : Bytes.t;
    mutable used : int;  (** bytes of the arena in use *)
    mutable starts : int array;  (** [starts.(ix)]: first byte of state [ix]; [starts.(count)] = [used] *)
    mutable count : int;
    mutable slots : int array;
    mutable mask : int;  (** [Array.length slots - 1] *)
  }

  let create () =
    {
      arena = Bytes.create 4096;
      used = 0;
      starts = Array.make 1024 0;
      count = 0;
      slots = Array.make 1024 0;
      mask = 1023;
    }

  let length t = t.count

  (* FNV-1a over the ints and the length (64-bit constants truncated to
     OCaml's 63-bit int; multiplication wraps), then a multiply-xorshift
     finaliser: FNV's low bits depend only on the inputs' low bits, and
     the slot position is taken from the low bits. *)
  let hash (buf : int array) len =
    let h = ref (0x4bf29ce484222325 lxor len) in
    for i = 0 to len - 1 do
      h := (!h lxor Array.unsafe_get buf i) * 0x100000001b3
    done;
    let h = (!h lxor (!h lsr 29)) * 0x3f58476d1ce4e5b9 in
    (h lxor (h lsr 32)) land hash_mask

  (* Does state [ix] decode to [buf.(0 .. len-1)]?  Reads the arena in
     place. *)
  let equal_at t ix (buf : int array) len =
    let arena = t.arena in
    let stop = Array.unsafe_get t.starts (ix + 1) in
    let pos = ref (Array.unsafe_get t.starts ix) and i = ref 0 and same = ref true in
    while !same && !i < len do
      if !pos >= stop then same := false
      else begin
        let b = Char.code (Bytes.unsafe_get arena !pos) in
        incr pos;
        let v = ref (b land 0x7f) in
        if b >= 0x80 then begin
          let shift = ref 7 and more = ref true in
          while !more do
            let b = Char.code (Bytes.unsafe_get arena !pos) in
            incr pos;
            v := !v lor ((b land 0x7f) lsl !shift);
            shift := !shift + 7;
            more := b >= 0x80
          done
        end;
        if !v <> Array.unsafe_get buf !i then same := false;
        incr i
      end
    done;
    !same && !pos = stop

  let grow_slots t =
    let cap = 2 * Array.length t.slots in
    let slots = Array.make cap 0 and mask = cap - 1 in
    Array.iter
      (fun slot ->
        if slot <> 0 then begin
          let p = ref ((slot lsr idx_bits) land mask) in
          while Array.unsafe_get slots !p <> 0 do
            p := (!p + 1) land mask
          done;
          slots.(!p) <- slot
        end)
      t.slots;
    t.slots <- slots;
    t.mask <- mask

  (* Append [buf.(0 .. len-1)] as state [t.count]; the index is not
     touched.  Nothing is committed until every value has been checked. *)
  let append t (buf : int array) len =
    (* a non-negative 63-bit int takes at most 9 varint bytes *)
    if t.used + (9 * len) > Bytes.length t.arena then begin
      let cap = ref (2 * Bytes.length t.arena) in
      while t.used + (9 * len) > !cap do
        cap := 2 * !cap
      done;
      let arena = Bytes.create !cap in
      Bytes.blit t.arena 0 arena 0 t.used;
      t.arena <- arena
    end;
    if t.count + 1 >= Array.length t.starts then begin
      let starts = Array.make (2 * Array.length t.starts) 0 in
      Array.blit t.starts 0 starts 0 (t.count + 1);
      t.starts <- starts
    end;
    let arena = t.arena and pos = ref t.used in
    for i = 0 to len - 1 do
      let v = ref (Array.unsafe_get buf i) in
      if !v < 0 then Fmt.invalid_arg "Intern.Store.intern: negative value %d" !v;
      while !v >= 0x80 do
        Bytes.unsafe_set arena !pos (Char.unsafe_chr ((!v land 0x7f) lor 0x80));
        incr pos;
        v := !v lsr 7
      done;
      Bytes.unsafe_set arena !pos (Char.unsafe_chr !v);
      incr pos
    done;
    t.used <- !pos;
    t.count <- t.count + 1;
    t.starts.(t.count) <- !pos

  let intern t (buf : int array) ~len =
    if len < 0 || len > Array.length buf then invalid_arg "Intern.Store.intern: bad length";
    let h = hash buf len in
    let mask = t.mask and slots = t.slots in
    let p = ref (h land mask) and found = ref (-1) in
    while !found < 0 && Array.unsafe_get slots !p <> 0 do
      let slot = Array.unsafe_get slots !p in
      if slot lsr idx_bits = h && equal_at t ((slot land idx_mask) - 1) buf len then
        found := (slot land idx_mask) - 1
      else p := (!p + 1) land mask
    done;
    if !found >= 0 then !found
    else begin
      let ix = t.count in
      if ix + 1 > idx_mask then failwith "Intern.Store.intern: too many states";
      append t buf len;
      slots.(!p) <- (h lsl idx_bits) lor (ix + 1);
      (* keep the load factor at most 1/2 *)
      if 2 * t.count > Array.length slots then grow_slots t;
      ix
    end

  let get_into t ix (buf : int array) =
    if ix < 0 || ix >= t.count then Fmt.invalid_arg "Intern.Store.get: no state %d" ix;
    let start = t.starts.(ix) and stop = t.starts.(ix + 1) in
    let n = ref 0 in
    for p = start to stop - 1 do
      if Char.code (Bytes.unsafe_get t.arena p) < 0x80 then incr n
    done;
    if !n <= Array.length buf then begin
      let pos = ref start in
      for i = 0 to !n - 1 do
        let v = ref 0 and shift = ref 0 and more = ref true in
        while !more do
          let b = Char.code (Bytes.unsafe_get t.arena !pos) in
          incr pos;
          v := !v lor ((b land 0x7f) lsl !shift);
          shift := !shift + 7;
          more := b >= 0x80
        done;
        Array.unsafe_set buf i !v
      done
    end;
    !n

  let get t ix =
    let out = Array.make (get_into t ix [||]) 0 in
    ignore (get_into t ix out);
    out
end

(* ---------------- sorted int-multiset operations ---------------- *)

(** The network of a packed state is a sorted [int array] of message
    codes — the multiset identity the explorers deduplicate on. *)
module Net = struct
  let empty : int array = [||]

  (** [remove_all consumes net]: remove one occurrence of each code in
      [consumes] (sorted); [None] if any is missing. *)
  let remove_all (consumes : int array) (net : int array) : int array option =
    let nc = Array.length consumes and nn = Array.length net in
    if nc = 0 then Some net
    else if nc > nn then None
    else begin
      let out = Array.make (nn - nc) 0 in
      let exception Missing in
      try
        let k = ref 0 and i = ref 0 in
        for j = 0 to nc - 1 do
          let c = consumes.(j) in
          while !i < nn && net.(!i) < c do
            (* more leftovers than capacity means some later consume
               cannot be present *)
            if !k >= nn - nc then raise Missing;
            out.(!k) <- net.(!i);
            incr k;
            incr i
          done;
          if !i >= nn || net.(!i) <> c then raise Missing;
          incr i
        done;
        Array.blit net !i out !k (nn - !i);
        Some out
      with Missing -> None
    end

  (** [add_all adds net]: merge [adds] (sorted) into [net]. *)
  let add_all (adds : int array) (net : int array) : int array =
    let na = Array.length adds and nn = Array.length net in
    if na = 0 then net
    else begin
      let out = Array.make (na + nn) 0 in
      let i = ref 0 and j = ref 0 in
      for k = 0 to na + nn - 1 do
        if !j >= na || (!i < nn && net.(!i) <= adds.(!j)) then begin
          out.(k) <- net.(!i);
          incr i
        end
        else begin
          out.(k) <- adds.(!j);
          incr j
        end
      done;
      out
    end
end

(* ---------------- compiled protocols ---------------- *)

type ctrans = {
  c_to : int;  (** target state code *)
  c_consumes : int array;  (** sorted message codes *)
  c_emits : int array;  (** message codes in emission order (partial-crash prefixes) *)
  c_emits_sorted : int array;  (** the same codes sorted, for merging *)
  c_vote_yes : bool;
  c_tr : Automaton.transition;  (** the original transition, for graph edges *)
}

type t = {
  protocol : Protocol.t;
  n : int;
  states : symtab;  (** automaton state ids, shared across sites *)
  msg_names : symtab;  (** protocol message names *)
  kinds : Types.state_kind option array array;
      (** site-1 -> state code -> kind ([None] = not declared at that site) *)
  trans : ctrans array array array;  (** site-1 -> from-state code -> transitions *)
  initial_locals : int array;  (** initial state code per site *)
  initial_net : int array;  (** sorted message codes *)
}

(* Message codec: a whole message packs into one int.
   code = (name_code * (n+1) + src) * (n+1) + dst, src in 0..n (0 = env),
   dst in 1..n.  Name codes beyond the interned protocol names are free
   for callers (the model checker assigns termination-message tags
   there); the codec functions work for any name code. *)

let msg_code t ~name ~src ~dst = ((name * (t.n + 1)) + src) * (t.n + 1) + dst
let msg_dst t code = code mod (t.n + 1)
let msg_src t code = code / (t.n + 1) mod (t.n + 1)
let msg_name_code t code = code / ((t.n + 1) * (t.n + 1))

let encode_msg t (m : Message.t) =
  match find t.msg_names m.Message.name with
  | Some name -> msg_code t ~name ~src:m.Message.src ~dst:m.Message.dst
  | None -> Fmt.invalid_arg "Intern.encode_msg: unknown message name %S" m.Message.name

(** Decode a protocol-message code ([msg_name_code] below the symbol-table
    size).  The model checker layers its own decoder for termination
    codes on top. *)
let decode_msg t code =
  Message.make
    ~name:(name_of t.msg_names (msg_name_code t code))
    ~src:(msg_src t code) ~dst:(msg_dst t code)

let compile (p : Protocol.t) : t =
  let n = Protocol.n_sites p in
  let states = create_symtab () in
  let msg_names = create_symtab () in
  (* Intern every state id and message name up front so codes are stable
     regardless of exploration order. *)
  Array.iter
    (fun (a : Automaton.t) ->
      List.iter (fun (s : Automaton.state) -> ignore (intern states s.Automaton.id)) a.Automaton.states;
      List.iter
        (fun (tr : Automaton.transition) ->
          List.iter (fun (m : Message.t) -> ignore (intern msg_names m.Message.name)) tr.Automaton.consumes;
          List.iter (fun (m : Message.t) -> ignore (intern msg_names m.Message.name)) tr.Automaton.emits)
        a.Automaton.transitions)
    p.Protocol.automata;
  List.iter (fun (m : Message.t) -> ignore (intern msg_names m.Message.name)) p.Protocol.initial_network;
  let n_codes = size states in
  let t =
    {
      protocol = p;
      n;
      states;
      msg_names;
      kinds = Array.init n (fun _ -> Array.make n_codes None);
      trans = Array.init n (fun _ -> Array.make n_codes [||]);
      initial_locals = Array.make n 0;
      initial_net = [||];
    }
  in
  let encode m = encode_msg t m in
  Array.iteri
    (fun i (a : Automaton.t) ->
      List.iter
        (fun (s : Automaton.state) ->
          t.kinds.(i).(intern states s.Automaton.id) <- Some s.Automaton.kind)
        a.Automaton.states;
      t.initial_locals.(i) <- intern states a.Automaton.initial;
      List.iter
        (fun (s : Automaton.state) ->
          let code = intern states s.Automaton.id in
          let ctrs =
            Automaton.transitions_from a s.Automaton.id
            |> List.map (fun (tr : Automaton.transition) ->
                   let consumes =
                     let arr = Array.of_list (List.map encode tr.Automaton.consumes) in
                     Array.sort compare arr;
                     arr
                   in
                   let emits = Array.of_list (List.map encode tr.Automaton.emits) in
                   let emits_sorted = Array.copy emits in
                   Array.sort compare emits_sorted;
                   {
                     c_to = intern states tr.Automaton.to_state;
                     c_consumes = consumes;
                     c_emits = emits;
                     c_emits_sorted = emits_sorted;
                     c_vote_yes = tr.Automaton.vote = Some Types.Yes;
                     c_tr = tr;
                   })
          in
          t.trans.(i).(code) <- Array.of_list ctrs)
        a.Automaton.states)
    p.Protocol.automata;
  let net = Array.of_list (List.map encode p.Protocol.initial_network) in
  Array.sort compare net;
  { t with initial_net = net }

let n_state_codes t = size t.states
let state_code t id = find t.states id
let state_name t code = name_of t.states code

let kind_of t ~site ~code =
  match t.kinds.(site - 1).(code) with
  | Some k -> k
  | None ->
      Fmt.invalid_arg "Intern.kind_of: state %s not declared at site %d" (name_of t.states code)
        site
