(** Process-wide string interning: a copy-on-write snapshot behind an
    atomic, so lookups never lock.  See the interface. *)

type snapshot = {
  ids : (string, int) Hashtbl.t;
  names : string array;  (** by id *)
  pairs : (int, int) Hashtbl.t;  (** [(a lsl 31) lor b] -> [concat a b] *)
}

type t = { snap : snapshot Atomic.t; lock : Mutex.t }

let create () =
  {
    snap = Atomic.make { ids = Hashtbl.create 64; names = [||]; pairs = Hashtbl.create 16 };
    lock = Mutex.create ();
  }

(* Under the lock: the id of [name], publishing a copy of [cur] that
   holds it when it is new. *)
let add t cur name =
  match Hashtbl.find_opt cur.ids name with
  | Some id -> (cur, id)
  | None ->
      let id = Array.length cur.names in
      let ids = Hashtbl.copy cur.ids in
      Hashtbl.replace ids name id;
      let cur = { cur with ids; names = Array.append cur.names [| name |] } in
      Atomic.set t.snap cur;
      (cur, id)

let intern t name =
  match Hashtbl.find (Atomic.get t.snap).ids name with
  | id -> id
  | exception Not_found -> Mutex.protect t.lock (fun () -> snd (add t (Atomic.get t.snap) name))

let find t name = Hashtbl.find_opt (Atomic.get t.snap).ids name
let name t id = (Atomic.get t.snap).names.(id)

let concat t a b =
  let key = (a lsl 31) lor b in
  match Hashtbl.find (Atomic.get t.snap).pairs key with
  | id -> id
  | exception Not_found ->
      Mutex.protect t.lock (fun () ->
          let cur = Atomic.get t.snap in
          match Hashtbl.find_opt cur.pairs key with
          | Some id -> id
          | None ->
              let cur, id = add t cur (cur.names.(a) ^ cur.names.(b)) in
              let pairs = Hashtbl.copy cur.pairs in
              Hashtbl.replace pairs key id;
              Atomic.set t.snap { cur with pairs };
              id)
