(** Run-coverage accounting for the fault-space explorer: an int set of
    packed features plus the shared vocabulary.  See the interface for
    the contract.  A feature holds a kind bit and two or three 20-bit
    symbol ids: [key, value] for {!feat}, [class, from, to] for {!edge}. *)

type symbol = int
type feature = int

let names = Symtab.create ()
let bits = 20
let mask = (1 lsl bits) - 1

let checked id = if id > mask then failwith "Coverage: more than 2^20 symbols" else id
let symbol s = checked (Symtab.intern names s)
let concat a b = checked (Symtab.concat names a b)
let symbol_name = Symtab.name names

let edge_tag = 1 lsl (3 * bits)
let feat key v = (key lsl bits) lor v
let edge ~class_ a b = edge_tag lor (class_ lsl (2 * bits)) lor (a lsl bits) lor b

let name f =
  let field i = symbol_name ((f lsr (i * bits)) land mask) in
  if f land edge_tag = 0 then field 1 ^ ":" ^ field 0
  else Printf.sprintf "e:%s:%s->%s" (field 2) (field 1) (field 0)

type t = (feature, unit) Hashtbl.t

let create () : t = Hashtbl.create 256

let rec add t = function
  | [] -> 0
  | f :: rest ->
      if Hashtbl.mem t f then add t rest
      else begin
        Hashtbl.replace t f ();
        1 + add t rest
      end

let count = Hashtbl.length
let features t = Hashtbl.fold (fun f () acc -> name f :: acc) t [] |> List.sort compare

(* Exact up to 4, then log2 buckets: a counter that ran away still maps
   to a handful of features, so coverage growth measures behaviours, not
   magnitudes.  [le.(k)] is "le(2^k)", a name interned on first use. *)
let exact = Array.init 5 (fun i -> symbol (string_of_int i))
let le = Array.init 62 (fun k -> "le" ^ string_of_int (1 lsl k))

let rec ceil_log2 n k = if 1 lsl k >= n || k = 61 then k else ceil_log2 n (k + 1)
let bucket n = if n <= 4 then exact.(max 0 n) else symbol le.(ceil_log2 n 3)

let s_true = symbol "true"
let s_false = symbol "false"
let bool b = if b then s_true else s_false
