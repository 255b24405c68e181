(** Deterministic pseudo-random numbers (splitmix64).

    Every source of randomness in a simulation flows from one seed, so any
    run — including every Monte-Carlo experiment — is exactly replayable
    from its seed. *)

(* The splitmix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: the byte accessors are primitives the native compiler
   keeps unboxed, so with [next] inlined a draw boxes no [int64] (an
   [int64] field would be re-boxed on every store). *)
type t = Bytes.t

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let open Int64 in
  let s = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = next t

let split t =
  (* Consumes one draw from the parent: successive splits must yield
     distinct streams, and drawing from a child must not perturb the
     parent beyond that single draw. *)
  let x = next t in
  of_state Int64.(logxor (mul x 0x9E3779B97F4A7C15L) 0xBF58476D1CE4E5B9L)

(** [int t bound] draws uniformly from [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

(** [float t bound] draws uniformly from [0, bound). *)
let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

(** [choice t l] picks a uniform element of the non-empty list [l]. *)
let choice t l =
  match l with
  | [] -> invalid_arg "Rng.choice: empty list"
  | _ -> List.nth l (int t (List.length l))

(** Bernoulli draw with success probability [p]. *)
let flip t ~p = float t 1.0 < p

(** Exponentially distributed draw with the given [mean]. *)
let exponential t ~mean = -.mean *. log (1.0 -. float t 1.0)

(** Fisher–Yates shuffle (fresh list). *)
let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
