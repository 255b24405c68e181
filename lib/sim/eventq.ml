(** A binary min-heap of timestamped events.

    Ties on time are broken by insertion sequence number, which makes the
    simulation schedule fully deterministic: keys [(time, seq)] are
    unique, so the pop order is the sorted key order whatever the heap's
    shape.

    The heap is three parallel arrays — a flat [float array] of times,
    the sequence numbers, and the payloads — so a push allocates nothing
    once the arrays have grown to the run's queue depth.  A vacated
    payload slot is overwritten with an immediate placeholder on pop:
    otherwise the array would retain every popped payload (e.g. timer
    callbacks capturing site state) until the slot happened to be reused
    by a later push. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* The placeholder stored in free payload slots.  It is an immediate, so
   it retains nothing; [payloads] is only ever created by [Array.make]
   with this value, so it is never a flat float array even when ['a] is
   [float], and every access below goes through the generic array
   primitives. *)
let vacant () : 'a = Obj.magic 0

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let payloads = Array.make cap (vacant ()) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* [before t i time seq]: does slot [i] sort strictly before key
   [(time, seq)]? *)
let[@inline] before t i time seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let[@inline] place t i time seq payload =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

(** [push t ~time payload] schedules [payload] at [time]. *)
let push t ~time payload =
  if time < 0.0 || Float.is_nan time then invalid_arg "Eventq.push: bad time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.times then grow t;
  (* sift up: move the hole from the new leaf towards the root *)
  let i = ref t.size and continue = ref true in
  t.size <- t.size + 1;
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent time seq then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  place t !i time seq payload

(** [top_time t] is the earliest event's time.
    @raise Invalid_argument if the queue is empty. *)
let top_time t =
  if t.size = 0 then invalid_arg "Eventq.top_time: empty queue";
  Array.unsafe_get t.times 0

(** [pop_top t] removes and returns the earliest event's payload.  The
    vacated slot is cleared so the heap never retains popped payloads.
    @raise Invalid_argument if the queue is empty. *)
let pop_top t =
  if t.size = 0 then invalid_arg "Eventq.pop_top: empty queue";
  let top = Array.unsafe_get t.payloads 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* sift down: re-insert the last entry from the root *)
    let time = Array.unsafe_get t.times last and seq = Array.unsafe_get t.seqs last in
    let payload = Array.unsafe_get t.payloads last in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r (Array.unsafe_get t.times l) (Array.unsafe_get t.seqs l) then r
          else l
        in
        if before t c time seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place t !i time seq payload
  end;
  Array.unsafe_set t.payloads last (vacant ());
  top

(** [pop t] removes and returns the earliest event, or [None] if empty. *)
let pop t =
  if t.size = 0 then None
  else
    let time = top_time t in
    Some (time, pop_top t)

let peek_time t = if t.size = 0 then None else Some (top_time t)
