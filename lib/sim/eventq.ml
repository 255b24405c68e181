(** A binary min-heap of timestamped events.

    Ties on time are broken by insertion sequence number, which makes the
    simulation schedule fully deterministic: keys [(time, seq)] are
    unique, so the pop order is the sorted key order whatever the heap's
    shape.

    The heap holds only unboxed keys: a flat [float array] of times and
    an [int array] of tags, [tag = (seq lsl slot_bits) lor slot].  The
    sequence number fills a tag's high bits, so comparing tags compares
    sequence numbers, and a sift moves two unboxed words per level: no
    write barrier and no polymorphic-array check.  The payloads sit in a
    slot pool, written once on push and overwritten on pop with an
    immediate, so the pool never retains a popped payload (e.g. a timer
    callback capturing site state).  That immediate is the next link of
    the free list threaded through the vacated slots, which are reused
    first; when the list is empty every slot below [size] is in use, so
    the next fresh slot is [size].  Nothing is allocated per push once
    the arrays have grown to the run's queue depth. *)

type 'a t = {
  mutable times : float array;  (** heap order *)
  mutable tags : int array;  (** heap order *)
  mutable pool : 'a array;  (** by slot; a free slot holds the next free slot as an int *)
  mutable free : int;  (** the head of the free list of vacated slots, or -1 *)
  mutable size : int;
  mutable next_seq : int;
}

let slot_bits = 24
let max_pending = 1 lsl slot_bits
let slot_mask = max_pending - 1

(* A tag must stay a non-negative int for the comparison to follow the
   sequence number. *)
let max_pushes = 1 lsl (Sys.int_size - 1 - slot_bits)

(* A free pool slot holds the free list's next link, an int, where a
   payload would be.  An immediate retains nothing; [pool] is only ever
   created by [Array.make] with one, so it is never a flat float array
   even when ['a] is [float], and every access below goes through the
   generic array primitives. *)
let link (next : int) : 'a = Obj.magic next
let next_free (v : 'a) : int = Obj.magic v

let create () = { times = [||]; tags = [||]; pool = [||]; free = -1; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Called when every slot is in use, so the free list is empty. *)
let grow t =
  if t.size >= max_pending then
    invalid_arg (Printf.sprintf "Eventq.push: more than %d pending events" max_pending);
  let cap = min max_pending (max 16 (2 * t.size)) in
  let times = Array.make cap 0.0 and tags = Array.make cap 0 in
  let pool = Array.make cap (link (-1)) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.tags 0 tags 0 t.size;
  Array.blit t.pool 0 pool 0 t.size;
  t.times <- times;
  t.tags <- tags;
  t.pool <- pool

(* [before t i time tag]: does heap entry [i] sort strictly before key
   [(time, tag)]? *)
let[@inline] before t i time tag =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.tags i < tag)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.tags dst (Array.unsafe_get t.tags src)

let[@inline] place t i time tag =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.tags i tag

(** [push t ~time payload] schedules [payload] at [time]. *)
let push t ~time payload =
  if time < 0.0 || Float.is_nan time then invalid_arg "Eventq.push: bad time";
  let seq = t.next_seq in
  if seq = max_pushes then
    invalid_arg (Printf.sprintf "Eventq.push: more than %d pushes on one queue" max_pushes);
  t.next_seq <- seq + 1;
  if t.size = Array.length t.times then grow t;
  let slot = t.free in
  let slot =
    if slot >= 0 then begin
      t.free <- next_free (Array.unsafe_get t.pool slot);
      slot
    end
    else t.size
  in
  Array.unsafe_set t.pool slot payload;
  let tag = (seq lsl slot_bits) lor slot in
  (* sift up: move the hole from the new leaf towards the root *)
  let i = ref t.size and continue = ref true in
  t.size <- t.size + 1;
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent time tag then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  place t !i time tag

(** [top_time t] is the earliest event's time.
    @raise Invalid_argument if the queue is empty. *)
let top_time t =
  if t.size = 0 then invalid_arg "Eventq.top_time: empty queue";
  Array.unsafe_get t.times 0

(** [pop_top t] removes and returns the earliest event's payload.  Its
    pool slot is cleared so the queue never retains popped payloads.
    @raise Invalid_argument if the queue is empty. *)
let pop_top t =
  if t.size = 0 then invalid_arg "Eventq.pop_top: empty queue";
  let slot = Array.unsafe_get t.tags 0 land slot_mask in
  let top = Array.unsafe_get t.pool slot in
  Array.unsafe_set t.pool slot (link t.free);
  t.free <- slot;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* sift down: re-insert the last entry from the root *)
    let time = Array.unsafe_get t.times last and tag = Array.unsafe_get t.tags last in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r (Array.unsafe_get t.times l) (Array.unsafe_get t.tags l) then r
          else l
        in
        if before t c time tag then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place t !i time tag
  end;
  top

(** [pop t] removes and returns the earliest event, or [None] if empty. *)
let pop t =
  if t.size = 0 then None
  else
    let time = top_time t in
    Some (time, pop_top t)

let peek_time t = if t.size = 0 then None else Some (top_time t)
