type handle = int

(* A binary min-heap laid out as a structure of arrays. Heap position
   [i] holds ([time.(i)], [key.(i)], [slot.(i)]); the entry's value and
   cancellation handle live at [value.(slot.(i))] and [id.(slot.(i))]
   and never move. Sifting moves a hole through the three int arrays
   only, so it never runs the write barrier, and neither push nor pop
   allocates.

   [slot] is always a permutation of [0, capacity): positions below
   [size] name the slots in use, and positions from [size] up are the
   free slots, so a push takes the free slot sitting at its new
   position and a pop leaves the freed slot at the position it
   vacates.

   [key] packs the tie-break (major, minor, seq) into one non-negative
   int, most significant first, so (time, key) compares as
   (time, major, minor, seq):

     bits 60-61  major  (0..3)
     bits 40-59  minor  (0 .. 2^20 - 1)
     bits  0-39  seq    (insertion counter, unique per wheel)

   Plain pushes use rank (1, 0), so among themselves they keep the
   historical (time, insertion-seq) order. The parallel engine inserts
   cross-LP channel deliveries with [push_keyed] at major 0 and minor =
   the channel id: at equal timestamps, channel messages run before
   local events, ordered across channels by channel id and within a
   channel by FIFO arrival — none of which depends on when the
   scheduler happened to drain them into the wheel. Since seq is
   unique, no two entries compare equal, and the pop order is fixed by
   the pushes alone, whatever the heap's shape.

   [id] is the cancellation handle, or -1 for events that cannot be
   cancelled. *)

let seq_bits = 40
let minor_bits = 20
let seq_limit = 1 lsl seq_bits
let minor_limit = 1 lsl minor_bits
let major_limit = 4
let rank ~major ~minor = (major lsl (minor_bits + seq_bits)) lor (minor lsl seq_bits)
let plain_rank = rank ~major:1 ~minor:0

type 'a t = {
  mutable time : int array;
  mutable key : int array;
  mutable slot : int array;
  mutable value : 'a array;
  mutable id : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable next_id : int;
  live_handles : (handle, unit) Hashtbl.t;
  mutable live : int;
}

(* What a free slot holds. It must not be a pushed value: a popped
   callback left in a freed slot would keep everything it captured
   reachable. An immediate works for every ['a]: it is never read
   back, and because the array is created with it, the array is never
   a flat float array, so storing a boxed ['a] is always sound. *)
let filler () : 'a = Obj.magic ()

let initial_capacity = 64

let create () =
  {
    time = Array.make initial_capacity 0;
    key = Array.make initial_capacity 0;
    slot = Array.init initial_capacity Fun.id;
    value = Array.make initial_capacity (filler ());
    id = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
    next_id = 0;
    live_handles = Hashtbl.create 16;
    live = 0;
  }

(* Only called when full: every slot is in use, and the new ones are
   free. *)
let grow q =
  let cap = Array.length q.time in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.time <- extend q.time 0;
  q.key <- extend q.key 0;
  q.slot <- Array.init (2 * cap) (fun i -> if i < cap then q.slot.(i) else i);
  q.value <- extend q.value (filler ());
  q.id <- extend q.id 0

(* Position [src]'s entry moves into the hole at [dst]. *)
let move q ~src ~dst =
  Array.unsafe_set q.time dst (Array.unsafe_get q.time src);
  Array.unsafe_set q.key dst (Array.unsafe_get q.key src);
  Array.unsafe_set q.slot dst (Array.unsafe_get q.slot src)

let place q i time key s =
  Array.unsafe_set q.time i time;
  Array.unsafe_set q.key i key;
  Array.unsafe_set q.slot i s

(* Moves the hole at [i] up past every ancestor that orders after
   (time, key); returns where the hole stopped. *)
let rec sift_up q i time key =
  if i = 0 then 0
  else
    let p = (i - 1) lsr 1 in
    let pt = Array.unsafe_get q.time p in
    if time < pt || (time = pt && key < Array.unsafe_get q.key p) then begin
      move q ~src:p ~dst:i;
      sift_up q p time key
    end
    else i

(* Moves the hole at [i] down past every smaller child, within the
   first [n] positions, until (time, key) fits; returns where it
   stopped. *)
let rec sift_down q i n time key =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let r = l + 1 in
    let c =
      if r < n then
        let lt = Array.unsafe_get q.time l and rt = Array.unsafe_get q.time r in
        if rt < lt || (rt = lt && Array.unsafe_get q.key r < Array.unsafe_get q.key l)
        then r
        else l
      else l
    in
    let ct = Array.unsafe_get q.time c in
    if ct < time || (ct = time && Array.unsafe_get q.key c < key) then begin
      move q ~src:c ~dst:i;
      sift_down q c n time key
    end
    else i

let push_entry q time ~rank v id =
  let seq = q.next_seq in
  if seq = seq_limit then failwith "Event_queue: insertion sequence exhausted";
  q.next_seq <- seq + 1;
  if q.size = Array.length q.time then grow q;
  let s = Array.unsafe_get q.slot q.size in
  Array.unsafe_set q.value s v;
  Array.unsafe_set q.id s id;
  let key = rank lor seq in
  place q (sift_up q q.size time key) time key s;
  q.size <- q.size + 1;
  q.live <- q.live + 1

let push q time v = push_entry q time ~rank:plain_rank v (-1)

let push_keyed q time ~major ~minor v =
  if major < 0 || major >= major_limit || minor < 0 || minor >= minor_limit then
    invalid_arg "Event_queue.push_keyed: major or minor out of range";
  push_entry q time ~rank:(rank ~major ~minor) v (-1)

let push_cancellable q time v =
  let id = q.next_id in
  q.next_id <- id + 1;
  Hashtbl.replace q.live_handles id ();
  push_entry q time ~rank:plain_rank v id;
  id

let cancel q h =
  if Hashtbl.mem q.live_handles h then begin
    Hashtbl.remove q.live_handles h;
    q.live <- q.live - 1
  end

(* Removes the top entry: the last one refills the root hole and sifts
   down, and the top's slot, emptied, becomes the free slot at the
   position the last entry left. *)
let remove_top q =
  let s = Array.unsafe_get q.slot 0 in
  Array.unsafe_set q.value s (filler ());
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let time = Array.unsafe_get q.time n and key = Array.unsafe_get q.key n in
    let last = Array.unsafe_get q.slot n in
    place q (sift_down q 0 n time key) time key last
  end;
  Array.unsafe_set q.slot n s

(* A cancellable entry is dead once its handle is no longer live, i.e.
   [cancel] ran before it reached the top. Dead entries are dropped
   when they surface. *)
let rec skip_dead q =
  if q.size > 0 then begin
    let id = Array.unsafe_get q.id (Array.unsafe_get q.slot 0) in
    if id >= 0 && not (Hashtbl.mem q.live_handles id) then begin
      remove_top q;
      skip_dead q
    end
  end

let next_time q =
  skip_dead q;
  if q.size = 0 then max_int else Array.unsafe_get q.time 0

let pop_next q =
  skip_dead q;
  if q.size = 0 then invalid_arg "Event_queue.pop_next: no live event";
  let s = Array.unsafe_get q.slot 0 in
  let v = Array.unsafe_get q.value s and id = Array.unsafe_get q.id s in
  if id >= 0 then Hashtbl.remove q.live_handles id;
  q.live <- q.live - 1;
  remove_top q;
  v

let pop q =
  let time = next_time q in
  if q.size = 0 then None else Some (time, pop_next q)

let is_empty q = q.live = 0
let length q = q.live
