(* Two sorted sources, merged at pop time:

   - a binary min-heap laid out as a structure of arrays. Heap position
     [i] holds ([time.(i)], [key.(i)], [slot.(i)]); the entry's value
     and cancellation tag live at [value.(slot.(i))] and
     [tag.(slot.(i))] and never move. Sifting moves a hole through the
     three int arrays only, so it never runs the write barrier, and
     neither push nor pop allocates.

   - the same-instant lane: a FIFO ring of plain pushes that were due
     at the time of the last pop ("start on the next tick" events,
     which a cycle-level model issues for a third of its pushes). All
     of its entries share one time, [lane_time], and have plain rank
     with seqs in push order, so the ring is sorted as it stands and
     pushing or popping it is O(1).

   [next_time] and [pop_next] take whichever head is smaller under the
   one (time, key) order, so the lane changes the cost of an entry,
   never its place in the pop sequence.

   In the heap, [slot] is always a permutation of [0, capacity):
   positions below [size] name the slots in use, and positions from
   [size] up are the free slots, so a push takes the free slot sitting
   at its new position and a pop leaves the freed slot at the position
   it vacates.

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

   [tag] says whether a heap slot can be cancelled: [not_cancellable],
   the entry's seq while it is a live cancellable entry (its handle
   names the slot and that seq), or [cancelled]. A slot's tag is reset
   when the slot is freed, and seqs are never reused, so a handle whose
   entry has popped or was cancelled matches no slot again. *)

type handle = { h_slot : int; h_seq : int }

let seq_bits = 40
let minor_bits = 20
let seq_limit = 1 lsl seq_bits
let minor_limit = 1 lsl minor_bits
let major_limit = 4
let rank ~major ~minor = (major lsl (minor_bits + seq_bits)) lor (minor lsl seq_bits)
let plain_rank = rank ~major:1 ~minor:0
let not_cancellable = -1
let cancelled = -2

type 'a t = {
  (* The arrays (replaced only when they grow), then the counters every
     push or pop writes, then seven words of padding: at least 56 bytes
     of this record lie on each side of the counters, so their cache
     line holds no other heap object. The wheels of cluster LPs are
     allocated by one thread and written by different domains; side by
     side, they would falsely share a line on every event. *)
  mutable time : int array;
  mutable key : int array;
  mutable slot : int array;
  mutable value : 'a array;
  mutable tag : int array;
  (* The lane: [lane_len] entries from [lane_head], modulo the ring's
     power-of-two capacity, all due at [lane_time]. *)
  mutable lane_key : int array;
  mutable lane_value : 'a array;
  mutable size : int;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable lane_time : int;
  mutable last_pop : int;
  mutable next_seq : int;
  mutable live : int;
  _pad0 : int;
  _pad1 : int;
  _pad2 : int;
  _pad3 : int;
  _pad4 : int;
  _pad5 : int;
  _pad6 : int;
}

(* What a free slot holds. It must not be a pushed value: a popped
   callback left in a freed slot would keep everything it captured
   reachable. An immediate works for every ['a]: it is never read
   back, and because the array is created with it, the array is never
   a flat float array, so storing a boxed ['a] is always sound. *)
let filler () : 'a = Obj.magic ()

let initial_capacity = 64
let initial_lane_capacity = 16

let create () =
  {
    time = Array.make initial_capacity 0;
    key = Array.make initial_capacity 0;
    slot = Array.init initial_capacity Fun.id;
    value = Array.make initial_capacity (filler ());
    tag = Array.make initial_capacity not_cancellable;
    lane_key = Array.make initial_lane_capacity 0;
    lane_value = Array.make initial_lane_capacity (filler ());
    size = 0;
    lane_head = 0;
    lane_len = 0;
    lane_time = 0;
    last_pop = min_int;
    next_seq = 0;
    live = 0;
    _pad0 = 0;
    _pad1 = 0;
    _pad2 = 0;
    _pad3 = 0;
    _pad4 = 0;
    _pad5 = 0;
    _pad6 = 0;
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
  q.tag <- extend q.tag not_cancellable

(* Only called when the ring is full; unrolls it to start at 0. *)
let grow_lane q =
  let cap = Array.length q.lane_key in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - q.lane_head in
    Array.blit a q.lane_head b 0 first;
    Array.blit a 0 b first q.lane_head;
    b
  in
  q.lane_key <- unroll q.lane_key 0;
  q.lane_value <- unroll q.lane_value (filler ());
  q.lane_head <- 0

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

let take_seq q =
  let seq = q.next_seq in
  if seq = seq_limit then failwith "Event_queue: insertion sequence exhausted";
  q.next_seq <- seq + 1;
  seq

(* Heap insertion under a key already taken; returns the slot the entry
   took. *)
let insert q time key v ~tag =
  if q.size = Array.length q.time then grow q;
  let s = Array.unsafe_get q.slot q.size in
  Array.unsafe_set q.value s v;
  Array.unsafe_set q.tag s tag;
  place q (sift_up q q.size time key) time key s;
  q.size <- q.size + 1;
  q.live <- q.live + 1;
  s

let push_heap q time ~rank v ~cancellable =
  let seq = take_seq q in
  insert q time (rank lor seq) v
    ~tag:(if cancellable then seq else not_cancellable)

let push_lane q time v =
  let seq = take_seq q in
  if q.lane_len = Array.length q.lane_key then grow_lane q;
  let i = (q.lane_head + q.lane_len) land (Array.length q.lane_key - 1) in
  Array.unsafe_set q.lane_key i (plain_rank lor seq);
  Array.unsafe_set q.lane_value i v;
  q.lane_time <- time;
  q.lane_len <- q.lane_len + 1;
  q.live <- q.live + 1

(* A plain push due now joins the lane; its rank and fresh seq put it
   after every lane entry, and the lane holds only entries of one
   time. *)
let push q time v =
  if time = q.last_pop && (q.lane_len = 0 || time = q.lane_time) then
    push_lane q time v
  else ignore (push_heap q time ~rank:plain_rank v ~cancellable:false)

(* A stream's key is taken when its entry is scheduled, and its heap
   push happens later, when the entry before it pops. *)
let reserve q = plain_rank lor take_seq q

let push_reserved q time ~key v =
  if key lsr seq_bits <> plain_rank lsr seq_bits
     || key land (seq_limit - 1) >= q.next_seq
  then invalid_arg "Event_queue.push_reserved: not a reserved key";
  ignore (insert q time key v ~tag:not_cancellable)

let push_keyed q time ~major ~minor v =
  if major < 0 || major >= major_limit || minor < 0 || minor >= minor_limit then
    invalid_arg "Event_queue.push_keyed: major or minor out of range";
  ignore (push_heap q time ~rank:(rank ~major ~minor) v ~cancellable:false)

let push_cancellable q time v =
  let s = push_heap q time ~rank:plain_rank v ~cancellable:true in
  { h_slot = s; h_seq = Array.unsafe_get q.tag s }

let cancel q h =
  if h.h_slot < Array.length q.tag && Array.unsafe_get q.tag h.h_slot = h.h_seq
  then begin
    Array.unsafe_set q.tag h.h_slot cancelled;
    q.live <- q.live - 1
  end

(* Removes the top entry: the last one refills the root hole and sifts
   down, and the top's slot, emptied, becomes the free slot at the
   position the last entry left. *)
let remove_top q =
  let s = Array.unsafe_get q.slot 0 in
  Array.unsafe_set q.value s (filler ());
  Array.unsafe_set q.tag s not_cancellable;
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let time = Array.unsafe_get q.time n and key = Array.unsafe_get q.key n in
    let last = Array.unsafe_get q.slot n in
    place q (sift_down q 0 n time key) time key last
  end;
  Array.unsafe_set q.slot n s

(* Cancelled entries are dropped when they surface. *)
let rec skip_dead q =
  if q.size > 0
     && Array.unsafe_get q.tag (Array.unsafe_get q.slot 0) = cancelled
  then begin
    remove_top q;
    skip_dead q
  end

(* Whether the lane's head orders before the heap's (live) top. *)
let lane_first q =
  q.lane_len > 0
  && (q.size = 0
     ||
     let t = Array.unsafe_get q.time 0 in
     q.lane_time < t
     || q.lane_time = t
        && Array.unsafe_get q.lane_key q.lane_head < Array.unsafe_get q.key 0)

let next_time q =
  skip_dead q;
  if lane_first q then q.lane_time
  else if q.size = 0 then max_int
  else Array.unsafe_get q.time 0

let pop_next q =
  skip_dead q;
  if lane_first q then begin
    let h = q.lane_head in
    let v = Array.unsafe_get q.lane_value h in
    Array.unsafe_set q.lane_value h (filler ());
    q.lane_head <- (h + 1) land (Array.length q.lane_key - 1);
    q.lane_len <- q.lane_len - 1;
    q.live <- q.live - 1;
    q.last_pop <- q.lane_time;
    v
  end
  else begin
    if q.size = 0 then invalid_arg "Event_queue.pop_next: no live event";
    let v = Array.unsafe_get q.value (Array.unsafe_get q.slot 0) in
    q.last_pop <- Array.unsafe_get q.time 0;
    q.live <- q.live - 1;
    remove_top q;
    v
  end

let pop q =
  let time = next_time q in
  if q.live = 0 then None else Some (time, pop_next q)

let is_empty q = q.live = 0
let length q = q.live
