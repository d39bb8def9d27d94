(* Two sorted sources, merged at pop time:

   - a binary min-heap laid out as a structure of arrays. Heap position
     [i] holds ([time.(i)], [key.(i)], [ref_.(i)]). [ref_] says where
     the entry's value is: a non-negative [ref_] is a value slot, whose
     value and cancellation tag live at [value.(s)] and [tag.(s)] and
     never move; a negative one is [lnot] of a handler id, whose value
     is [handlers.(id)]. Sifting moves a hole through the three int
     arrays only, so it never runs the write barrier, and neither push
     nor pop allocates.

   - the same-instant lane: a FIFO ring of plain pushes that were due
     at the time of the last pop ("start on the next tick" events,
     which a cycle-level model issues for a third of its pushes). All
     of its entries share one time, [lane_time], and have seqs in
     push order, so the ring is sorted as it stands and
     pushing or popping it is O(1). [lane_ref] is [lnot] of the entry's
     handler id, or [0] when its value is in [lane_value].

   A pop takes whichever head is smaller under the one (time, key)
   order, so the lane changes the cost of an entry, never its place in
   the pop sequence.

   Handlers are values registered once ([register]) that stay in
   [handlers] for the wheel's life. Pushing one stores an int in the
   heap or the lane and nothing else; popping one reads the table. So
   neither writes a pointer into the wheel's arrays, and neither runs
   [caml_modify]. Any other value takes a value slot (heap) or a lane
   cell, and the pop clears it, so a popped value is never kept
   reachable. Free value slots form a stack, [free.(0 .. free_n - 1)].

   [key] is the entry's seq, the wheel's insertion counter, so
   (time, key) orders entries by time and then in push order. Since
   seq is unique, no two entries compare equal, and the pop order is
   fixed by the pushes alone, whatever the heap's shape.

   [tag] says whether a value slot can be cancelled: [not_cancellable],
   the entry's seq while it is a live cancellable entry (its handle
   names the slot and that seq), or [cancelled]. A slot's tag is reset
   when the slot is freed, and seqs are never reused, so a handle whose
   entry has popped or was cancelled matches no slot again. [dead]
   counts the cancelled entries still in the heap: while it is 0, no
   pop looks at a tag, and the live entries number
   [size + lane_len - dead]. *)

type handle = { h_slot : int; h_seq : int }

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
  mutable ref_ : int array;
  mutable value : 'a array;
  mutable tag : int array;
  mutable free : int array;
  mutable handlers : 'a array;
  (* The lane: [lane_len] entries from [lane_head], modulo the ring's
     power-of-two capacity, all due at [lane_time]. *)
  mutable lane_key : int array;
  mutable lane_ref : int array;
  mutable lane_value : 'a array;
  mutable size : int;
  mutable free_n : int;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable lane_time : int;
  mutable last_pop : int;
  mutable next_seq : int;
  mutable dead : int;
  mutable n_handlers : int;
  _pad0 : int;
  _pad1 : int;
  _pad2 : int;
  _pad3 : int;
  _pad4 : int;
  _pad5 : int;
  _pad6 : int;
}

type 'a handler = { h_owner : 'a t; h_id : int }

(* What a free slot holds. It must not be a pushed value: a popped
   callback left in a freed slot would keep everything it captured
   reachable. An immediate works for every ['a]: it is never read
   back, and because the array is created with it, the array is never
   a flat float array, so storing a boxed ['a] is always sound. *)
let filler () : 'a = Obj.magic ()

let initial_capacity = 64
let initial_lane_capacity = 16
let initial_handlers = 16

(* A stack of the slots [0, n), slot 0 on top. *)
let free_stack n = Array.init n (fun i -> n - 1 - i)

let create () =
  {
    time = Array.make initial_capacity 0;
    key = Array.make initial_capacity 0;
    ref_ = Array.make initial_capacity 0;
    value = Array.make initial_capacity (filler ());
    tag = Array.make initial_capacity not_cancellable;
    free = free_stack initial_capacity;
    handlers = Array.make initial_handlers (filler ());
    lane_key = Array.make initial_lane_capacity 0;
    lane_ref = Array.make initial_lane_capacity 0;
    lane_value = Array.make initial_lane_capacity (filler ());
    size = 0;
    free_n = initial_capacity;
    lane_head = 0;
    lane_len = 0;
    lane_time = 0;
    last_pop = min_int;
    next_seq = 0;
    dead = 0;
    n_handlers = 0;
    _pad0 = 0;
    _pad1 = 0;
    _pad2 = 0;
    _pad3 = 0;
    _pad4 = 0;
    _pad5 = 0;
    _pad6 = 0;
  }

let extend a fill =
  let cap = Array.length a in
  let b = Array.make (2 * cap) fill in
  Array.blit a 0 b 0 cap;
  b

(* Only called when the heap is full. *)
let grow q =
  q.time <- extend q.time 0;
  q.key <- extend q.key 0;
  q.ref_ <- extend q.ref_ 0

(* Only called when every value slot is in use; the new slots
   [cap, 2 cap) become the free stack. *)
let grow_slots q =
  let cap = Array.length q.value in
  q.value <- extend q.value (filler ());
  q.tag <- extend q.tag not_cancellable;
  q.free <- free_stack (2 * cap);
  q.free_n <- cap

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
  q.lane_ref <- unroll q.lane_ref 0;
  q.lane_value <- unroll q.lane_value (filler ());
  q.lane_head <- 0

let register q v =
  let id = q.n_handlers in
  if id = Array.length q.handlers then q.handlers <- extend q.handlers (filler ());
  Array.unsafe_set q.handlers id v;
  q.n_handlers <- id + 1;
  { h_owner = q; h_id = id }

let set_handler h v = Array.unsafe_set h.h_owner.handlers h.h_id v

(* The [ref_] of a handler's entries, after checking that it belongs
   to [q]. *)
let handler_ref q h =
  if h.h_owner != q then
    invalid_arg "Event_queue: handler registered on another wheel";
  lnot h.h_id

(* Position [src]'s entry moves into the hole at [dst]. *)
let move q ~src ~dst =
  Array.unsafe_set q.time dst (Array.unsafe_get q.time src);
  Array.unsafe_set q.key dst (Array.unsafe_get q.key src);
  Array.unsafe_set q.ref_ dst (Array.unsafe_get q.ref_ src)

let place q i time key r =
  Array.unsafe_set q.time i time;
  Array.unsafe_set q.key i key;
  Array.unsafe_set q.ref_ i r

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
   stopped. The smaller child is picked by adding the time comparison
   to [l], without a branch; the keys are read only when the two
   times tie. *)
let rec sift_down q i n time key =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let r = l + 1 in
    let c =
      if r < n then
        let lt = Array.unsafe_get q.time l and rt = Array.unsafe_get q.time r in
        if rt <> lt then l + Bool.to_int (rt < lt)
        else l + Bool.to_int (Array.unsafe_get q.key r < Array.unsafe_get q.key l)
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
  q.next_seq <- seq + 1;
  seq

(* Heap insertion under a key already taken. *)
let insert q time key r =
  let n = q.size in
  if n = Array.length q.time then grow q;
  place q (sift_up q n time key) time key r;
  q.size <- n + 1

(* A value slot holding [v], tagged [tag]. *)
let take_slot q v ~tag =
  if q.free_n = 0 then grow_slots q;
  let n = q.free_n - 1 in
  q.free_n <- n;
  let s = Array.unsafe_get q.free n in
  Array.unsafe_set q.value s v;
  Array.unsafe_set q.tag s tag;
  s

let free_slot q s =
  Array.unsafe_set q.value s (filler ());
  Array.unsafe_set q.tag s not_cancellable;
  Array.unsafe_set q.free q.free_n s;
  q.free_n <- q.free_n + 1

let push_lane q time r v =
  let seq = take_seq q in
  if q.lane_len = Array.length q.lane_key then grow_lane q;
  let i = (q.lane_head + q.lane_len) land (Array.length q.lane_key - 1) in
  Array.unsafe_set q.lane_key i seq;
  Array.unsafe_set q.lane_ref i r;
  if r >= 0 then Array.unsafe_set q.lane_value i v;
  q.lane_time <- time;
  q.lane_len <- q.lane_len + 1

(* A plain push due now joins the lane; its fresh seq puts it after
   every lane entry, and the lane holds only entries of one
   time. *)
let lane_open q time =
  time = q.last_pop && (q.lane_len = 0 || time = q.lane_time)

let push q time v =
  if lane_open q time then push_lane q time 0 v
  else insert q time (take_seq q) (take_slot q v ~tag:not_cancellable)

let push_handler q time h =
  let r = handler_ref q h in
  if lane_open q time then push_lane q time r (filler ())
  else insert q time (take_seq q) r

(* A stream's key is taken when its entry is scheduled, and its heap
   push happens later, when the entry before it pops. *)
let reserve = take_seq

let push_reserved q time ~key h =
  let r = handler_ref q h in
  if key < 0 || key >= q.next_seq then
    invalid_arg "Event_queue.push_reserved: not a reserved key";
  insert q time key r

let push_cancellable q time v =
  let seq = take_seq q in
  let s = take_slot q v ~tag:seq in
  insert q time seq s;
  { h_slot = s; h_seq = seq }

let cancel q h =
  if h.h_slot < Array.length q.tag && Array.unsafe_get q.tag h.h_slot = h.h_seq
  then begin
    Array.unsafe_set q.tag h.h_slot cancelled;
    q.dead <- q.dead + 1
  end

(* Removes the top entry, whose [ref_] is [r]: the last one refills the
   root hole and sifts down, and a value slot is freed. *)
let remove_top q r =
  if r >= 0 then free_slot q r;
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let time = Array.unsafe_get q.time n and key = Array.unsafe_get q.key n in
    place q (sift_down q 0 n time key) time key (Array.unsafe_get q.ref_ n)
  end

(* Cancelled entries are dropped when they surface; only called while
   [dead > 0]. *)
let rec skip_dead q =
  if q.size > 0 then
    let r = Array.unsafe_get q.ref_ 0 in
    if r >= 0 && Array.unsafe_get q.tag r = cancelled then begin
      q.dead <- q.dead - 1;
      remove_top q r;
      if q.dead > 0 then skip_dead q
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

let pop_lane q =
  let h = q.lane_head in
  let r = Array.unsafe_get q.lane_ref h in
  let v =
    if r < 0 then Array.unsafe_get q.handlers (lnot r)
    else begin
      let v = Array.unsafe_get q.lane_value h in
      Array.unsafe_set q.lane_value h (filler ());
      v
    end
  in
  q.lane_head <- (h + 1) land (Array.length q.lane_key - 1);
  q.lane_len <- q.lane_len - 1;
  q.last_pop <- q.lane_time;
  v

(* Pops the heap's top, due at [time]. *)
let pop_top q time =
  let r = Array.unsafe_get q.ref_ 0 in
  let v =
    if r < 0 then Array.unsafe_get q.handlers (lnot r)
    else Array.unsafe_get q.value r
  in
  q.last_pop <- time;
  remove_top q r;
  v

let next_time q =
  if q.dead > 0 then skip_dead q;
  if lane_first q then q.lane_time
  else if q.size = 0 then max_int
  else Array.unsafe_get q.time 0

let pop_next q =
  if q.dead > 0 then skip_dead q;
  if lane_first q then pop_lane q
  else if q.size = 0 then invalid_arg "Event_queue.pop_next: no live event"
  else pop_top q (Array.unsafe_get q.time 0)

let pop_due q ~limit ~none =
  if q.dead > 0 then skip_dead q;
  if lane_first q then if q.lane_time > limit then none else pop_lane q
  else if q.size = 0 then none
  else
    let time = Array.unsafe_get q.time 0 in
    if time > limit then none else pop_top q time

let last_pop q = q.last_pop

let length q = q.size + q.lane_len - q.dead
let is_empty q = length q = 0

let pop q =
  let time = next_time q in
  if is_empty q then None else Some (time, pop_next q)
