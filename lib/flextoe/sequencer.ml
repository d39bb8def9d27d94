type 'a slot = Empty | Item of 'a | Skipped

(* Observation hooks for the FlexSan sanitizer. Every submit/skip
   publishes the submitting context ([sq_submit]); a release joins the
   accumulated channel ([sq_release] wraps the release callback) —
   the sequencer's ordering guarantee as a happens-before edge. *)
type tracer = {
  sq_submit : unit -> unit;
  sq_release : (unit -> unit) -> unit;
}

type 'a t = {
  name : string;
  release : 'a -> unit;
  mutable next_alloc : int;
  mutable next_release : int;
  (* A ring indexed by seq: [waiting.(seq land (capacity - 1))] is the
     slot of [seq] for every seq in [next_release, next_release +
     capacity), and [Empty] until that seq is submitted or skipped. The
     capacity is a power of two and doubles when a seq lands beyond the
     window. A fresh sequencer has no ring: the first submit or skip
     makes it, so an unused sequencer costs only its record. *)
  mutable waiting : 'a slot array;
  mutable waiting_count : int;
  mutable released : int;
  mutable reordered : int;
  mutable tracer : tracer option;
}

let create ~name ~release =
  {
    name;
    release;
    next_alloc = 0;
    next_release = 0;
    waiting = [||];
    waiting_count = 0;
    released = 0;
    reordered = 0;
    tracer = None;
  }

let set_tracer t tr = t.tracer <- tr

let next_seq t =
  let s = t.next_alloc in
  t.next_alloc <- s + 1;
  s

let allocated t = t.next_alloc

let index t seq = seq land (Array.length t.waiting - 1)

let rec drain t =
  let i = index t t.next_release in
  match t.waiting.(i) with
  | Empty -> ()
  | slot ->
      t.waiting.(i) <- Empty;
      t.waiting_count <- t.waiting_count - 1;
      t.next_release <- t.next_release + 1;
      (match slot with
      | Item v ->
          t.released <- t.released + 1;
          (match t.tracer with
          | None -> t.release v
          | Some tr -> tr.sq_release (fun () -> t.release v))
      | Skipped | Empty -> ());
      drain t

(* Doubles the ring (from one slot, if there is none yet) until [seq]
   falls inside the window, moving every slot of the old window to its
   index in the new ring. *)
let grow t seq =
  let old = t.waiting in
  let cap = ref (Int.max 1 (Array.length old)) in
  while seq - t.next_release >= !cap do
    cap := 2 * !cap
  done;
  let ring = Array.make !cap Empty in
  for s = t.next_release to t.next_release + Array.length old - 1 do
    ring.(s land (!cap - 1)) <- old.(s land (Array.length old - 1))
  done;
  t.waiting <- ring

let check_valid t seq =
  if seq >= t.next_alloc then
    invalid_arg (t.name ^ ": sequence number was never allocated");
  if seq < t.next_release then
    invalid_arg (t.name ^ ": duplicate sequence number");
  if seq - t.next_release >= Array.length t.waiting then grow t seq
  else if t.waiting.(index t seq) != Empty then
    invalid_arg (t.name ^ ": duplicate sequence number")

let put t seq slot =
  t.waiting.(index t seq) <- slot;
  t.waiting_count <- t.waiting_count + 1;
  drain t

let submit t ~seq v =
  check_valid t seq;
  if seq <> t.next_release then t.reordered <- t.reordered + 1;
  (match t.tracer with Some tr -> tr.sq_submit () | None -> ());
  put t seq (Item v)

let skip t ~seq =
  check_valid t seq;
  (match t.tracer with Some tr -> tr.sq_submit () | None -> ());
  put t seq Skipped

let pending t = t.waiting_count
let released t = t.released
let reordered t = t.reordered
