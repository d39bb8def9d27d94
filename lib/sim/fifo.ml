(* A ring of [len] values from [head], modulo the array's power-of-two
   length; a fresh FIFO has the empty array and no capacity.

   Why not [Stdlib.Queue]: its [take] leaves the popped cell's [next]
   link in place. Once one cell of a long-lived queue has been
   promoted, every push links an old cell to a young one, and each
   minor collection copies the whole chain pushed since the last one,
   with everything the cells captured, popped or not. Here the queue
   owns one array, and a pop resets its cell to the filler, so a value
   that leaves before the next minor collection is never promoted. *)

exception Empty

type 'a t = { mutable cells : 'a array; mutable head : int; mutable len : int }

(* What a free cell holds, by the rule [Event_queue] follows: never a
   pushed value, which would stay reachable after its pop. An
   immediate works for every ['a]: it is never read back, and an array
   made with it is never a flat float array. *)
let filler () : 'a = Obj.magic ()

let initial_capacity = 8
let create () = { cells = [||]; head = 0; len = 0 }
let is_empty q = q.len = 0
let length q = q.len

(* Only called when full; unrolls the ring to start at 0. *)
let grow q =
  let cap = Array.length q.cells in
  let b = Array.make (Int.max initial_capacity (2 * cap)) (filler ()) in
  let first = cap - q.head in
  Array.blit q.cells q.head b 0 first;
  Array.blit q.cells 0 b first q.head;
  q.cells <- b;
  q.head <- 0

let push x q =
  if q.len = Array.length q.cells then grow q;
  let cells = q.cells in
  Array.unsafe_set cells ((q.head + q.len) land (Array.length cells - 1)) x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then raise Empty;
  let cells = q.cells and h = q.head in
  let x = Array.unsafe_get cells h in
  Array.unsafe_set cells h (filler ());
  q.head <- (h + 1) land (Array.length cells - 1);
  q.len <- q.len - 1;
  x

let take_opt q = if q.len = 0 then None else Some (pop q)
let peek q = if q.len = 0 then raise Empty else Array.unsafe_get q.cells q.head

(* [f] runs on the values in place, so it must not push or pop [q]. *)
let fold f acc q =
  let cells = q.cells in
  let mask = Array.length cells - 1 in
  let acc = ref acc in
  for i = 0 to q.len - 1 do
    acc := f !acc (Array.unsafe_get cells ((q.head + i) land mask))
  done;
  !acc

let iter f q = fold (fun () x -> f x) () q

let clear q =
  Array.fill q.cells 0 (Array.length q.cells) (filler ());
  q.head <- 0;
  q.len <- 0
