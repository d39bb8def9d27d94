(* Observation hooks for the FlexSan sanitizer: [rg_push] runs in the
   producer's context on every successful push, [rg_pop] in the
   consumer's on every successful pop — the ring's FIFO hand-off as a
   happens-before edge. *)
type tracer = { rg_push : unit -> unit; rg_pop : unit -> unit }

type 'a t = {
  name : string;
  q : 'a Sim.Fifo.t;
  capacity : int option;
  mutable notify : (unit -> unit) option;
  mutable max_occ : int;
  mutable pushes : int;
  mutable drops : int;
  mutable tracer : tracer option;
}

let create ?capacity ~name () =
  {
    name;
    q = Sim.Fifo.create ();
    capacity;
    notify = None;
    max_occ = 0;
    pushes = 0;
    drops = 0;
    tracer = None;
  }

let name t = t.name
let set_tracer t tr = t.tracer <- tr

let push t v =
  let full =
    match t.capacity with Some c -> Sim.Fifo.length t.q >= c | None -> false
  in
  if full then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    Sim.Fifo.push v t.q;
    t.pushes <- t.pushes + 1;
    if Sim.Fifo.length t.q > t.max_occ then t.max_occ <- Sim.Fifo.length t.q;
    (match t.tracer with Some tr -> tr.rg_push () | None -> ());
    (match t.notify with Some f -> f () | None -> ());
    true
  end

let pop t =
  match Sim.Fifo.take_opt t.q with
  | Some _ as r ->
      (match t.tracer with Some tr -> tr.rg_pop () | None -> ());
      r
  | None -> None
let is_empty t = Sim.Fifo.is_empty t.q
let length t = Sim.Fifo.length t.q
let capacity t = t.capacity
let set_notify t f = t.notify <- Some f
let max_occupancy t = t.max_occ
let pushes t = t.pushes
let drops t = t.drops
