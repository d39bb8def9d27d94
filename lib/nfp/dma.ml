(* A transfer's continuation must not observe reordering within its
   queue: descriptors (HC ops, ARX notifications) and payload writes
   rely on FIFO semantics, exactly like PCIe read-completion ordering
   within a traffic class. Physical transfers may finish out of order
   once the fault stage retries one of them, so each queue keeps its
   issue-order ticket list and releases continuations strictly from
   the head. With no faults, completions are already FIFO and every
   continuation runs at its own completion instant. *)
type ticket = {
  tk_bytes : int;
  tk_k : unit -> unit;
  tk_token : int;
  mutable tk_attempt : int;
  mutable tk_done : bool;
}

(* Observation hooks for the FlexSan sanitizer: [dt_issue] runs in the
   issuing context and returns a token; [dt_complete] wraps the
   continuation at delivery time. Completion delivery is the
   happens-before edge PCIe gives software (FIFO per queue). *)
type tracer = {
  dt_issue : queue:int -> int;
  dt_complete : queue:int -> token:int -> (unit -> unit) -> unit;
}

type queue_state = {
  mutable inflight : int;
  waiting : ticket Sim.Fifo.t;  (* blocked on an in-flight slot *)
  order : ticket Sim.Fifo.t;  (* issue order; head releases first *)
  pending : ticket Sim.Fifo.t;
      (* issued but not yet rung in (doorbell batching, §3.4): the
         descriptors sit in the ring until a batch accumulates or the
         flush timer fires *)
  mutable db_armed : bool;  (* partial-batch flush timer scheduled *)
}

type fault = { f_rng : Sim.Rng.t; f_rate : float; f_max_retries : int }

type t = {
  engine : Sim.Engine.t;
  (* Completions in flight: each is due [pcie_base_latency] after the
     shared link frees, and [link_free] only grows, so they form one
     stream. *)
  completions : Sim.Engine.Stream.t;
  queues : queue_state array;
  mutable link_free : Sim.Time.t;  (* when the shared link next frees *)
  mutable completed : int;
  mutable bytes : int;
  mutable fault : fault option;
  mutable faults_injected : int;
  mutable retries : int;
  mutable retries_exhausted : int;
  mutable tracer : tracer option;
  (* Batching degree (§3.4): descriptors rung per doorbell and
     completions coalesced per delivery. 1 by default, which keeps
     every code path bit-identical to the unbatched engine. *)
  mutable batch : int;
  mutable doorbells : int;  (* flushes rung (batched mode only) *)
}

let batch_delay = Sim.Time.us 1

let create engine =
  {
    engine;
    completions = Sim.Engine.Stream.create engine;
    queues =
      Array.init Params.dma_queues (fun _ ->
          {
            inflight = 0;
            waiting = Sim.Fifo.create ();
            order = Sim.Fifo.create ();
            pending = Sim.Fifo.create ();
            db_armed = false;
          });
    link_free = Sim.Time.zero;
    completed = 0;
    bytes = 0;
    fault = None;
    faults_injected = 0;
    retries = 0;
    retries_exhausted = 0;
    tracer = None;
    batch = 1;
    doorbells = 0;
  }

let set_tracer t tr = t.tracer <- tr

let set_batch t degree = t.batch <- degree

let set_fault t ?(seed = 0xD0AL) ~rate ?(max_retries = 8) () =
  t.fault <-
    Some { f_rng = Sim.Rng.create seed; f_rate = rate; f_max_retries = max_retries }

let serialization_time bytes =
  if bytes <= 0 then 0
  else
    (* bits / (Gb/s) = ns; work in picoseconds. *)
    let ps = float_of_int (8 * bytes) *. 1000. /. Params.pcie_gbps in
    int_of_float (Float.round ps)

(* Release finished tickets from the head of the queue's issue order:
   a still-retrying transfer ahead in the order holds everything
   behind it. With completion coalescing ([batch] > 1) a ready run
   shorter than the batch is additionally held back — unless the queue
   has gone idle, in which case nothing else will ever top the batch
   up, so the stragglers are delivered now (this is what makes the
   coalesced engine deadlock-free: the last completion of any burst
   always observes an idle queue and drains it). *)
let drain_order t qi q =
  let release () =
    while
      (not (Sim.Fifo.is_empty q.order)) && (Sim.Fifo.peek q.order).tk_done
    do
      let tk = Sim.Fifo.pop q.order in
      match t.tracer with
      | None -> tk.tk_k ()
      | Some tr -> tr.dt_complete ~queue:qi ~token:tk.tk_token tk.tk_k
    done
  in
  if t.batch <= 1 then release ()
  else begin
    let ready = ref 0 in
    (try
       Sim.Fifo.iter
         (fun tk -> if tk.tk_done then incr ready else raise Exit)
         q.order
     with Exit -> ());
    let idle =
      q.inflight = 0
      && Sim.Fifo.is_empty q.waiting
      && Sim.Fifo.is_empty q.pending
    in
    if !ready >= t.batch || idle then release ()
  end

let rec start t qi q tk =
  q.inflight <- q.inflight + 1;
  let now = Sim.Engine.now t.engine in
  let ser = serialization_time tk.tk_bytes in
  let start_time = Int.max now t.link_free in
  t.link_free <- start_time + ser;
  Sim.Engine.Stream.schedule_at t.completions
    (t.link_free + Params.pcie_base_latency) (fun () ->
      q.inflight <- q.inflight - 1;
      (* Free slot: admit a waiter, if any. *)
      if not (Sim.Fifo.is_empty q.waiting) then
        start t qi q (Sim.Fifo.pop q.waiting);
      (* The transfer occupied the link either way; an injected fault
         (flaky link: CRC error, completion timeout) means the payload
         must be re-sent, paying serialisation and latency again. *)
      let failed =
        match t.fault with
        | Some f when f.f_rate > 0. && Sim.Rng.bool f.f_rng f.f_rate ->
            t.faults_injected <- t.faults_injected + 1;
            true
        | _ -> false
      in
      match t.fault with
      | Some f when failed && tk.tk_attempt < f.f_max_retries ->
          t.retries <- t.retries + 1;
          tk.tk_attempt <- tk.tk_attempt + 1;
          admit t qi q tk
      | _ ->
          if failed then t.retries_exhausted <- t.retries_exhausted + 1;
          t.completed <- t.completed + 1;
          t.bytes <- t.bytes + tk.tk_bytes;
          tk.tk_done <- true;
          drain_order t qi q)

and admit t qi q tk =
  if q.inflight < Params.dma_inflight then start t qi q tk
  else Sim.Fifo.push tk q.waiting

(* Ring the doorbell: admit every pending descriptor in one go. *)
let flush_doorbell t qi q =
  if not (Sim.Fifo.is_empty q.pending) then begin
    t.doorbells <- t.doorbells + 1;
    while not (Sim.Fifo.is_empty q.pending) do
      admit t qi q (Sim.Fifo.pop q.pending)
    done
  end

let issue t ~queue ~bytes k =
  let qi = queue mod Array.length t.queues in
  let q = t.queues.(qi) in
  (* The issue token is captured here, in the issuing context, whether
     or not the doorbell is deferred — the happens-before edge PCIe
     gives software runs from the descriptor write, not the ring. *)
  let token =
    match t.tracer with Some tr -> tr.dt_issue ~queue:qi | None -> 0
  in
  let tk =
    { tk_bytes = bytes; tk_k = k; tk_token = token; tk_attempt = 0;
      tk_done = false }
  in
  Sim.Fifo.push tk q.order;
  if t.batch <= 1 then admit t qi q tk
  else begin
    Sim.Fifo.push tk q.pending;
    if Sim.Fifo.length q.pending >= t.batch then flush_doorbell t qi q
    else if not q.db_armed then begin
      q.db_armed <- true;
      Sim.Engine.schedule t.engine batch_delay (fun () ->
          q.db_armed <- false;
          flush_doorbell t qi q)
    end
  end

let in_flight t = Array.fold_left (fun n q -> n + q.inflight) 0 t.queues

let queued t =
  Array.fold_left
    (fun n q -> n + Sim.Fifo.length q.waiting + Sim.Fifo.length q.pending)
    0 t.queues

let doorbells t = t.doorbells

let queue_stats t =
  Array.map (fun q -> (q.inflight, Sim.Fifo.length q.waiting)) t.queues

let transfers_completed t = t.completed
let bytes_transferred t = t.bytes
let faults_injected t = t.faults_injected
let retries t = t.retries
let retries_exhausted t = t.retries_exhausted
