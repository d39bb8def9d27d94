type phase = Compute of int | Mem of Memory.level | Sleep of Sim.Time.t

(* Observation hooks for the FlexSan sanitizer: [tr_submit] runs in
   the submitting context and returns a token; [tr_run] wraps the
   work's completion continuation and learns which hardware-thread
   slot executed it. Cross-thread ordering inside an FPC exists only
   through these edges — two work items on different slots are
   concurrent. *)
type tracer = {
  tr_submit : unit -> int;
  tr_run : slot:int -> token:int -> (unit -> unit) -> unit;
}

(* A work item waiting for a hardware thread. *)
type work = { phases : phase list; k : unit -> unit; token : int }

(* A hardware thread. While it runs an item, [phases] holds the phases
   still to execute, and [k] and [token] the item's continuation and
   tracer token; [cycles] holds the compute burst it is waiting to
   issue while it queues for the core. [resume] (continue with
   [phases]) and [core_done] (end of a compute burst) are registered
   once with the engine, in [create], and scheduled by id for every
   phase, so running an item neither allocates nor writes a pointer
   into the wheel. *)
type hw = {
  slot : int;
  mutable phases : phase list;
  mutable k : unit -> unit;
  mutable token : int;
  mutable cycles : int;
  resume : Sim.Engine.handler;
  core_done : Sim.Engine.handler;
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  name : string;
  threads : int;
  (* Idle hardware threads, a stack whose top is [idle.(idle_n - 1)]:
     a finished thread is the next one handed out. *)
  idle : hw array;
  mutable idle_n : int;
  pending : work Sim.Fifo.t;
  (* Issue unit: serves one compute burst at a time; threads waiting
     for it queue FIFO. *)
  mutable core_busy : bool;
  core_waiters : hw Sim.Fifo.t;
  mutable busy : Sim.Time.t;
  mutable stall : Sim.Time.t;  (* cumulative thread-time in Mem phases *)
  mutable completed : int;
  mutable tracer : tracer option;
}

let set_tracer t tr = t.tracer <- tr

let name t = t.name

let mem_latency t level =
  Sim.Time.Freq.cycles t.params.Params.fpc_freq
    (Memory.latency_cycles t.params level)

(* Grant the core to [hw]'s compute burst; [hw.core_done] hands it to
   the next waiter. *)
let grant_core t hw cycles =
  t.core_busy <- true;
  let dur = Sim.Time.Freq.cycles t.params.Params.fpc_freq cycles in
  t.busy <- t.busy + dur;
  Sim.Engine.schedule_handler t.engine dur hw.core_done

let release_core t =
  if (not t.core_busy) && not (Sim.Fifo.is_empty t.core_waiters) then begin
    let hw = Sim.Fifo.pop t.core_waiters in
    grant_core t hw hw.cycles
  end

let request_core t hw cycles =
  if t.core_busy then begin
    hw.cycles <- cycles;
    Sim.Fifo.push hw t.core_waiters
  end
  else grant_core t hw cycles

let rec run_phases t hw =
  match hw.phases with
  | [] ->
      t.completed <- t.completed + 1;
      (match t.tracer with
      | None -> hw.k ()
      | Some tr -> tr.tr_run ~slot:hw.slot ~token:hw.token hw.k);
      thread_done t hw
  | Compute 0 :: rest ->
      hw.phases <- rest;
      run_phases t hw
  | Compute cycles :: rest ->
      hw.phases <- rest;
      request_core t hw cycles
  | Mem level :: rest ->
      hw.phases <- rest;
      let lat = mem_latency t level in
      t.stall <- t.stall + lat;
      Sim.Engine.schedule_handler t.engine lat hw.resume
  | Sleep d :: rest ->
      hw.phases <- rest;
      Sim.Engine.schedule_handler t.engine d hw.resume

and thread_done t hw =
  if Sim.Fifo.is_empty t.pending then begin
    (* Drop the finished continuation so it does not outlive its
       item. *)
    hw.k <- ignore;
    t.idle.(t.idle_n) <- hw;
    t.idle_n <- t.idle_n + 1
  end
  else begin
    (* The same hardware thread picks up the next queued item. *)
    let w = Sim.Fifo.pop t.pending in
    hw.phases <- w.phases;
    hw.k <- w.k;
    hw.token <- w.token;
    run_phases t hw
  end

let create engine ~params ~threads ~name () =
  if threads <= 0 then invalid_arg "Fpc.create: threads must be positive";
  let hws =
    Array.init threads (fun slot ->
        {
          slot;
          phases = [];
          k = ignore;
          token = 0;
          cycles = 0;
          resume = Sim.Engine.register engine ignore;
          core_done = Sim.Engine.register engine ignore;
        })
  in
  let t =
    {
      engine;
      params;
      name;
      threads;
      (* Slot 0 on top, as the first thread handed out. *)
      idle = Array.init threads (fun i -> hws.(threads - 1 - i));
      idle_n = threads;
      pending = Sim.Fifo.create ();
      core_busy = false;
      core_waiters = Sim.Fifo.create ();
      busy = 0;
      stall = 0;
      completed = 0;
      tracer = None;
    }
  in
  Array.iter
    (fun hw ->
      Sim.Engine.set_handler hw.resume (fun () -> run_phases t hw);
      Sim.Engine.set_handler hw.core_done
        (fun () ->
          t.core_busy <- false;
          release_core t;
          run_phases t hw))
    hws;
  t

let submit t phases k =
  let token =
    match t.tracer with Some tr -> tr.tr_submit () | None -> 0
  in
  if t.idle_n > 0 then begin
    t.idle_n <- t.idle_n - 1;
    let hw = t.idle.(t.idle_n) in
    hw.phases <- phases;
    hw.k <- k;
    hw.token <- token;
    (* Start on the next engine tick to keep submit non-reentrant. *)
    Sim.Engine.schedule_handler t.engine 0 hw.resume
  end
  else Sim.Fifo.push { phases; k; token } t.pending

let queue_length t = Sim.Fifo.length t.pending
let in_flight t = t.threads - t.idle_n
let busy_time t = t.busy
let stall_time t = t.stall
let threads t = t.threads

let utilization t ~total =
  if total <= 0 then 0. else Sim.Time.to_sec t.busy /. Sim.Time.to_sec total

let items_completed t = t.completed

let phase_cost params phases =
  let freq = params.Params.fpc_freq in
  List.fold_left
    (fun acc -> function
      | Compute c -> acc + Sim.Time.Freq.cycles freq c
      | Mem l ->
          acc + Sim.Time.Freq.cycles freq (Memory.latency_cycles params l)
      | Sleep d -> acc + d)
    0 phases
