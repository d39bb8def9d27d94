type flow_status = Idle | Ready | Dispatched

type flow = {
  conn : int;
  shard : int;  (* round-robin queue this flow parks in (FlexScale) *)
  mutable status : flow_status;
  mutable ps_per_byte : int;
  mutable next_time : Sim.Time.t;  (* earliest allowed transmission *)
  mutable wake_pending : bool;
}

(* Observation hooks for the FlexSan sanitizer. [sc_signal] publishes
   the context that made a flow eligible (wakeup / on_sent requeue /
   credit return; [conn] is -1 for the global credit doorbell);
   [sc_dispatch] wraps each dispatch, joining the published clocks —
   the scheduler's doorbell as a happens-before edge. *)
type tracer = {
  sc_signal : conn:int -> unit;
  sc_dispatch : conn:int -> (unit -> unit) -> unit;
}

type t = {
  engine : Sim.Engine.t;
  slot : Sim.Time.t;
  slots : int;
  mutable credits : int;
  dispatch : conn:int -> unit;
  shard_of : conn:int -> int;
  flows : flow Nfp.Conn_table.t;  (* by connection index *)
  rr : flow Sim.Fifo.t array;
      (* uncongested + due flows, one queue per shard group; length 1
         (and byte-identical dispatch order to the single-queue
         scheduler) when unsharded *)
  mutable pump_cursor : int;  (* next shard queue the pump offers to *)
  mutable in_wheel : int;
  mutable peak_ready : int;  (* high-water mark of ready t *)
  mutable tracer : tracer option;
}

let wheel_slot = Sim.Time.us 2
let wheel_slots = 4096

let create ?(shards = 1) ?(shard_of = fun ~conn:_ -> 0) engine ~slot ~slots
    ~credits ~dispatch =
  if slot <= 0 || slots <= 0 then
    invalid_arg "Scheduler.create: bad wheel geometry";
  if shards <= 0 then invalid_arg "Scheduler.create: shards must be positive";
  {
    engine;
    slot;
    slots;
    credits;
    dispatch;
    shard_of;
    flows = Nfp.Conn_table.create ();
    rr = Array.init shards (fun _ -> Sim.Fifo.create ());
    pump_cursor = 0;
    in_wheel = 0;
    peak_ready = 0;
    tracer = None;
  }

let set_tracer t tr = t.tracer <- tr

let flow t conn =
  match Nfp.Conn_table.find_opt t.flows conn with
  | Some f -> f
  | None ->
      let n = Array.length t.rr in
      let shard =
        if n = 1 then 0
        else begin
          let s = t.shard_of ~conn in
          if s < 0 || s >= n then 0 else s
        end
      in
      let f =
        {
          conn;
          shard;
          status = Idle;
          ps_per_byte = 0;
          next_time = Sim.Time.zero;
          wake_pending = false;
        }
      in
      Nfp.Conn_table.replace t.flows conn f;
      f

(* The first non-empty shard queue from the cursor on, or -1; a loop,
   so a dispatch allocates no closure or option. *)
let next_queue t =
  let n = Array.length t.rr in
  let i = ref 0 and qi = ref (-1) in
  while !qi < 0 && !i < n do
    let q = (t.pump_cursor + !i) mod n in
    if not (Sim.Fifo.is_empty t.rr.(q)) then qi := q;
    incr i
  done;
  !qi

(* Dispatch loop: round-robin across the shard queues (trivially the
   old single-queue behavior at one shard), popping one Ready flow per
   visit so no shard can starve another while credits last. *)
let rec pump t =
  if t.credits > 0 then begin
    let qi = next_queue t in
    if qi >= 0 then begin
      t.pump_cursor <- (qi + 1) mod Array.length t.rr;
      let f = Sim.Fifo.pop t.rr.(qi) in
      if f.status = Ready then begin
        f.status <- Dispatched;
        t.credits <- t.credits - 1;
        (match t.tracer with
        | None -> t.dispatch ~conn:f.conn
        | Some tr ->
            tr.sc_dispatch ~conn:f.conn (fun () -> t.dispatch ~conn:f.conn));
        pump t
      end
      else pump t
    end
  end

(* Park a Ready flow: straight onto the round-robin queue when
   unpaced or already due; otherwise into the wheel slot covering its
   deadline (deadlines are rounded up to slot granularity; the horizon
   clamps far-future deadlines, as a bounded hardware wheel must). *)
let note_peak t =
  let d =
    Array.fold_left (fun n q -> n + Sim.Fifo.length q) t.in_wheel t.rr
  in
  if d > t.peak_ready then t.peak_ready <- d

let park t f =
  let now = Sim.Engine.now t.engine in
  if f.ps_per_byte = 0 || f.next_time <= now then begin
    Sim.Fifo.push f t.rr.(f.shard);
    note_peak t;
    pump t
  end
  else begin
    let horizon = t.slot * t.slots in
    let deadline = Int.min f.next_time (now + horizon) in
    let slot_deadline = (deadline + t.slot - 1) / t.slot * t.slot in
    t.in_wheel <- t.in_wheel + 1;
    note_peak t;
    Sim.Engine.schedule_at t.engine slot_deadline (fun () ->
        t.in_wheel <- t.in_wheel - 1;
        if f.status = Ready then begin
          Sim.Fifo.push f t.rr.(f.shard);
          pump t
        end)
  end

let wakeup t ~conn =
  (match t.tracer with Some tr -> tr.sc_signal ~conn | None -> ());
  let f = flow t conn in
  match f.status with
  | Idle ->
      f.status <- Ready;
      park t f
  | Ready -> ()
  | Dispatched -> f.wake_pending <- true

let on_sent t ~conn ~bytes ~more =
  (match t.tracer with Some tr -> tr.sc_signal ~conn | None -> ());
  let f = flow t conn in
  if f.status = Dispatched then begin
    if bytes > 0 && f.ps_per_byte > 0 then begin
      let now = Sim.Engine.now t.engine in
      let base = Int.max f.next_time now in
      f.next_time <- base + (bytes * f.ps_per_byte)
    end;
    if more || f.wake_pending then begin
      f.wake_pending <- false;
      f.status <- Ready;
      park t f
    end
    else f.status <- Idle
  end

let credit_return t =
  (match t.tracer with Some tr -> tr.sc_signal ~conn:(-1) | None -> ());
  t.credits <- t.credits + 1;
  pump t

let set_interval t ~conn ~ps_per_byte = (flow t conn).ps_per_byte <- ps_per_byte
let interval t ~conn = (flow t conn).ps_per_byte

let forget t ~conn =
  (match Nfp.Conn_table.find_opt t.flows conn with
  | Some f -> f.status <- Idle
  | None -> ());
  Nfp.Conn_table.remove t.flows conn

let ready t =
  Array.fold_left
    (fun acc q ->
      Sim.Fifo.fold (fun n f -> if f.status = Ready then n + 1 else n) acc q)
    t.in_wheel t.rr

let peak_ready t = t.peak_ready
