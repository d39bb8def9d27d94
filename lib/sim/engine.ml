type handle = Event_queue.handle

(* An engine is one logical process (LP): a private event wheel, a
   private clock, a private RNG stream. A solo engine ([create]) is an
   LP with no cluster attached. Cluster LPs ([Cluster.add_lp]) never
   talk to each other: [Cluster.run] advances each of them to the
   horizon exactly as a solo [run ~until] would, on a pool of worker
   domains. *)
type t = {
  (* Seven words written only when the LP is built, then the fields
     every dispatch writes, then seven words of padding: at least 56
     bytes of this record lie on each side of the written fields, so
     their cache line holds no other heap object. Cluster LPs run on
     different domains, but one thread allocates them and their
     worlds, so two LPs' records can land side by side; sharing a
     line, each domain's dispatches would keep invalidating the
     other's clock. *)
  lp_name : string;
  queue : (unit -> unit) Event_queue.t;
  lp_rng : Rng.t;
  cluster : cluster option;  (* [None] = solo engine *)
  _lead0 : int;
  _lead1 : int;
  _lead2 : int;
  mutable clock : Time.t;
  mutable processed : int;
  mutable held : int;  (* stream entries queued behind their stream's head *)
  _pad0 : int;
  _pad1 : int;
  _pad2 : int;
  _pad3 : int;
  _pad4 : int;
  _pad5 : int;
  _pad6 : int;
}

and cluster = {
  cl_seed : int64;
  mutable cl_domains : int;
  mutable cl_lps : t list;  (* reverse creation order *)
  mutable cl_next_lp : int;
  mutable cl_running : bool;
  mutable cl_workers : int;  (* workers used by the last run *)
  cl_poison : exn option Atomic.t;  (* the first exception of a run *)
}

let mk_lp ~name ~rng ~cluster =
  {
    lp_name = name;
    queue = Event_queue.create ();
    lp_rng = rng;
    cluster;
    _lead0 = 0;
    _lead1 = 0;
    _lead2 = 0;
    clock = Time.zero;
    processed = 0;
    held = 0;
    _pad0 = 0;
    _pad1 = 0;
    _pad2 = 0;
    _pad3 = 0;
    _pad4 = 0;
    _pad5 = 0;
    _pad6 = 0;
  }

(* The worker domains of cluster runs. A run of n workers runs worker
   0 on the calling domain and worker w (1 <= w < n) on slot w - 1, a
   domain that outlives the run, so an LP (worker [i mod n] on every
   run) keeps its objects in one domain's pools, and a run spawns and
   joins nothing. A spawn and join cost 0.15-0.3 ms with 20 MB live,
   and forced one extra stop-the-world minor collection.

   A parked worker waits on its slot's condition and burns no CPU,
   but every live domain takes part in every stop-the-world
   collection of the process, so a parked domain slows whatever runs
   alone on the main domain: a solo kv world ran a median 12% slower
   beside one. The pool therefore holds exactly the workers the last
   run used: a run that needs more spawns them, and a run that needs
   fewer, a new solo engine, or the process's exit stops and joins
   the spares.

   The pool is process-wide state, created eagerly. [busy] is taken
   under [mu] and admits one run (or resize) at a time; its holder
   alone touches [slots]. *)
module Pool = struct
  type job = Idle | Run of (unit -> unit) | Stop
  type slot = { wake : Condition.t; mutable job : job }

  type t = {
    mu : Mutex.t;
    finished : Condition.t;  (* the last job of a run is done *)
    mutable slots : (slot * unit Domain.t) array;
    mutable outstanding : int;  (* this run's jobs not yet done *)
    mutable busy : bool;
  }

  let pool =
    {
      mu = Mutex.create ();
      finished = Condition.create ();
      slots = [||];
      outstanding = 0;
      busy = false;
    }

  (* A worker's whole life: wait for a job, run it, report it done.
     Jobs never raise (the cluster guards them). *)
  let rec park slot =
    Mutex.lock pool.mu;
    while slot.job = Idle do
      Condition.wait slot.wake pool.mu
    done;
    let job = slot.job in
    Mutex.unlock pool.mu;
    match job with
    | Idle | Stop -> ()
    | Run f ->
        f ();
        Mutex.lock pool.mu;
        slot.job <- Idle;
        pool.outstanding <- pool.outstanding - 1;
        if pool.outstanding = 0 then Condition.signal pool.finished;
        Mutex.unlock pool.mu;
        park slot

  let try_enter () =
    Mutex.lock pool.mu;
    let free = not pool.busy in
    pool.busy <- true;
    Mutex.unlock pool.mu;
    free

  let leave () =
    Mutex.lock pool.mu;
    pool.busy <- false;
    Mutex.unlock pool.mu

  (* Spawn, or stop and join, slots until [k] are left. *)
  let resize k =
    let have = Array.length pool.slots in
    if k > have then
      for _ = have + 1 to k do
        let s = { wake = Condition.create (); job = Idle } in
        pool.slots <-
          Array.append pool.slots [| (s, Domain.spawn (fun () -> park s)) |]
      done
    else if k < have then begin
      let spare = Array.sub pool.slots k (have - k) in
      pool.slots <- Array.sub pool.slots 0 k;
      Mutex.lock pool.mu;
      Array.iter
        (fun (s, _) ->
          s.job <- Stop;
          Condition.signal s.wake)
        spare;
      Mutex.unlock pool.mu;
      Array.iter (fun (_, d) -> Domain.join d) spare
    end

  (* [run n work] runs [work 0] here and [work w] on slot [w - 1] for
     every other worker, and returns once all have finished. The
     caller holds [busy]; [work] must not raise. *)
  let run n work =
    resize (n - 1);
    Mutex.lock pool.mu;
    pool.outstanding <- n - 1;
    Array.iteri
      (fun i (s, _) ->
        s.job <- Run (fun () -> work (i + 1));
        Condition.signal s.wake)
      pool.slots;
    Mutex.unlock pool.mu;
    work 0;
    Mutex.lock pool.mu;
    while pool.outstanding > 0 do
      Condition.wait pool.finished pool.mu
    done;
    Mutex.unlock pool.mu

  (* Join every worker, unless a run is in progress: then the caller
     is an LP event, or another thread, and the run's workers are not
     free to stop. *)
  let retire () =
    if try_enter () then begin
      resize 0;
      leave ()
    end

  let () = at_exit retire
end

let create ?(seed = 1L) () =
  Pool.retire ();
  mk_lp ~name:"main" ~rng:(Rng.create seed) ~cluster:None

let now t = t.clock

let schedule_at t time k =
  if time < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is in the past (now %a)"
         Time.pp time Time.pp t.clock);
  Event_queue.push t.queue time k

let schedule t delay k =
  Event_queue.push t.queue (t.clock + Int.max 0 delay) k

let schedule_cancellable t delay k =
  Event_queue.push_cancellable t.queue (t.clock + Int.max 0 delay) k

let cancel t h = Event_queue.cancel t.queue h

type handler = (unit -> unit) Event_queue.handler

let register t k = Event_queue.register t.queue k
let set_handler = Event_queue.set_handler

let schedule_handler t delay h =
  Event_queue.push_handler t.queue (t.clock + Int.max 0 delay) h

let solo_only t op =
  if t.cluster <> None then
    invalid_arg ("Engine." ^ op ^ ": engine is a cluster LP; drive it with \
                  Engine.Cluster.run")

(* What [Event_queue.pop_due] returns when nothing is due; no event
   is ever this closure. *)
let no_event () = ()

(* Dispatches events due at or before [limit], at most [budget] of
   them; returns how many ran. Each pop decides once whether the lane
   or the heap goes next, and the clock moves to the popped time. *)
let drain t ~limit ~budget =
  let q = t.queue in
  let rec go n =
    if n >= budget then n
    else
      let k = Event_queue.pop_due q ~limit ~none:no_event in
      if k == no_event then n
      else begin
        let time = Event_queue.last_pop q in
        if time > t.clock then t.clock <- time;
        t.processed <- t.processed + 1;
        k ();
        go (n + 1)
      end
  in
  go 0

let step t =
  solo_only t "step";
  drain t ~limit:max_int ~budget:1 = 1

(* Runs [t] to [until]. The clock moves to [until] only once nothing
   due at or before it is left: a run cut short by its budget leaves
   the clock at its last event, so the next run dispatches the rest at
   their own times. A solo [run] and every LP of a [Cluster.run] take
   this path. *)
let advance t ~until ~budget =
  ignore (drain t ~limit:until ~budget);
  if t.clock < until && Event_queue.next_time t.queue > until then
    t.clock <- until

let run ?(until = max_int) ?(max_events = max_int) t =
  solo_only t "run";
  advance t ~until ~budget:max_events

let events_processed t = t.processed
let pending t = Event_queue.length t.queue + t.held

(* A monotone stream keeps its entries in a ring, in schedule order,
   each with the key [Event_queue.reserve] gave it then; only the head
   sits in the wheel. When the head pops, [fire] pushes the next entry
   under its own key before running the head's callback, so every
   entry pops where a plain [schedule_at] would have put it.

   The ring's fields are written on every event, and two cluster LPs'
   streams are allocated by one thread, so the record follows the
   padding rule of [t]: seven words written only when the ring grows,
   then the per-event fields, then seven words of padding. *)
module Stream = struct
  type lp = t

  type t = {
    s_lp : lp;
    mutable s_time : int array;
    mutable s_key : int array;
    mutable s_k : (unit -> unit) array;
    s_fire : handler;
    _lead0 : int;
    _lead1 : int;
    mutable s_head : int;
    mutable s_len : int;
    mutable s_last : Time.t;
    _pad0 : int;
    _pad1 : int;
    _pad2 : int;
    _pad3 : int;
    _pad4 : int;
    _pad5 : int;
    _pad6 : int;
  }

  let initial_capacity = 16

  let fire s () =
    let h = s.s_head in
    let k = Array.unsafe_get s.s_k h in
    Array.unsafe_set s.s_k h ignore;
    s.s_head <- (h + 1) land (Array.length s.s_k - 1);
    s.s_len <- s.s_len - 1;
    if s.s_len > 0 then begin
      let n = s.s_head in
      s.s_lp.held <- s.s_lp.held - 1;
      Event_queue.push_reserved s.s_lp.queue
        (Array.unsafe_get s.s_time n)
        ~key:(Array.unsafe_get s.s_key n)
        s.s_fire
    end;
    k ()

  let create lp =
    let s =
      {
        s_lp = lp;
        s_time = Array.make initial_capacity 0;
        s_key = Array.make initial_capacity 0;
        s_k = Array.make initial_capacity ignore;
        s_fire = register lp ignore;
        _lead0 = 0;
        _lead1 = 0;
        s_head = 0;
        s_len = 0;
        s_last = Time.zero;
        _pad0 = 0;
        _pad1 = 0;
        _pad2 = 0;
        _pad3 = 0;
        _pad4 = 0;
        _pad5 = 0;
        _pad6 = 0;
      }
    in
    set_handler s.s_fire (fire s);
    s

  (* Only called when the ring is full; unrolls it to start at 0. *)
  let grow s =
    let cap = Array.length s.s_k in
    let unroll a fill =
      let b = Array.make (2 * cap) fill in
      let first = cap - s.s_head in
      Array.blit a s.s_head b 0 first;
      Array.blit a 0 b first s.s_head;
      b
    in
    s.s_time <- unroll s.s_time 0;
    s.s_key <- unroll s.s_key 0;
    s.s_k <- unroll s.s_k ignore;
    s.s_head <- 0

  let schedule_at s time k =
    let lp = s.s_lp in
    if time < lp.clock || time < s.s_last then
      invalid_arg
        (Format.asprintf
           "Engine.Stream.schedule_at: %a is before now (%a) or the \
            stream's last time (%a)"
           Time.pp time Time.pp lp.clock Time.pp s.s_last);
    let key = Event_queue.reserve lp.queue in
    s.s_last <- time;
    if s.s_len = Array.length s.s_k then grow s;
    let i = (s.s_head + s.s_len) land (Array.length s.s_k - 1) in
    Array.unsafe_set s.s_time i time;
    Array.unsafe_set s.s_key i key;
    Array.unsafe_set s.s_k i k;
    s.s_len <- s.s_len + 1;
    if s.s_len = 1 then Event_queue.push_reserved lp.queue time ~key s.s_fire
    else lp.held <- lp.held + 1

  let schedule s delay k = schedule_at s (s.s_lp.clock + Int.max 0 delay) k
end

module Local = struct
  let name t = t.lp_name
  let rng t = t.lp_rng
end

module Cluster = struct
  type lp = t
  type t = cluster

  let create ?(seed = 1L) ?(domains = 1) () =
    if domains < 1 then invalid_arg "Cluster.create: domains < 1";
    {
      cl_seed = seed;
      cl_domains = domains;
      cl_lps = [];
      cl_next_lp = 0;
      cl_running = false;
      cl_workers = 0;
      cl_poison = Atomic.make None;
    }

  let domains cl = cl.cl_domains

  let set_domains cl n =
    if n < 1 then invalid_arg "Cluster.set_domains: domains < 1";
    cl.cl_domains <- n

  let not_running cl op =
    if cl.cl_running then
      invalid_arg ("Cluster." ^ op ^ ": cluster is running")

  let add_lp ?name ?seed cl =
    not_running cl "add_lp";
    let id = cl.cl_next_lp in
    cl.cl_next_lp <- id + 1;
    let name =
      match name with Some n -> n | None -> "lp" ^ string_of_int id
    in
    (* An explicit seed gives the exact stream a solo engine created
       with that seed would have — the golden worlds rely on this —
       while the default derives a stream from (cluster seed, LP id)
       that is independent of creation interleaving. *)
    let rng =
      match seed with
      | Some s -> Rng.create s
      | None -> Rng.stream ~seed:cl.cl_seed ~key:id
    in
    let lp = mk_lp ~name ~rng ~cluster:(Some cl) in
    cl.cl_lps <- lp :: cl.cl_lps;
    lp

  let lps cl = List.rev cl.cl_lps

  let poison cl e = ignore (Atomic.compare_and_set cl.cl_poison None (Some e))

  (* A worker runs each of its LPs to [until] in turn; once any LP's
     event has raised, it starts no further LP. *)
  let worker_loop cl ~until my_lps =
    List.iter
      (fun lp ->
        if Atomic.get cl.cl_poison = None then
          advance lp ~until ~budget:max_int)
      my_lps

  let max_workers = 8

  let worker_cap = function
    | None -> Domain.recommended_domain_count ()
    | Some v ->
        let n =
          if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then
            (* all digits: only an overflow fails to parse *)
            Option.value (int_of_string_opt v) ~default:max_int
          else 0
        in
        if n < 1 then
          invalid_arg
            (Printf.sprintf
               "FLEXPAR_WORKERS=%S: expected a positive decimal integer \
                (at most %d workers are used)"
               v max_workers);
        Int.min max_workers n

  let run ~until cl =
    not_running cl "run";
    let lps = List.rev cl.cl_lps in
    (* Workers are capped at the host's core count unless
       FLEXPAR_WORKERS overrides it: oversubscribed domains only add
       stop-the-world GC barrier stalls (every domain must reach the
       barrier, but the scheduler runs them one at a time). Worker
       count never affects results: no LP reads another's state. *)
    let n_workers =
      Int.max 1
        (Int.min cl.cl_domains
           (Int.min (List.length lps)
              (worker_cap (Sys.getenv_opt "FLEXPAR_WORKERS"))))
    in
    if not (Pool.try_enter ()) then
      invalid_arg "Cluster.run: another run is in progress";
    cl.cl_running <- true;
    cl.cl_workers <- n_workers;
    let mine w = List.filteri (fun i _ -> i mod n_workers = w) lps in
    (* Only [Domain.spawn] can raise here; the pool and the cluster
       must still be free for the next run. *)
    Fun.protect
      ~finally:(fun () ->
        cl.cl_running <- false;
        Pool.leave ())
      (fun () ->
        Pool.run n_workers (fun w ->
            try worker_loop cl ~until (mine w) with e -> poison cl e));
    Option.iter raise (Atomic.exchange cl.cl_poison None)

  let workers_used cl = cl.cl_workers

  let gvt cl =
    List.fold_left (fun acc lp -> Int.min acc lp.clock) max_int cl.cl_lps

  let events_processed cl =
    List.fold_left (fun acc lp -> acc + lp.processed) 0 cl.cl_lps
end
