(** Flow-processing core model.

    An FPC is a single-issue 32-bit core with (up to) 8 hardware
    threads. Compute occupies the core exclusively; memory accesses
    and asynchronous engine operations only occupy the issuing thread,
    so with multiple hardware threads, stalls overlap with other
    threads' compute — the mechanism behind the paper's 2.25×
    "intra-FPC parallelism" gain (Table 3).

    Work is submitted as a list of {!phase}s plus a completion
    continuation. An idle hardware thread picks up the next item (the
    most recently idled thread first); items queue FIFO when all
    threads are busy, and compute bursts queue FIFO for the core.

    {b Cost.} Each hardware thread is a record built once by {!create}
    together with its two continuations, "run the next phase" and "end
    of a compute burst", which it schedules for every phase. Running
    an item on an idle thread therefore allocates nothing beyond the
    caller's phase list; only an item that must wait for a thread is
    boxed into the FIFO. The item's start is one zero-delay engine
    event, which {!Sim.Event_queue}'s same-instant lane serves without
    touching the heap. *)

type phase =
  | Compute of int  (** Occupy the core for N cycles. *)
  | Mem of Memory.level  (** Stall the thread for the level's latency. *)
  | Sleep of Sim.Time.t  (** Stall the thread for an absolute duration. *)

type t

(** Observation hooks (used by the FlexSan sanitizer). [tr_submit]
    runs in the submitting context and returns an opaque token;
    [tr_run] wraps the work item's completion continuation, carrying
    that token plus the hardware-thread slot that executed the item.
    Distinct slots model genuinely concurrent hardware threads. *)
type tracer = {
  tr_submit : unit -> int;
  tr_run : slot:int -> token:int -> (unit -> unit) -> unit;
}

val create :
  Sim.Engine.t -> params:Params.t -> threads:int -> name:string -> unit -> t
(** [threads] hardware threads ([Config.parallelism.fpc_threads] in the
    data path: 8 on the NFP-4000). *)

val set_tracer : t -> tracer option -> unit
(** Install (or clear) the work-item tracer. Zero cost when unset. *)

val name : t -> string

val submit : t -> phase list -> (unit -> unit) -> unit
(** Enqueue a work item; the continuation runs (at the virtual time of
    completion) after all phases have executed. It never runs the item
    inside the call: an idle thread starts it on the next engine tick
    (a zero-delay event). *)

val queue_length : t -> int
(** Items waiting for a hardware thread. *)

val in_flight : t -> int
(** Items currently executing on hardware threads. *)

val busy_time : t -> Sim.Time.t
(** Cumulative time the core (issue unit) was executing compute. *)

val stall_time : t -> Sim.Time.t
(** Cumulative {i thread}-time spent stalled in [Mem] phases. With
    multiple hardware threads this can exceed wall time (stalls on
    different threads overlap); FlexScope reports it per thread. *)

val threads : t -> int
(** Number of hardware threads. *)

val utilization : t -> total:Sim.Time.t -> float
(** [busy_time / total]. *)

val items_completed : t -> int

val phase_cost : Params.t -> phase list -> Sim.Time.t
(** Lower-bound latency of a phase list on an unloaded core (used by
    tests and by the run-to-completion baseline accounting). *)
