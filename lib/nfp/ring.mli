(** Inter-stage rings and work queues.

    CLS ring buffers are the fastest intra-island producer-consumer
    channel; IMEM/EMEM work queues connect modules across islands
    (§4.1). Both are modelled as bounded FIFOs with registered
    consumers: pushing wakes an idle consumer, and occupancy
    statistics feed the inter-module-queue tracepoints.

    The enqueue/dequeue instruction cost is charged by the stage code
    (as FPC phases); the ring only sequences and buffers. *)

type 'a t

(** Observation hooks (used by the FlexSan sanitizer). [rg_push] runs
    in the producer's context on every successful push, [rg_pop] in
    the consumer's on every successful pop — the ring's FIFO hand-off
    as a happens-before edge. *)
type tracer = { rg_push : unit -> unit; rg_pop : unit -> unit }

val create : ?capacity:int -> name:string -> unit -> 'a t
(** [capacity] defaults to unbounded. *)

val name : 'a t -> string

val set_tracer : 'a t -> tracer option -> unit
(** Install (or clear) the tracer. Zero cost when unset. *)

val push : 'a t -> 'a -> bool
(** [false] if the ring is full (caller must retry/backpressure). *)

val pop : 'a t -> 'a option
val is_empty : 'a t -> bool
val length : 'a t -> int
val capacity : 'a t -> int option

val set_notify : 'a t -> (unit -> unit) -> unit
(** [set_notify t f]: [f] is called after every successful push;
    consumers use it to schedule themselves. *)

val max_occupancy : 'a t -> int
(** High-water mark, for queue-occupancy tracing. *)

val pushes : 'a t -> int
val drops : 'a t -> int
(** Rejected pushes (ring full). *)
