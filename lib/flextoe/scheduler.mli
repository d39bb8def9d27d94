(** Work-conserving flow scheduler, after Carousel (§3.5).

    The scheduler initiates TX workflows for flows with a non-zero
    transmit window, enforcing the control plane's per-flow rate
    limits via a time wheel: a flow's next transmission time advances
    by [bytes / rate] after each segment, and the flow parks in the
    wheel slot covering that deadline. Uncongested flows (rate 0)
    bypass the rate limiter and are scheduled round-robin. Order
    within a slot is not preserved (hardware-queue semantics).

    Division is not available on FPCs, so rates are stored as
    picoseconds-per-byte intervals, precomputed by the control plane;
    the wheel computes deadlines with multiplication only.

    Dispatch is credit-gated: each in-flight TX workflow holds one
    credit (an NIC segment buffer); credits return when the segment
    leaves the NBI or the workflow aborts. *)

type t

(** Observation hooks (used by the FlexSan sanitizer). [sc_signal]
    runs in the context that made a flow eligible ([conn] is [-1] for
    the global credit doorbell); [sc_dispatch] wraps each dispatch —
    the scheduler's doorbell as a happens-before edge. *)
type tracer = {
  sc_signal : conn:int -> unit;
  sc_dispatch : conn:int -> (unit -> unit) -> unit;
}

val set_tracer : t -> tracer option -> unit
(** Install (or clear) the tracer. Zero cost when unset. *)

val create :
  ?shards:int ->
  ?shard_of:(conn:int -> int) ->
  Sim.Engine.t ->
  slot:Sim.Time.t ->
  slots:int ->
  credits:int ->
  dispatch:(conn:int -> unit) ->
  t
(** [shards] (default 1) splits the round-robin path into per-shard
    queues serviced round-robin by the dispatch pump, so one shard
    group's backlog cannot starve another's (FlexScale). [shard_of]
    maps a connection to its shard at first sight (clamped to
    [0, shards)); at [shards = 1] dispatch order is byte-identical to
    the single-queue scheduler. *)

val wakeup : t -> conn:int -> unit
(** The flow (possibly) became eligible to send: new app data (HC),
    window opened, or retransmission reset. Idempotent. *)

val on_sent : t -> conn:int -> bytes:int -> more:bool -> unit
(** Called at the end of a dispatched TX workflow: [bytes] were
    committed for this flow ([0] if nothing could be sent) and [more]
    says whether the flow still has transmittable data. Advances the
    flow's pacing deadline and requeues it if needed. Does {e not}
    return the credit. *)

val credit_return : t -> unit
(** A TX workflow's segment buffer was freed. *)

val set_interval : t -> conn:int -> ps_per_byte:int -> unit
(** Program a flow's pacing interval; 0 returns it to the
    round-robin (uncongested) path. *)

val interval : t -> conn:int -> int

val forget : t -> conn:int -> unit
(** Drop scheduler state for a closed connection. *)

val ready : t -> int
(** Flows currently queued (round-robin and wheel). *)

val peak_ready : t -> int
(** High-water mark of the queued-flow count (round-robin + wheel),
    for FlexGuard's bounded-queue-depth gate. Always tracked — a bare
    int comparison per park. *)
