(** PCIe DMA engine model.

    The PCIe island exposes a pair of DMA transaction queues; FPCs can
    keep up to 128 asynchronous operations in flight on each (§2.3).
    The link itself is a serial resource: transfers share PCIe
    bandwidth, so a congested link stretches completion times — the
    effect behind the paper's TX-reordering example (§3.2, Figure 7).

    A transfer completes after [base_latency + serialisation on the
    shared link]. When a queue's in-flight window is full, further
    issues wait (modelling the FPC's descriptor-slot backpressure). *)

type t

(** Observation hooks (used by the FlexSan sanitizer). [dt_issue]
    runs in the issuing context and returns an opaque token;
    [dt_complete] wraps the continuation at delivery time — the
    happens-before edge PCIe gives software (FIFO per queue). *)
type tracer = {
  dt_issue : queue:int -> int;
  dt_complete : queue:int -> token:int -> (unit -> unit) -> unit;
}

val create : Sim.Engine.t -> t

val batch_delay : Sim.Time.t
(** How long a partial batch may be held before a timer flushes it:
    1 µs. It bounds every batching boundary (§3.4): this engine's
    doorbell ring, the data path's GRO window and ARX accumulator, and
    libTOE's coalesced HC updates. *)

val set_tracer : t -> tracer option -> unit
(** Install (or clear) the completion tracer. Zero cost when unset. *)

val set_batch : t -> int -> unit
(** [set_batch t n] sets the batching degree (§3.4); [n <= 1] (the
    default is 1) is bit-identical to the unbatched engine. Above 1,
    issued descriptors accumulate and are admitted [n] at a time (or
    when {!batch_delay} elapses on a partial batch); the issue-order
    FIFO and the sanitizer's issue tokens are fixed at issue time, so
    completion semantics are unchanged. A ready run of completions
    shorter than [n] is held until it fills or the queue goes idle —
    the last completion of any burst observes the idle queue and
    drains it, so coalescing cannot deadlock. *)

val doorbells : t -> int
(** Doorbell flushes rung (counts only in batched mode). *)

val issue : t -> queue:int -> bytes:int -> (unit -> unit) -> unit
(** [issue t ~queue ~bytes k] starts a DMA of [bytes]; [k] runs at
    completion time. [queue] selects a transaction queue
    (mod the configured queue count). Zero-byte transfers model pure
    descriptor reads/writes and still pay base latency.

    Continuations are released in issue order per queue (PCIe
    read-completion ordering within a traffic class): a transfer held
    up by fault retries also holds the continuations of everything
    issued after it on the same queue. Callers therefore see FIFO
    semantics even on a flaky link — descriptor rings and payload
    writes stay ordered. *)

val in_flight : t -> int
(** Transfers currently occupying in-flight slots (all queues). *)

val queued : t -> int
(** Issues waiting for an in-flight slot. *)

val queue_stats : t -> (int * int) array
(** Per-queue [(in_flight, waiting)] snapshot, indexed by queue id
    (used by the FlexScope utilization sampler). *)

val transfers_completed : t -> int
val bytes_transferred : t -> int

(** {1 Fault injection}

    A flaky PCIe link: each transfer attempt independently fails with
    the configured rate (modelling CRC errors / completion timeouts)
    and is retried through the normal issue path, paying serialisation
    and base latency again. After [max_retries] failed attempts the
    transfer completes anyway and is counted in
    {!retries_exhausted} — at realistic rates exhaustion is
    vanishingly rare (1e-16 at 1% with 8 retries), and completing
    keeps callers' continuations alive so higher layers observe
    latency inflation, not a wedged pipeline. *)

val set_fault : t -> ?seed:int64 -> rate:float -> ?max_retries:int -> unit -> unit
(** Enable per-attempt failure injection ([max_retries] defaults
    to 8; the RNG is private to the fault stage, so enabling it does
    not perturb other random streams). *)

val faults_injected : t -> int
(** Failed transfer attempts. *)

val retries : t -> int
(** Re-issued attempts (equals {!faults_injected} minus exhaustions). *)

val retries_exhausted : t -> int
(** Transfers that failed even their last permitted attempt. *)
