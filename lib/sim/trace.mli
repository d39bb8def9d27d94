(** Lightweight tracepoint registry.

    FlexTOE's flexibility story (§5.1 of the paper) includes 48
    data-path tracepoints that can be toggled at run time. This module
    provides the registry: named tracepoints grouped by subsystem,
    each with a hit counter and any number of event subscribers.
    Disabled tracepoints cost one branch; enabled tracepoints with no
    subscriber cost one branch plus a counter bump. The data-path
    charges extra FPC cycles per enabled tracepoint; that cost lives
    in the pipeline code, not here. *)

type t
(** A tracepoint registry. *)

type point
(** A single named tracepoint. *)

type event = {
  time : Time.t;
  point_name : string;
  conn : int;  (** Connection index, or -1. *)
  arg : int;  (** Tracepoint-specific argument (e.g. queue depth). *)
}

val create : unit -> t

val register : t -> group:string -> string -> point
(** [register t ~group name] adds a tracepoint. Registering the same
    [group]/[name] twice returns the existing point. *)

val point_name : point -> string

val enable : t -> ?group:string -> ?name:string -> unit -> int
(** Enable matching tracepoints (all, a whole group, or a single
    point). Returns the number of points now enabled. *)

val disable : t -> ?group:string -> ?name:string -> unit -> int
val enabled_count : t -> int
val enabled : point -> bool

(** {1 Event subscriptions}

    Multiple consumers (FlexScope spans, the FlexSan sanitizer, bench
    sinks) can observe tracepoint hits concurrently. Each subscriber
    holds a handle; deliveries happen in subscription order. *)

type subscription
(** A handle identifying one installed callback. *)

val subscribe : t -> ?group:string -> (event -> unit) -> subscription
(** [subscribe t ?group f] installs [f] as a sink for every hit of
    every enabled point (restricted to points of [group] when given).
    Returns the handle needed to {!unsubscribe}. Subscribing the same
    function twice installs two independent subscriptions. *)

val unsubscribe : t -> subscription -> unit
(** Remove a subscription. Unsubscribing an already-removed handle is
    a no-op. A later {!subscribe} re-registers at the tail of the
    delivery order (handles are never reused). *)

val subscriber_count : t -> int

val hit : t -> point -> now:Time.t -> conn:int -> arg:int -> unit
(** Record a hit if the point is enabled (counter + subscribers). *)

val hits : point -> int
(** Total recorded hits of a point. *)

val points : t -> point list
val reset_counts : t -> unit

(** {1 Domain-safe shards}

    In a parallel run, LPs must not bump shared hit counters or call
    subscribers from their own domains. A {!shard} is a per-domain
    bounded buffer of hits; {!sync}, called by the coordinator at a
    sync point (all workers stopped), applies counter bumps and
    delivers the buffered events to the ordinary {!subscribe}
    handles in (time, gseq, shard id) order — deterministic at any
    domain count. Existing subscriptions need no change. *)

type shard

val shard : t -> ?capacity:int -> id:int -> unit -> shard
(** [capacity] (default 65536) bounds buffered hits; excess hits are
    counted in {!shard_dropped}, never silently lost. *)

val shard_id : shard -> int

val shard_hit : shard -> point -> now:Time.t -> conn:int -> arg:int -> unit
(** Like {!hit}, but buffered: no counter bump, no delivery, until
    {!sync}. [now] is the owning LP's clock. *)

val shard_pending : shard -> int
val shard_dropped : shard -> int

val sync : t -> unit
(** Merge every shard created on this registry: bump hit counters and
    deliver buffered events to subscribers in (time, gseq, shard id)
    order, emptying the buffers. *)
