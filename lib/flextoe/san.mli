(** FlexSan layer 2: the dynamic race and atomicity sanitizer.

    FlexProve ({!Prove}) checked the declared contracts when the node
    was created; this layer checks the accesses the datapath
    {e actually performs} against the happens-before order its
    synchronization {e actually establishes}. Every stage execution
    runs under {!run_as} as a logical thread; FPC submissions, DMA
    completions, sequencer releases, scheduler dispatches and ring
    pushes each publish/join vector clocks through the tracer hooks,
    so two accesses are ordered iff some chain of real mechanisms
    orders them. On top of the classic vector-clock race check it
    enforces:

    - {b contract conformance}: every access must be covered by the
      executing stage's declared footprint (a write needs the object
      in [c_writes]; a read, in [c_reads] or [c_writes]) —
      {!Contract_breach};
    - {b span atomicity}: between {!span_begin} and {!span_end} no
      other thread may write a region the span touched —
      {!Atomicity};
    - {b range disjointness}: for address-partitioned regions
      (payload buffers) concurrent accesses must target disjoint
      byte ranges, checked on the actual [(offset, length)]
      intervals.

    Reports are deduplicated and bounded; the sanitizer never throws
    from the datapath. *)

type kind = Effects.kind = Read | Write

type access = {
  a_thread : string;
  a_stage : string;
  a_flow : int;  (** -1 for global objects. *)
  a_obj : Effects.obj;
  a_kind : kind;
  a_time : Sim.Time.t;
  a_range : (int * int) option;  (** payload (offset, length) *)
}

type report =
  | Race of access * access  (** older access first *)
  | Atomicity of {
      at_stage : string;  (** the span whose atomicity broke *)
      at_first : access;  (** the span's first touch of the region *)
      at_intruder : access;  (** the write that interleaved mid-span *)
    }
  | Contract_breach of access

val report_to_string : report -> string

type t

val create : engine:Sim.Engine.t -> contracts:Effects.contract list -> t

(** {1 Thread and ordering edges}

    Called from the datapath's instrumentation points; each maps one
    real synchronization mechanism onto the vector-clock order. *)

val run_as : t -> thread:string -> ?join:int -> (unit -> 'a) -> 'a
(** Run [k] as the named logical thread, optionally joining a
    published token first. Nests; restores the ambient thread. *)

val chan_send : t -> string -> unit
val chan_recv : t -> string -> unit
(** Named-channel publish/join (sequencers, rings, locks). *)

val token_send : t -> int
(** Publish the current clock; returns the token to pass to the
    consumer side. *)

val token_join : t -> int -> unit

val lock_acquire : t -> flow:int -> unit
val lock_release : t -> flow:int -> unit
(** The per-connection protocol lock as a channel edge. *)

val set_on_report : t -> (report -> unit) option -> unit
(** Fresh-report hook (FlexScope's flight-recorder dump). *)

val report_flow : report -> int

(** {1 Spans and accesses} *)

val span_begin : t -> stage:string -> flow:int -> unit
val span_end : t -> stage:string -> flow:int -> unit
(** Atomic-section brackets (the protocol stage's critical
    section). *)

val access :
  t ->
  stage:string ->
  flow:int ->
  obj:Effects.obj ->
  ?range:int * int ->
  kind ->
  unit
(** One shadow-memory access check: race, contract conformance, span
    atomicity, and — when [range] is given on an
    address-partitioned region — interval disjointness. *)

val flow_init : t -> flow:int -> unit
(** Reset shadow state for a (re)installed connection index. *)

val flow_forget : t -> flow:int -> unit

(** {1 Tracer constructors}

    Adapters handed to the simulated hardware so its internal
    ordering mechanisms publish/join clocks. *)

val fpc_tracer : t -> name:string -> Nfp.Fpc.tracer
val dma_tracer : t -> Nfp.Dma.tracer
val seq_tracer : t -> name:string -> Sequencer.tracer

val rx_order_tracer : t -> flow:int -> Sequencer.tracer
(** {!seq_tracer} for connection [flow]'s RX order: its channel is
    per connection, and {!flow_init} clears it. *)

val sch_tracer : t -> Scheduler.tracer
val ring_tracer : t -> name:string -> Nfp.Ring.tracer

(** {1 Introspection} *)

val reports : t -> report list
(** Oldest first, deduplicated, bounded. *)

val report_count : t -> int
val accesses : t -> int
val span_overlaps : t -> int
val threads : t -> int
val closed_spans : t -> (int * string * Sim.Time.t * Sim.Time.t) list
val set_record_spans : t -> bool -> unit
