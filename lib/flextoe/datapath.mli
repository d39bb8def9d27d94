(** The offloaded FlexTOE data path: the NIC side of the system.

    Owns the FPCs, inter-stage rings, sequencers, DMA engine, flow
    scheduler, connection caches and the NBI port, and wires the three
    workflows of §3.1 through the five-stage pipeline:

    - {b RX}: NBI → (XDP) → pre-processing (validate, identify,
      summarise) → GRO reorder → protocol (atomic per connection) →
      post-processing (ACK, stamps, stats) → payload DMA →
      notification + ACK egress;
    - {b TX}: flow scheduler → pre-processing (alloc, headers) →
      protocol (sequence) → post-processing → payload fetch DMA →
      TX reorder → NBI;
    - {b HC}: doorbell → descriptor fetch DMA → steer → protocol
      (window/FIN/reset) → scheduler update.

    The host sides (libTOE, control plane) talk to it through context
    queues and MMIO, never directly. *)

type t

val san : t -> San.t option
(** The dynamic sanitizer, when enabled ([config.san] set and the
    pipeline parallelism active). *)

val scope : t -> Sim.Scope.t option
(** The FlexScope recorder, when enabled ([config.scope] not
    {!Config.Scope_off}). Every data-path hook costs one branch on
    this option when profiling is off. *)

val guard : t -> Guard.t option
(** FlexGuard overload control, when enabled ([config.guard.g_on]).
    Like [san] and [scope], a dormant guard is a [None]: no events,
    no counters, bit-identical behavior. *)

val create :
  Sim.Engine.t ->
  config:Config.t ->
  fabric:Netsim.Fabric.t ->
  mac:int ->
  ip:int ->
  ?ctx_queues:int ->
  ?pipeline:Pipeline.t ->
  unit ->
  t
(** Wires the stages of [pipeline] (default {!Pipeline.builtin}): its
    FPC pools, its contracts (checked by FlexProve over
    {!Graph_ir.builtin}, and at runtime by FlexSan when
    [config.san] is set), its edge capacities and each row's
    departure from its declaration ({!Pipeline.departure}). A seeded
    race of the corpus is such a table ({!Defect.pipeline}); the node
    behaves like a healthy one under the single-threaded
    simulator, so only the checkers can tell them apart. Raises
    [Invalid_argument] if the engine is not [fabric]'s
    ({!Netsim.Fabric.engine}) or {!Pipeline.check} rejects
    [pipeline], and {!Prove.Graph_rejected} if the graph of the rows as declared
    ({!Pipeline.declared}) fails a FlexProve pass, before any FPC is
    wired: the [Bad_contract] variant. *)

val engine : t -> Sim.Engine.t
val config : t -> Config.t

val fabric_port : t -> Netsim.Fabric.port
[@@ocaml.doc
  " The NBI's port on the fabric (e.g. to shape it for incast    experiments). "]
val mac : t -> int
val ip : t -> int
val num_ctx : t -> int

(** {1 Connection management (control-plane interface)} *)

val alloc_conn_idx : t -> int

val install_conn : t -> Conn_state.t -> k:(unit -> unit) -> unit
(** Write connection state into the data path (costs a PCIe write);
    the connection processes data-path segments once [k] runs. *)

val remove_conn : t -> conn:int -> unit
val conn : t -> int -> Conn_state.t option

val has_flow : t -> Tcp.Flow.t -> bool
(** Is this 4-tuple installed in the active-connection database? Used
    by the control plane to distinguish segments that raced a
    connection installation (reinjected) from stale traffic
    (dropped). *)

val active_conns : t -> int

val payload_held_bytes : t -> int
(** Host memory held by the payload buffers of the installed
    connections ({!Host.Payload_buf.held_bytes}, RX and TX). *)

val conn_of_flow : t -> Tcp.Flow.t -> int option
(** Connection index currently installed for a 4-tuple (the RST and
    teardown paths need the index, not just presence). *)

val sched_peak_ready : t -> int
(** High-water mark of the flow scheduler's queued-flow count
    (FlexGuard bounded-queue gate). *)

(** {1 Control-plane segment path} *)

val set_control_rx : t -> (Tcp.Segment.frame -> unit) -> unit
(** Non-data-path segments (SYN/RST, unknown connections) are
    forwarded here, arriving at host-visible time (after the CPI
    context queue and DMA). *)

val control_tx : t -> Tcp.Segment.frame -> unit
(** Inject a control segment for transmission (SYN-ACK, RST...);
    pays host-to-NIC DMA before entering the egress path. *)

val reinject_rx : t -> Tcp.Segment.frame -> unit
(** Feed a received frame back into the RX pipeline. Used by the
    control plane for data segments that raced ahead of connection
    installation. *)

(** {1 Context queues (libTOE interface)} *)

val atx_push : t -> ctx:int -> Meta.hc_desc -> bool
(** Host-control descriptor + doorbell. [false] if the ATX ring is
    full (libTOE must retry). *)

val set_arx_handler : t -> ctx:int -> (Meta.arx_desc -> unit) -> unit
(** Notifications for an application context; the handler runs at the
    time the descriptor is host-visible (after DMA + libTOE poll
    delay). *)

(** {1 Control-plane knobs} *)

val cp_push : t -> Meta.hc_desc -> unit
(** Control-plane-originated HC operation (retransmit). *)

val notify_abort : t -> conn:int -> unit
(** Push an abort notification ([x_err]) to the connection's context
    queue. Called by the control plane before tearing down a flow
    whose retransmission retries are exhausted, so the application
    learns the connection died instead of waiting forever. *)

val dma_engine : t -> Nfp.Dma.t
(** The PCIe DMA engine (e.g. to inject transfer faults). *)

type cc_stats = {
  ackb : int;
  ecnb : int;
  fretx : int;
  rtt_est_ns : int;
  tx_backlog : int;  (** Unsent + unacked bytes. *)
  tx_inflight : int;
      (** Sent-but-unacknowledged bytes — the RTO condition (a paced
          flow with nothing in flight must not look stalled). *)
  ack_pending : bool;  (** Delayed ACK awaiting a control-plane flush. *)
  last_progress : Sim.Time.t;
}

val read_cc_stats : t -> conn:int -> cc_stats
(** Read-and-reset the per-flow congestion statistics (CP loop). *)

val set_rate : t -> conn:int -> bps:int -> unit
(** Program the flow scheduler's pacing rate via MMIO. The
    cycles/byte conversion happens here (on the host — FPCs cannot
    divide). 0 means uncongested. *)

(** {1 Flexibility hooks} *)

type xdp_action =
  | Xdp_pass of Tcp.Segment.frame
  | Xdp_drop
  | Xdp_tx of Tcp.Segment.frame
  | Xdp_redirect of Tcp.Segment.frame

type xdp_hook = { xdp_run : Tcp.Segment.frame -> int * xdp_action }
(** [xdp_run frame] returns (FPC cycles consumed, action). *)

val set_xdp_ingress : t -> xdp_hook option -> unit

val traces : t -> Sim.Trace.t
(** The 48-tracepoint registry (groups: nbi, preproc, gro, protocol,
    postproc, dma, ctx, sch). Enabling points adds per-segment cycles
    to the owning stage. *)

type direction = Dir_rx | Dir_tx

val set_capture : t -> (direction -> Tcp.Segment.frame -> unit) option -> unit
(** tcpdump-style capture tap on the NBI (charges capture cycles per
    packet on the service island). *)

(** {1 Statistics} *)

type stats = {
  rx_segments : int;
  tx_segments : int;
  tx_acks : int;
  rx_to_control : int;
  rx_dropped : int;
  rx_dropped_csum : int;
      (** Frames whose TCP checksum failed verification, dropped at
          RX pre-processing (they never reach GRO or the protocol
          stage). *)
  fast_retx : int;
  gro_reordered : int;
  egress_reordered : int;
  dma_bytes : int;
  rx_completed : int;
      (** RX segments whose datapath work (through the DMA stage)
          finished — the completion counter open-loop harnesses poll
          against the number of injected segments. *)
  tx_fetch_acked : int;
      (** TX payload fetches whose whole range the peer had already
          acknowledged when the DMA stage read it: a retransmission
          the ACK overtook in the pipeline. It still goes out, and the
          receiver drops it as a duplicate. *)
  tx_fetch_part_acked : int;
      (** TX payload fetches partly acknowledged when read. *)
  tx_deferred : int;
      (** Data frames handed to the fabric with their payload unread:
          first transmissions, which the fabric reads from the host TX
          buffer when it builds the frame. *)
  tx_copied : int;
      (** Data frames with a payload read before the fabric took them:
          retransmissions, captured or TSO-split frames, frames a TX
          fault hook sees, and every frame of the run-to-completion
          baseline. *)
  rx_vanished : int;
      (** RX verdicts a post-processor found without their connection. *)
  tx_vanished : int;
      (** TX descriptors, TX fetches and host-control results that
          found their connection gone mid-pipeline. *)
}

val stats : t -> stats

(** {1 FlexScale (sharded flow-group pipelines)} *)

val shards : t -> int
(** Number of shard groups ([Config.scale]; 1 when scale is off). *)

val cross_shard_accesses : t -> int
(** Steering self-check trips: protocol-stage accesses whose effective
    flow group differed from the one pinned at installation. Zero on a
    healthy node — nonzero means shard disjointness is broken (a
    protocol row with a steering function, such as
    {!Defect.Mis_steer}'s). *)

val emem_bytes_per_flow : t -> int
(** Peak resident connection-state bytes per peak resident flow from
    the EMEM pressure model (the "scale" bench-gate footprint number);
    0 when scale is off. *)

val pinned_evictions : t -> int
(** Evictions that were forced to take a pinned (Established) flow's
    hot state, summed over the per-group CAMs and per-shard EMEM
    caches. Zero unless every slot of some cache is pinned — the
    regression gate for "established state is never dropped". *)

val fpc_busy : t -> (string * Sim.Time.t) list
(** Busy time per FPC, for utilisation reporting. *)

val fpc_pools : t -> (string * int * Nfp.Fpc.t array) list
(** FPC pools as [(pool, island, fpcs)], one per island of each
    {!Pipeline} row's pool in table order, then the XDP pool. Island
    pools carry their island index, service-island pools [-1]. Drives
    the {!Flexscope} utilization sampler. *)

val atx_rings : t -> Meta.hc_desc Nfp.Ring.t array
(** The per-context-queue ATX descriptor rings (queue-depth series in
    the profiler). *)

val cache_stats : t -> (string * int * int) list
(** (cache, hits, misses) for the connection-state hierarchy: the
    pre-processor's lookup cache, each protocol island's CAM and CLS
    caches, and the EMEM SRAM cache — the levers behind the
    connection-scalability behaviour (Figure 14). *)

(** {1 Internals exposed for the control plane and libTOE} *)

