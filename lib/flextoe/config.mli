(** FlexTOE configuration: parallelism knobs, stage cost model, and
    protocol parameters.

    The parallelism record exposes exactly the levers of the paper's
    Table 3 ablation: run-to-completion vs pipelined stages, hardware
    threads per FPC, pre/post-processing replication, and the number
    of flow-group islands. Replication factors are manual and static,
    as in the paper (§3.3). *)

type parallelism = {
  pipelined : bool;
      (** [false]: the whole data path runs to completion on a single
          FPC, one segment at a time (the Table 3 baseline). *)
  fpc_threads : int;  (** Hardware threads per FPC (1 or 8). *)
  preproc_replicas : int;  (** Pre-processor FPCs per flow group. *)
  postproc_replicas : int;  (** Post-processor FPCs per flow group. *)
  proto_replicas : int;
      (** Protocol FPCs per flow group; connections shard across them
          by index, keeping per-connection atomicity (the paper's
          connection-scalability benchmark runs the protocol stage on
          8 FPCs, two per island). *)
  flow_groups : int;  (** Protocol islands (1..4 on the Agilio CX). *)
}

(** Per-stage instruction budgets, in FPC cycles. These calibrate the
    simulation; see DESIGN.md §6 for how they were chosen. *)
type stage_costs = {
  preproc_validate : int;
  preproc_csum : int;
      (** TCP checksum verification: fixed overhead of driving the CRC
          unit; the per-byte part is derived from the frame length in
          the pre-processor. *)
  preproc_lookup_hit : int;  (** Local lookup-cache hit. *)
  preproc_summary : int;
  protocol_rx : int;  (** Data-bearing segment. *)
  protocol_rx_ack : int;  (** Pure-ACK segment. *)
  protocol_tx : int;
  protocol_hc : int;
  postproc_rx : int;
  postproc_tx : int;
  dma_desc : int;
  ctx_desc : int;
  sequencer : int;
  scheduler_pick : int;
  xdp_dispatch : int;  (** Fixed overhead of an enabled XDP hook. *)
  tracepoint : int;  (** Per enabled tracepoint, per segment. *)
  pcap_capture : int;  (** Per captured packet. *)
  gro_merge : int;
      (** Per absorbed segment when GRO coalesces adjacent in-order
          segments into one descriptor (batch>1 only). *)
  tso_split : int;
      (** Per extra wire frame split out of a TSO descriptor at the
          NBI boundary (batch>1 only). *)
  dma_doorbell : int;  (** Fixed cost per doorbell-batch flush. *)
  notify_coalesce : int;
      (** Per absorbed ARX notification when coalescing (batch>1
          only). *)
}

(** FlexGuard: overload control and graceful degradation under
    connection churn (DESIGN.md §13): one switch and one CP-queue
    bound. Armed, it runs listen-path protection (a SYN backlog of
    {!Guard.syn_backlog} half-open handshakes with a stateless
    SYN-cookie fallback, {!Guard.syn_retries} handshake
    retransmissions backing off exponentially), a full teardown
    lifecycle (a {!Guard.time_wait} TIME_WAIT hold in a table of at
    most {!Guard.time_wait_max} entries, recycled oldest-first under
    pressure; idle-timeout reaping; RST generation and handling), cache
    eviction of removed connections, and load shedding at the
    control-path queue (the shed policy drops newest SYNs first and
    {e never} an established-flow segment). Those limits are [Guard]'s
    constants, not settings. The connection cap is not a guard knob:
    it is [Control_plane.set_connection_limit], and the guard only
    counts its refusals. With {!guard_none} (the default) every
    mechanism is dormant: no extra engine events are scheduled and
    behavior is bit-identical to the unguarded pipeline. *)
type guard = {
  g_on : bool;  (** Master enable. *)
  g_cp_queue : int;
      (** Bound on control-path frames in flight to the CP; beyond it
          the NBI sheds newest SYNs first ({e never} established-flow
          segments). 0 = unbounded. A frame counts only for the ~1 µs
          of ctx-FPC and DMA work that carries it to the CP, so at the
          default of 64 the shed never engages, even under a 4 Mpps
          SYN flood; the churn tests and gate use 2 (DESIGN.md §13). *)
}

val guard_none : guard
(** All mechanisms off: bit-identical to the unguarded pipeline. *)

val guard_default : guard
(** The guard armed, with a CP queue bound of 64 frames. *)

(** FlexScale: sharded flow-group pipelines (DESIGN.md §17). Per-flow
    state is sharded across [s_shards] replicated protocol-stage
    pipelines keyed by the flow-group hash; each shard owns its own
    CAM/CLS/EMEM-cache slice. With
    {!scale_none} (the default) the sharded code paths are never
    entered; with [s_on] and [s_shards = 1] the sharded wiring is
    exercised but bit-identical to the single pipeline (the
    golden-trace gate pins this). *)
type scale = {
  s_on : bool;
      (** Master enable. Also pins an Established flow's hot
          CAM/EMEM-cache state: eviction prefers cold (closing or
          TIME_WAIT) state, and a forced pinned eviction is counted
          loudly rather than silent. *)
  s_shards : int;
      (** Replicated protocol-stage pipelines; flow group [fg] steers
          to shard [fg mod s_shards] — a pure function of the 4-tuple,
          so a flow never migrates shards mid-life. *)
  s_emem_flows : int;
      (** EMEM capacity-pressure model: connections whose 108 B state
          fits the cached working set; past it, misses pay the full
          DRAM penalty (extra cycles grow with overcommit).
          0 disables pressure accounting. *)
}

val scale_none : scale
(** Sharding off: bit-identical to the single-pipeline datapath. *)

val scale_of : int -> scale
(** [scale_of n] enables sharding with [n] shards (clamped to >= 1)
    and hot-state pinning; pressure accounting stays off. *)

type congestion_control = Dctcp | Timely | Cc_none

(** FlexScope profiling level. [Scope_off] leaves every data-path
    hook as a single branch on an immutable option; [Scope_metrics]
    records per-stage cycle histograms, counters, series aggregates
    and the flight recorder; [Scope_full] additionally buffers Chrome
    [trace_event] records for export. *)
type scope_mode = Scope_off | Scope_metrics | Scope_full

type t = {
  params : Nfp.Params.t;
  parallelism : parallelism;
  costs : stage_costs;
  rx_buf_bytes : int;
  tx_buf_bytes : int;
  mss : int;
  delayed_acks : bool;
      (** The paper's FlexTOE acknowledges every incoming data segment
          (the default here, matching §5.2); enabling this coalesces
          ACKs — every second in-order segment is acknowledged, with
          out-of-order/duplicate/FIN segments acknowledged immediately
          and the control plane flushing stragglers (FPCs have no
          timers). Listed by the paper as a further improvement for
          large bidirectional flows. *)
  window_scale : int;
      (** Fixed window-scale shift assumed on both ends (no SYN
          negotiation is modelled); data-center defaults need windows
          larger than 64 KB. *)
  rto : Sim.Time.t;
      (** Control-plane retransmission timeout (initial value; the
          per-connection timeout doubles on each consecutive timeout —
          exponential backoff — and resets on forward progress). *)
  rto_max : Sim.Time.t;  (** Backoff ceiling. *)
  max_rto_retries : int;
      (** Consecutive timeouts without progress before the control
          plane aborts the connection and notifies the application. *)
  cc : congestion_control;
  cc_interval : Sim.Time.t;  (** Control-plane iteration interval. *)
  wheel_slot : Sim.Time.t;  (** Carousel time-wheel slot granularity. *)
  wheel_slots : int;  (** Time-wheel horizon, in slots. *)
  libtoe_poll : Sim.Time.t;  (** libTOE context-queue polling period. *)
  sockets_api_cycles : int;
      (** Host cycles charged per socket call (Table 1: 0.74 kc per
          request covers send+recv+poll). *)
  notify_cycles : int;  (** Host cycles to consume one ARX entry. *)
  san : bool;
      (** Enable the FlexSan dynamic sanitizer (layer 2): instrument
          every stage's shared-state accesses and check them against
          happens-before. Simulated timing is unchanged; host-side
          cost only. Ignored (off) for run-to-completion
          configurations — single-FPC execution serializes everything
          by construction. *)
  scope : scope_mode;
      (** Enable the FlexScope segment-lifecycle profiler: typed
          spans with per-stage cycle attribution, the per-FPC
          utilization sampler, and the per-connection flight
          recorder. Simulated timing is unchanged (profiling is
          host-side observation, like FlexSan); the modelled cost of
          {e tracepoints} remains a separate, per-point opt-in via
          {!Sim.Trace}. *)
  batch : int;
      (** Batching degree (§3.4), one for every pipeline boundary: how
          many units amortize one fixed cost. It bounds the in-order
          RX segments GRO merges into one descriptor, the MSS units
          one TSO descriptor carries (the NBI splits it back into wire
          frames), the DMA descriptors rung per doorbell, the DMA
          completions coalesced per delivery, and the ARX
          notifications per connection coalesced into one
          context-queue DMA and host wakeup. 1 (the default) keeps the
          per-segment pipeline bit for bit: the batch>1 code paths are
          never entered. Read it through {!batch_degree}. *)
  batch_delay : Sim.Time.t;
      (** How long a partial batch (GRO window, doorbell ring, ARX
          accumulator) may be held before a timer flushes it. *)
  guard : guard;
      (** FlexGuard overload control ({!guard_none} by default). *)
  scale : scale;
      (** FlexScale sharding ({!scale_none} by default). *)
}

val default : t
(** [default.san] follows the [FLEXSAN] environment variable
    ([1]/[on]/[true]/[yes] enable it), so an instrumented run of the
    whole test suite needs no per-test plumbing. [default.scope]
    likewise follows [FLEXSCOPE] ([1]/[on]/[true]/[yes]/[full] for
    {!Scope_full}, [metrics] for {!Scope_metrics}), and
    [default.guard] follows [FLEXGUARD] ([1]/[on]/[true]/[yes] arm
    {!guard_default}). *)

val batch_degree : t -> int
(** [t.batch] clamped to >= 1: the one place a degree is clamped. *)

val with_parallelism : t -> parallelism -> t

(** Table 3 presets, cumulative left to right. *)

val t3_baseline : parallelism
val t3_pipelined : parallelism
val t3_threads : parallelism
val t3_replicated : parallelism
val t3_flow_groups : parallelism
