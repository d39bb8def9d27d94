(** The testbed network: NIC ports connected by a switch.

    Models the evaluation cluster's 100 Gbps switch (§5): per-port
    ingress serialisation at the NIC's line rate, a fixed switch
    forwarding latency, optional uniform random loss (the packet-loss
    robustness experiments, Figure 15), and per-port egress shaping
    with a drop-tail queue and WRED-style ECN marking (the incast
    experiment, Table 4).

    Frames are delivered to the destination port's receive callback at
    the virtual time the last byte arrives.

    Each port names a home engine (its node's LP). A frame is routed,
    and its loss drawn from the source port's own RNG stream (keyed by
    MAC), when the port transmits it. A frame between ports that share
    a home is scheduled on that engine; so a solo-engine fabric is
    simply one whose ports all share one home. For the parallel
    simulator, {!partition} builds one conservative channel per
    ordered pair of distinct port LPs, with the switch's forwarding
    latency as the lookahead — the physical justification being that
    no frame crosses the switch in less than its store-and-forward
    time. *)

type t

type port

val create :
  Sim.Engine.t -> ?switch_latency:Sim.Time.t -> ?seed:int64 -> unit -> t
(** [switch_latency] defaults to 1 us (store-and-forward through a
    data-center ToR). *)

val set_loss : t -> float -> unit
(** Uniform random drop probability applied to every frame. The draw
    is made per source port, at transmit time, from that port's own
    MAC-keyed stream. *)

val add_port :
  t ->
  ?engine:Sim.Engine.t ->
  ?rate_gbps:float ->
  mac:int ->
  ip:int ->
  rx:(Tcp.Segment.frame -> unit) ->
  unit ->
  port
(** Attach a NIC port. [rate_gbps] (default 40.0) bounds both ingress
    and egress serialisation. [engine] (default: the fabric's own) is
    the port's home LP: serialisation state, shaping and the receive
    callback live there. Raises [Invalid_argument] once the fabric is
    partitioned. *)

val partition : t -> cluster:Sim.Engine.Cluster.t -> unit
(** Enter partitioned mode: create a {!Sim.Engine.Cluster.channel}
    (lookahead = the switch latency) for every ordered pair of
    distinct port home-LPs. All ports must already be attached, and
    every port engine must be an LP of [cluster]. *)

val partitioned : t -> bool

val shape_port :
  t -> port -> rate_gbps:float -> queue_bytes:int -> ecn_threshold_bytes:int
  -> unit
(** Restrict a port's egress to [rate_gbps] with a drop-tail queue of
    [queue_bytes]; frames that find more than [ecn_threshold_bytes]
    queued are CE-marked if ECT-capable (WRED-style marking). *)

val transmit : port -> Tcp.Segment.frame -> unit
(** Send a frame into the fabric from this port. *)

val transmit_ref :
  port -> Tcp.Segment.frame -> len:int -> read:(unit -> Bytes.t) -> bool
(** Send a frame whose payload the fabric carries by reference: the
    frame given is the header (its segment's payload empty, its
    checksum unset), [len] the payload's length, and [read] returns
    the payload. The fabric serialises by the full wire length and
    builds the frame ([read], then {!Tcp.Segment.make_frame} for the
    checksum) when it hands the frame to the destination port, before
    a TX or RX fault hook sees it, or before the frame crosses LPs,
    on the source LP; a dropped frame is never read. [read] must
    return the same bytes whenever it runs before delivery. Returns
    [false] if the frame was built during the call (a TX fault hook
    or a destination on another LP), [true] if its payload is still
    unread. *)

(** {1 Fault injection}

    A fault hook intercepts every frame crossing a port boundary and
    decides its fate by invoking the continuation zero (drop), one
    (pass — possibly mutated, or later via the engine) or several
    (duplicate) times. Build hooks with {!Faults}. *)

type fault_hook = Tcp.Segment.frame -> (Tcp.Segment.frame -> unit) -> unit

val set_tx_fault : port -> fault_hook option -> unit
(** Intercept frames this port transmits, before ingress
    serialisation. *)

val set_rx_fault : port -> fault_hook option -> unit
(** Intercept frames delivered to this port, at arrival time, before
    the receive callback. *)

(** Fabric-wide statistics (summed over ports; on a partitioned
    fabric read them only while the cluster is not running). *)

val delivered : t -> int
val dropped_loss : t -> int
(** Frames dropped by random loss injection. *)

val dropped_queue : t -> int
(** Frames dropped at a full shaped egress queue. *)

val dropped_unroutable : t -> int
val ecn_marked : t -> int

val wire_time : rate_gbps:float -> bytes:int -> Sim.Time.t
(** Serialisation time of a frame of [bytes] on-wire bytes, including
    Ethernet preamble, FCS and inter-frame gap (24 bytes), with the
    64-byte minimum frame size applied. *)
