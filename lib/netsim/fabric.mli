(** The testbed network: NIC ports connected by a switch.

    Models the evaluation cluster's 100 Gbps switch (§5): per-port
    ingress serialisation at the NIC's line rate, a fixed switch
    forwarding latency, optional uniform random loss (the packet-loss
    robustness experiments, Figure 15), and per-port egress shaping
    with a drop-tail queue and WRED-style ECN marking (the incast
    experiment, Table 4).

    Frames are delivered to the destination port's receive callback at
    the virtual time the last byte arrives.

    A fabric and all of its ports live on one engine: its nodes must
    be built on that engine ({!engine}). A frame is routed, and its
    loss drawn from the source port's own RNG stream (keyed by MAC),
    when the port transmits it. *)

type t

type port

val create :
  Sim.Engine.t -> ?switch_latency:Sim.Time.t -> ?seed:int64 -> unit -> t
(** [switch_latency] defaults to 1 us (store-and-forward through a
    data-center ToR). *)

val engine : t -> Sim.Engine.t
(** The engine every port's serialisation, shaping and delivery run
    on. *)

val set_loss : t -> float -> unit
(** Uniform random drop probability applied to every frame. The draw
    is made per source port, at transmit time, from that port's own
    MAC-keyed stream. *)

val add_port :
  t ->
  ?rate_gbps:float ->
  mac:int ->
  ip:int ->
  rx:(Tcp.Segment.frame -> unit) ->
  unit ->
  port
(** Attach a NIC port. [rate_gbps] (default 40.0) bounds both ingress
    and egress serialisation. *)

val shape_port :
  t -> port -> rate_gbps:float -> queue_bytes:int -> ecn_threshold_bytes:int
  -> unit
(** Restrict a port's egress to [rate_gbps] with a drop-tail queue of
    [queue_bytes]; frames that find more than [ecn_threshold_bytes]
    queued are CE-marked if ECT-capable (WRED-style marking). *)

val transmit : port -> Tcp.Segment.frame -> unit
(** Send a frame into the fabric from this port. *)

(** {1 Deferred segments}

    A TCP segment whose header fields are plain integers and whose
    payload the sender reads from a buffer that keeps it until the
    segment is delivered: a TCP offload engine's first transmission.
    While it waits for the wire, such a segment holds no frame: the
    port keeps its integers in its own transmit FIFO, and the fabric
    builds the frame (header, payload and checksum at once) when the
    segment leaves that FIFO at the switch. *)

type source
(** One connection's constant frame fields and the reader of its
    payload bytes; make it once per connection. *)

val source :
  src_mac:int ->
  dst_mac:int ->
  src_ip:int ->
  dst_ip:int ->
  src_port:int ->
  dst_port:int ->
  read:(off:int -> len:int -> Bytes.t) ->
  source
(** [read ~off ~len] returns the payload bytes at position [off] of
    the connection's stream. *)

val source_read : source -> off:int -> len:int -> Bytes.t
(** The source's payload bytes at [off]: for a sender that needs a
    segment's payload before the fabric has it. *)

val segment_frame :
  source ->
  seq:Tcp.Seq32.t ->
  ack:Tcp.Seq32.t ->
  flags:int ->
  window:int ->
  tsval:int ->
  tsecr:int ->
  payload:Bytes.t ->
  Tcp.Segment.frame
(** The frame of one of the source's segments: untagged, ECN-capable
    (ECT(0)), with the TCP flag byte [flags]
    ({!Tcp.Segment.flag_bits}), the timestamp option [(tsval, tsecr)]
    and no other, and its checksum computed. *)

val transmit_segment :
  port ->
  source ->
  seq:Tcp.Seq32.t ->
  ack:Tcp.Seq32.t ->
  flags:int ->
  window:int ->
  tsval:int ->
  tsecr:int ->
  pos:int ->
  len:int ->
  bool
(** Send the source's segment whose [len] payload bytes are at
    position [pos]. Serialisation (by the full wire length, computed
    without building anything), the loss draw and routing happen now,
    exactly as for {!transmit} of the built frame, and the frame
    arrives when and as that frame would. The segment waits in the
    port's FIFO and is built, reading its payload once, when it leaves
    the switch; a dropped one is never read. With a TX fault hook on
    the port, the frame is built during the call. Returns [false] if
    it was, [true] otherwise. *)

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

(** Fabric-wide statistics (summed over ports). *)

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
