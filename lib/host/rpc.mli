(** RPC workload machinery: servers, closed- and open-loop clients,
    and measurement.

    These drive every RPC experiment in the paper's evaluation:
    saturated-server throughput (Fig 11), single-RPC RTT (Fig 12),
    large-RPC streaming (Fig 13), connection scalability (Fig 14),
    loss robustness (Fig 15a/b) and incast (Table 4). *)

module Stats : sig
  type t

  val create : Sim.Engine.t -> t

  val start_measuring : t -> unit
  (** Begin the measurement window (call after warm-up). Samples
      before this are discarded. *)

  val record_rtt : t -> Sim.Time.t -> unit
  val record_op : t -> bytes:int -> unit
  val record_conn_op : t -> conn:int -> bytes:int -> unit
  (** Like {!record_op} but also attributes to a per-connection
      counter (for fairness metrics). *)

  val ops : t -> int
  val mops : t -> float
  val gbps : t -> float
  (** Application-payload goodput. *)

  val rtt_percentile_us : t -> float -> float
  (** [Float.nan] when no RTT was recorded in the window (renders as
      [n/a] in the bench tables): a run that measured nothing reads as
      absent, not as a 0 us latency. *)

  val conn_throughputs : t -> float array
  (** Per-connection ops counts over the window (only connections
      touched via {!record_conn_op}). *)

  val jain_index : t -> float
end

val server :
  endpoint:Api.endpoint ->
  port:int ->
  app_cycles:int ->
  handler:(Bytes.t -> Bytes.t) ->
  unit ->
  unit
(** Framed-RPC server: for each complete request message, charge
    [app_cycles] to the endpoint's app core and send
    [handler request] back on the same socket as it completes. *)

val echo_handler : Bytes.t -> Bytes.t
val const_handler : int -> Bytes.t -> Bytes.t
(** [const_handler n] replies with [n] fixed bytes regardless of the
    request (the paper's 32 B-response streaming benchmark). *)

type client

val closed_loop_client :
  endpoint:Api.endpoint ->
  engine:Sim.Engine.t ->
  server_ip:int ->
  server_port:int ->
  conns:int ->
  pipeline:int ->
  req_bytes:int ->
  stats:Stats.t ->
  ?on_response:(conn:int -> Bytes.t -> unit) ->
  ?req_cycles:int ->
  unit ->
  client
(** Open [conns] connections; keep [pipeline] requests of [req_bytes]
    outstanding on each; on every response record RTT + op and send
    the next request. [req_cycles] is charged per request to the
    client's app core (default 0: the client machine is never the
    bottleneck, as in the paper's multi-client setup). *)

val open_loop_client :
  endpoint:Api.endpoint ->
  engine:Sim.Engine.t ->
  server_ip:int ->
  server_port:int ->
  conns:int ->
  rate_per_sec:float ->
  req_bytes:int ->
  stats:Stats.t ->
  unit ->
  client
(** Poisson arrivals at [rate_per_sec] spread round-robin over
    [conns] connections; requests queue app-side when a connection's
    transmit buffer is full (their queueing delay counts toward
    RTT, as in an open-loop load generator). *)

val connected : client -> int
(** Connections currently established. *)
