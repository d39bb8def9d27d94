(** The FlexTOE control plane (§3.4).

    Runs on the host in its own protection domain (a dedicated core)
    and owns everything the data path does not: ARP-free connection
    control (the TCP handshake, port and buffer allocation, data-path
    state installation), retransmission timeouts (go-back-N resets via
    HC), and the congestion-control loop (DCTCP by default, TIMELY as
    an alternative) that reads per-flow statistics from the data path
    and programs rates into the flow scheduler.

    The MAC of a peer is derived from its IP ([mac_of_ip]) — the
    testbed substitute for ARP resolution. *)

type t

type conn_handle = {
  ch_conn : int;  (** Data-path connection index. *)
  ch_ctx : int;  (** Context queue the connection is bound to. *)
  ch_state : Conn_state.t;
      (** Shared so libTOE can reach the host payload buffers, which
          live in host memory. libTOE must not touch the protocol
          partition. *)
}

val create :
  Sim.Engine.t ->
  config:Config.t ->
  datapath:Datapath.t ->
  core:Host.Host_cpu.core ->
  unit ->
  t
(** Registers itself as the data path's control-segment receiver and
    starts the CC/RTO iteration loop. *)

val mac_of_ip : int -> int
(** The fabric-wide IP-to-MAC convention. *)

val listen :
  t ->
  ?syn_ack_window:int ->
  ?app:int ->
  port:int ->
  on_accept:(conn_handle -> unit) ->
  unit ->
  unit
(** [syn_ack_window] overrides the (scaled) window advertised in our
    SYN-ACK — a splicing proxy advertises zero so no payload arrives
    before the splice is installed. [app] (default 0) identifies the
    application for port partitioning; listening on a port reserved
    for another app raises [Invalid_argument]. *)

val connect :
  t ->
  remote_ip:int ->
  remote_port:int ->
  ctx:int ->
  on_connected:((conn_handle, string) result -> unit) ->
  unit

val close : ?send_fin:bool -> t -> conn:int -> unit
(** Application close: sends FIN through HC; the connection is
    deallocated once both directions have closed. Idempotent — a
    second close or a close on an unknown (never-established or
    already-removed) connection is a no-op. [~send_fin:false] marks
    the flow closing without pushing a FIN through the CPI: used by
    libTOE, which orders the FIN behind its pending Tx_avails on the
    sock's own context ring (pushing a second FIN on ring 0 could
    overtake them and freeze the stream tail early). *)

val set_listener_paused : t -> port:int -> bool -> unit
(** Accept-queue backpressure: while paused, incoming SYNs for the
    port are deferred to the client's retransmission (counted as
    [shed_paused]) instead of accepted. *)

val listener_paused : t -> port:int -> bool

val active_flows : t -> int

val shard_conns : t -> int array
(** Installed connections per FlexScale shard group (a copy; length 1
    when sharding is off): the accounting behind the per-shard slice
    of {!set_connection_limit}. *)

val retransmit_timeouts : t -> int
(** Timeout-triggered go-back-N retransmissions issued so far. *)

val retransmit_aborts : t -> int
(** Connections torn down after [max_rto_retries] consecutive
    timeouts without forward progress. The application is notified
    through its context queue ([x_err]). *)

(** {1 Control-plane policies (§3.4)}

    Beyond congestion control, the control plane enforces
    administrative policies: per-connection rate limits (composed
    with the congestion controller: the stricter wins), a limit on
    concurrent connections, and port partitioning among applications.
    The connection limit is the node's only admission cap: FlexGuard
    has no cap of its own, it only counts the limit's refusals. *)

val set_rate_limit : t -> conn:int -> bps:int -> unit
(** Administrative ceiling for one flow; [0] removes it. Enforced by
    the flow scheduler like a congestion-control rate, and re-applied
    whenever the congestion controller would exceed it. *)

val rate_limit : t -> conn:int -> int

val set_connection_limit : t -> int option -> unit
(** Cap on concurrent connections, installed plus half-open
    ([None], the default, is unlimited). One predicate applies it at
    every point that would commit a table slot: a listener's SYN, the
    completing ACK of a SYN cookie, and a local [connect], which fails
    with ["connection limit reached"]. Under FlexScale each shard group
    also gets an even slice (ceiling) of the cap, so flows steered to
    a full shard are refused while the global cap still has room.
    With the guard on, each refused SYN or cookie ACK is counted as
    [shed_admission] (global cap) or [shed_admission_shard] (slice). *)

val reserve_ports : t -> lo:int -> hi:int -> app:int -> unit
(** Partition a port range to application [app]; [listen] on a
    reserved port by any other app raises [Invalid_argument]. *)

val port_owner : t -> int -> int option
