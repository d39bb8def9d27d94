(** A complete host TCP stack, parameterised by a {!Profile}.

    This is the engine behind the Linux, TAS, and Chelsio baselines:
    a window-based TCP (slow start, congestion avoidance, ECN
    response, duplicate-ACK fast retransmit where the profile allows,
    exponential-backoff RTO) with full payload transfer and
    reassembly ({!Tcp.Reassembly_multi}), whose per-segment and
    per-call CPU costs are charged to host cores per the profile, and
    whose loss recovery follows the profile's model (selective repeat
    / go-back-N / RTO-only).

    Applications attach through the same {!Host.Api} as FlexTOE, so
    identical "binaries" run over every stack (§5, Baseline). *)

type t

val create :
  Sim.Engine.t ->
  fabric:Netsim.Fabric.t ->
  profile:Profile.t ->
  ip:int ->
  ?app_cores:int ->
  ?wire_gbps:float ->
  unit ->
  t
(** Raises [Invalid_argument] unless [engine] is [fabric]'s
    ({!Netsim.Fabric.engine}). *)

val endpoint : t -> Host.Api.endpoint
val fabric_port : t -> Netsim.Fabric.port
val cpu : t -> Host.Host_cpu.t
val profile : t -> Profile.t
val active_conns : t -> int

(** Counters. *)

val retransmits : t -> int
val rto_fires : t -> int

val mac_of_ip : int -> int
(** Same fabric-wide convention as FlexTOE's control plane. *)
