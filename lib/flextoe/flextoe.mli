(** FlexTOE: flexible TCP offload with fine-grained parallelism.

    Top-level facade assembling a complete node: a SmartNIC data path
    ({!Datapath}) attached to the network fabric, a host control plane
    ({!Control_plane}) on a dedicated core, and a libTOE socket
    library ({!Libtoe}) for the application, which programs against
    {!Host.Api}.

    {[
      let engine = Sim.Engine.create () in
      let fabric = Netsim.Fabric.create engine () in
      let server = Flextoe.create_node engine ~fabric ~ip:0x0A000001 () in
      let client = Flextoe.create_node engine ~fabric ~ip:0x0A000002 () in
      Host.Rpc.server ~endpoint:(Flextoe.endpoint server) ~port:7
        ~app_cycles:250 ~handler:Host.Rpc.echo_handler ();
      ...
      Sim.Engine.run ~until:(Sim.Time.ms 100) engine
    ]} *)

(** {1 Components} *)

module Config = Config
module Flow_group = Flow_group
module Conn_state = Conn_state
module Meta = Meta
module Coalesce = Coalesce
module Protocol = Protocol
module Sequencer = Sequencer
module Scheduler = Scheduler
module Effects = Effects
module Defect = Defect
module Pipeline = Pipeline
module Cost = Cost
module Graph_ir = Graph_ir
module Prove = Prove
module San = San
module Guard = Guard
module Datapath = Datapath
module Cc = Cc
module Control_plane = Control_plane
module Libtoe = Libtoe
module Bpf_insn = Bpf_insn
module Bpf_map = Bpf_map
module Ebpf = Ebpf
module Verifier = Verifier
module Flexscope = Flexscope
module Xdp = Xdp
module Ext_firewall = Ext_firewall
module Ext_vlan = Ext_vlan
module Ext_splice = Ext_splice
module Ext_pcap = Ext_pcap
module Ext_classifier = Ext_classifier

(** {1 Verifier error surface}

    Re-exported so embedders of the eBPF toolchain ([Ebpf.load] and
    friends) can pattern-match rejections against the umbrella module
    alone. *)

type verifier_reason = Verifier.reason

type verifier_violation = Verifier.violation = {
  pc : int;
  reason : verifier_reason;
  state : Verifier.state option;
}

(** {1 Assembled node} *)

type t

val create_node :
  Sim.Engine.t ->
  fabric:Netsim.Fabric.t ->
  ?config:Config.t ->
  ?app_cores:int ->
  ?pipeline:Pipeline.t ->
  ip:int ->
  unit ->
  t
(** Build a node: host CPU with [app_cores] application cores (default
    1) plus one control-plane core, NIC data path with one context
    queue per application core, control plane, and libTOE.
    The data path wires [pipeline] (default {!Pipeline.builtin}); a
    seeded race of the corpus is the table {!Defect.pipeline}
    builds. Raises [Invalid_argument] unless [engine] is [fabric]'s
    ({!Netsim.Fabric.engine}). *)

val endpoint : t -> Host.Api.endpoint
val datapath : t -> Datapath.t
val control : t -> Control_plane.t
val libtoe : t -> Libtoe.t
val cpu : t -> Host.Host_cpu.t
val app_cores : t -> Host.Host_cpu.core list
val config : t -> Config.t

val flexscope : t -> Flexscope.t option
(** The node's utilization sampler, running iff [config.scope] is not
    {!Config.Scope_off} (it keeps the event queue non-empty — bound
    runs with [~until] or {!Flexscope.stop} it). *)

val scope : t -> Sim.Scope.t option
(** Shorthand for [Datapath.scope (datapath t)]. *)

val mac_of_ip : int -> int
(** Fabric-wide IP-to-MAC convention (shared with the baselines). *)
