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

type t = {
  dp : Datapath.t;
  cp : Control_plane.t;
  lib : Libtoe.t;
  cpu : Host.Host_cpu.t;
  n_app_cores : int;
  cfg : Config.t;
  sampler : Flexscope.t option;
}

(* Re-export the verifier's error surface so callers embedding the
   eBPF toolchain only need the umbrella module: a rejection is a
   [verifier_violation]. *)
type verifier_reason = Verifier.reason

type verifier_violation = Verifier.violation = {
  pc : int;
  reason : verifier_reason;
  state : Verifier.state option;
}

let mac_of_ip = Control_plane.mac_of_ip

let create_node engine ~fabric ?(config = Config.default) ?(app_cores = 1)
    ?pipeline ~ip () =
  if Netsim.Fabric.engine fabric != engine then
    invalid_arg "Flextoe.create_node: the node's engine is not its fabric's";
  let cpu = Host.Host_cpu.create engine ~cores:(app_cores + 1) () in
  (* Host jitter: small — libTOE busy-polls in user space and the TCP
     stack is on the NIC, but the application core still takes
     occasional interrupts. *)
  Host.Host_cpu.set_noise cpu ~interval_cycles:2_500_000
    ~mean_cycles:30_000;
  let dp =
    Datapath.create engine ~config ~fabric ~mac:(mac_of_ip ip) ~ip
      ~ctx_queues:app_cores ?pipeline ()
  in
  let cp_core = Host.Host_cpu.core cpu app_cores in
  let cp = Control_plane.create engine ~config ~datapath:dp ~core:cp_core () in
  let cores = List.init app_cores (Host.Host_cpu.core cpu) in
  let lib =
    Libtoe.create engine ~config ~datapath:dp ~control:cp ~cores ()
  in
  (* Profiling opt-in: the sampler only exists when the datapath was
     built with a scope, so a default node schedules nothing. *)
  let sampler = Flexscope.start dp in
  { dp; cp; lib; cpu; n_app_cores = app_cores; cfg = config; sampler }

let endpoint t = Libtoe.endpoint t.lib
let datapath t = t.dp
let control t = t.cp
let libtoe t = t.lib
let cpu t = t.cpu
let app_cores t = List.init t.n_app_cores (Host.Host_cpu.core t.cpu)
let config t = t.cfg
let flexscope t = t.sampler
let scope t = Datapath.scope t.dp
