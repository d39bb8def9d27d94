(** Firewall XDP module: drop ingress frames from blacklisted source
    IPs, with the blacklist in a BPF hash map the control plane
    updates at run time (§3.3). *)

type t

val create : Sim.Engine.t -> t
val program : unit -> Bpf_insn.t array
(** The eBPF program (exposed for tests and inspection). *)

val maps : unit -> Bpf_map.t array
(** Fresh maps of the shapes {!create} loads {!program} against: the
    source-IP blacklist. *)

val xdp : t -> Xdp.t
val install : t -> Datapath.t -> unit
val block : t -> ip:int -> unit
val unblock : t -> ip:int -> unit
val blocked : t -> int
(** Number of blacklisted addresses. *)

val dropped : t -> int
(** Frames dropped so far. *)
