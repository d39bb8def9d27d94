(** XDP hook: running eBPF programs inside the data path (§3.3).

    An XDP module sees raw frames before the RX pipeline and returns
    XDP_PASS (continue into the pipeline), XDP_DROP, XDP_TX (bounce
    out the MAC — connection splicing), or XDP_REDIRECT (to the
    control plane). The data path charges the dispatch overhead plus
    the instructions the program actually executed, and re-sequences
    segments afterwards. On XDP_TX, checksums are refreshed (the NFP
    recomputes them in hardware; cf. Listing 1's note). *)

type t

val create :
  Sim.Engine.t -> program:Ebpf.program -> maps:Bpf_map.t array -> t
(** Wrap a program from {!Ebpf.load}; [maps] should be the array it
    was loaded against. *)

val attach :
  Sim.Engine.t ->
  insns:Bpf_insn.t array ->
  maps:Bpf_map.t array ->
  Datapath.t ->
  (t, Verifier.violation) result
(** Load [insns] with {!Ebpf.load} against [maps], and only if the
    verifier accepts the program install it as the data path's XDP
    ingress hook. Unverifiable programs never reach the data path. *)

val null_program : unit -> Ebpf.program
(** [return XDP_PASS] — the paper's null-module overhead probe. *)

val hook : t -> Datapath.xdp_hook

val install : t -> Datapath.t -> unit
val uninstall : Datapath.t -> unit

val maps : t -> Bpf_map.t array
val runs : t -> int
val passed : t -> int
val dropped : t -> int
val txed : t -> int
val redirected : t -> int
val insns_total : t -> int
