(** Connection splicing as an XDP module — the paper's Listing 1
    (Appendix B), AccelTCP-style proxy bypass.

    Spliced segments are header-patched (MACs, IPs, ports, seq/ack
    deltas) and bounced out the MAC without touching the proxy host;
    control-flagged segments tear the entry down and go to the
    control plane. *)

type t

val program : unit -> Bpf_insn.t array
val value_size : int

val maps : unit -> Bpf_map.t array
(** Fresh maps of the shapes {!create} loads {!program} against: the
    4-tuple-keyed splice table. *)

val create : Sim.Engine.t -> t
val xdp : t -> Xdp.t
val install : t -> Datapath.t -> unit

type rewrite = {
  remote_mac : int;
  remote_ip : int;
  local_port : int;
  remote_port : int;
  seq_delta : int;  (** mod 2^32 *)
  ack_delta : int;
}

val encode_rewrite : rewrite -> Bytes.t

val add :
  t ->
  src_ip:int ->
  dst_ip:int ->
  src_port:int ->
  dst_port:int ->
  rewrite ->
  unit
(** Install a one-direction splice keyed by the arriving segment's
    source-oriented 4-tuple. *)

val remove :
  t -> src_ip:int -> dst_ip:int -> src_port:int -> dst_port:int -> unit

val splice_pair :
  t ->
  dp:Datapath.t ->
  a:Control_plane.conn_handle ->
  b:Control_plane.conn_handle ->
  unit
(** Splice two established proxy connections in both directions,
    deriving port translations and seq/ack deltas from their initial
    sequence numbers. Splice before payload flows: have the proxy
    listen with [~syn_ack_window:0] so the client cannot send until
    the splice's window-update nudges (sent through [dp]) arrive. *)

val spliced_segments : t -> int
val entries : t -> int
