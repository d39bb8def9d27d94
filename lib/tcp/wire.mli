(** Wire format: Ethernet II (+ optional 802.1Q) / IPv4 / TCP.

    Encoding computes real IPv4 and TCP checksums; decoding validates
    structure and (optionally) checksums. This is the boundary where
    XDP/eBPF modules, pcap capture, and wire-format tests see packets
    as raw bytes. *)

type error =
  | Truncated of string
  | Bad_ethertype of int
  | Bad_ip_version of int
  | Bad_protocol of int  (** Not TCP. *)
  | Bad_ip_checksum
  | Bad_tcp_checksum
  | Fragmented

val pp_error : Format.formatter -> error -> unit

val encode : Segment.frame -> Bytes.t
(** Serialise a frame with correct checksums. *)

val decode : ?verify_checksums:bool -> Bytes.t -> (Segment.frame, error) result
(** Parse a frame. [verify_checksums] defaults to [true]. Unknown TCP
    options are skipped. *)

(** Fixed byte offsets into an untagged TCP/IPv4 frame, used by eBPF
    programs and header-patching extensions. For VLAN-tagged frames
    add 4 to every offset at or beyond {!off_ethertype}. *)

val off_ethertype : int
val off_ip : int
val off_ip_src : int
val off_ip_dst : int
val off_tcp : int
val off_tcp_sport : int
val off_tcp_dport : int
val off_tcp_seq : int
val off_tcp_ack : int
val off_tcp_flags : int

val fixup_tcp_checksum : Bytes.t -> unit
(** Recompute and rewrite the TCP and IPv4 checksums of an encoded,
    untagged frame in place (after header patching, e.g. by the
    connection-splicing module). *)
