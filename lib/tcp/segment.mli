(** TCP segments and Ethernet/IPv4 frames as structured values.

    The data-path pipeline operates on these records; {!Wire} maps
    them to and from raw bytes (for XDP/eBPF modules, pcap capture and
    wire-format tests). Payloads are real byte strings so data
    integrity is checkable end to end. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
  ece : bool;  (** ECN echo. *)
  cwr : bool;  (** Congestion window reduced. *)
}

val no_flags : flags
val flags_ack : flags

val data_path_flags : flags -> bool
(** True iff a segment with these flags belongs on FlexTOE's
    data path (§3.1.3): only ACK, FIN, PSH, ECE, CWR may be set.
    SYN/RST/URG segments go to the control plane. *)

type tcp_options = {
  mss : int option;  (** Only on SYN. *)
  ts : (int * int) option;  (** (TSval, TSecr), 32-bit each. *)
}

val no_options : tcp_options

(** IP-header ECN codepoint. *)
type ecn = Not_ect | Ect0 | Ect1 | Ce

type t = {
  src_ip : int;  (** 32-bit IPv4 address. *)
  dst_ip : int;
  src_port : int;
  dst_port : int;
  seq : Seq32.t;
  ack_seq : Seq32.t;
  flags : flags;
  window : int;  (** Advertised receive window (16-bit). *)
  options : tcp_options;
  payload : Bytes.t;
}

type frame = {
  src_mac : int;  (** 48-bit MAC. *)
  dst_mac : int;
  vlan : int option;  (** 802.1Q VLAN id, if tagged. *)
  ecn : ecn;
  seg : t;
  csum : int;
      (** TCP checksum carried by the frame. {!make_frame} computes it
          from the segment; fault injection mutates the segment
          without updating it, so receivers can detect corruption with
          {!csum_ok}. The IP-level ECN codepoint is outside its
          coverage (ECN remarking in the fabric keeps it valid). *)
}

val payload_len : t -> int

val header_len : t -> int
(** TCP header length including options, padded to 4 bytes. *)

val frame_wire_len : frame -> int
(** Total on-wire bytes: Ethernet (+VLAN) + IPv4 + TCP + payload. *)

val make :
  ?flags:flags ->
  ?window:int ->
  ?options:tcp_options ->
  ?payload:Bytes.t ->
  src_ip:int ->
  dst_ip:int ->
  src_port:int ->
  dst_port:int ->
  seq:Seq32.t ->
  ack_seq:Seq32.t ->
  unit ->
  t

val make_frame :
  ?vlan:int option ->
  ?ecn:ecn ->
  ?csum:int ->
  src_mac:int ->
  dst_mac:int ->
  t ->
  frame
(** [csum] defaults to [checksum seg]; pass a stale value to model a
    corrupted frame. *)

val checksum : t -> int
(** Model-level TCP checksum (RFC 1071 ones'-complement) over the
    pseudo-header, all header fields and the payload of the structured
    segment. *)

val csum_ok : frame -> bool
(** Does the carried checksum match the segment's contents? *)

val pp : Format.formatter -> t -> unit
val pp_ip : Format.formatter -> int -> unit
(** Dotted-quad rendering of a 32-bit IPv4 address. *)

val mss_with_timestamps : int
