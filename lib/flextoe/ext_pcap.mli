(** tcpdump-style packet capture (§2.1, Table 2).

    A capture tap on the NBI records frames matching a header filter
    into an in-memory ring and can emit a standard libpcap file.
    Capture costs FPC cycles per packet (charged by the data path),
    which is why the paper reports up to 43% throughput degradation
    when logging everything — the flexibility story is that the tap
    can be attached and detached at run time. *)

(** Header filter expressions, tcpdump-flavoured. *)
type filter =
  | All
  | Host of int  (** Source or destination IPv4 address. *)
  | Src_host of int
  | Dst_host of int
  | Port of int
  | Tcp_flag of [ `Syn | `Fin | `Rst | `Ack | `Psh ]
  | And of filter * filter
  | Or of filter * filter
  | Not of filter

val matches : filter -> Tcp.Segment.frame -> bool

type t

val create :
  Sim.Engine.t -> ?snaplen:int -> ?limit:int -> ?filter:filter -> unit -> t
(** [snaplen] (default 96) caps stored bytes per packet; [limit]
    (default 65536) caps retained records (oldest dropped). *)

val attach : t -> Datapath.t -> unit
(** Install as the data path's capture tap. *)

val captured : t -> int
(** Packets recorded (post-filter). *)

val seen : t -> int
(** Packets inspected. *)

val to_pcap : t -> Bytes.t
(** Serialise as a classic libpcap capture file (magic 0xa1b2c3d4,
    LINKTYPE_ETHERNET), with virtual-time timestamps. *)

val write_file : t -> string -> unit

(** {1 Data-path filter programs}

    A [filter] can also be compiled into an XDP program that counts
    matching frames in a BPF array map — the in-line companion of the
    host tap, and a generated-code workout for {!Verifier.verify}
    (every emitted program must pass it). *)

val program_of_filter : filter -> Bpf_insn.t array
(** Compile [filter] to eBPF. The program considers only well-formed
    IPv4/TCP frames (a 54-byte header guard precedes all accesses),
    bumps a u64 counter in map 0 (key 0) on match, and always returns
    XDP_PASS. Constant sub-filters are folded before code generation
    so no statically unreachable block is emitted. *)

val program : unit -> Bpf_insn.t array
(** [program_of_filter All] — count every well-formed frame. *)

val counter_map : unit -> Bpf_map.t
(** A fresh match-counter map of the shape the compiled programs
    expect: array map, 4-byte key, 8-byte value, one entry. *)

val match_count : Bpf_map.t -> int64
(** Current value of the u64 match counter (key 0). *)
