(** Connection splicing as an XDP module — the paper's Listing 1
    (Appendix B), AccelTCP-style.

    A BPF hash map keyed by the arriving segment's 4-tuple holds the
    header rewrite: new destination MAC/IP, translated ports, and
    sequence/acknowledgment deltas derived from the two connections'
    initial sequence numbers. Hits are patched and bounced straight
    out the MAC (XDP_TX) — the proxy host never sees the payload.
    Segments with control flags (SYN/FIN/RST) atomically remove the
    map entry and are redirected to the control plane; non-TCP frames
    are redirected as well. FlexTOE refreshes the checksum on TX. *)

open Bpf_insn

(* Packet offsets (untagged Ethernet/IPv4/TCP). *)
let off_ip_src = Tcp.Wire.off_ip_src  (* 26; the 12-byte key starts here *)
let off_tcp_sport = Tcp.Wire.off_tcp_sport
let off_tcp_seq = Tcp.Wire.off_tcp_seq
let off_tcp_ack = Tcp.Wire.off_tcp_ack
let off_tcp_flags = Tcp.Wire.off_tcp_flags

(* Value layout in the splice table (24 bytes):
   0..6   remote_mac   (network byte order)
   8..12  remote_ip    (network byte order)
   12..14 local_port   (network byte order)
   14..16 remote_port  (network byte order)
   16..20 seq_delta    (host u32)
   20..24 ack_delta    (host u32) *)
let value_size = 24

let program () =
  assemble
    [
      I (Ldx (W64, 6, 1, 0));  (* r6 = data *)
      I (Ldx (W64, 7, 1, 8));  (* r7 = data_end *)
      (* Short frames and non-IPv4/TCP go to the control plane. *)
      I (Alu64 (Mov, 2, Reg 6));
      I (Alu64 (Add, 2, Imm 54));
      Jl (Jgt, 2, Reg 7, "redirect");
      I (Ldx (W16, 3, 6, 12));
      Jl (Jne, 3, Imm 0x0008, "redirect");  (* ethertype 0x0800 BE *)
      I (Ldx (W8, 3, 6, 23));
      Jl (Jne, 3, Imm 6, "redirect");
      (* Build the 12-byte 4-tuple key on the stack. *)
      I (Ldx (W64, 3, 6, off_ip_src));
      I (Stx (W64, 10, -16, 3));
      I (Ldx (W32, 3, 6, off_tcp_sport));
      I (Stx (W32, 10, -8, 3));
      (* Control flags (SYN|FIN|RST): remove entry, to control plane. *)
      I (Ldx (W8, 3, 6, off_tcp_flags));
      I (Alu64 (And, 3, Imm 0x07));
      Jl (Jeq, 3, Imm 0, "lookup");
      I (Alu64 (Mov, 1, Imm 0));
      I (Alu64 (Mov, 2, Reg 10));
      I (Alu64 (Add, 2, Imm (-16)));
      I (Call helper_map_delete);
      Jal "redirect";
      L "lookup";
      I (Alu64 (Mov, 1, Imm 0));
      I (Alu64 (Mov, 2, Reg 10));
      I (Alu64 (Add, 2, Imm (-16)));
      I (Call helper_map_lookup);
      Jl (Jne, 0, Imm 0, "patch");
      (* No splice state: normal data-path segment. *)
      I (Alu64 (Mov, 0, Imm xdp_pass));
      I Exit;
      L "patch";
      I (Alu64 (Mov, 8, Reg 0));  (* r8 = splice state *)
      (* eth.src <- eth.dst (the proxy's MAC) *)
      I (Ldx (W32, 3, 6, 0));
      I (Ldx (W16, 4, 6, 4));
      I (Stx (W32, 6, 6, 3));
      I (Stx (W16, 6, 10, 4));
      (* eth.dst <- remote_mac *)
      I (Ldx (W32, 3, 8, 0));
      I (Ldx (W16, 4, 8, 4));
      I (Stx (W32, 6, 0, 3));
      I (Stx (W16, 6, 4, 4));
      (* ip.src <- ip.dst; ip.dst <- remote_ip *)
      I (Ldx (W32, 3, 6, 30));
      I (Stx (W32, 6, 26, 3));
      I (Ldx (W32, 3, 8, 8));
      I (Stx (W32, 6, 30, 3));
      (* ports *)
      I (Ldx (W16, 3, 8, 12));
      I (Stx (W16, 6, 34, 3));
      I (Ldx (W16, 3, 8, 14));
      I (Stx (W16, 6, 36, 3));
      (* seq += seq_delta (byte-swap, add, swap back) *)
      I (Ldx (W32, 3, 6, off_tcp_seq));
      I (Endian_be (3, 32));
      I (Ldx (W32, 4, 8, 16));
      I (Alu32 (Add, 3, Reg 4));
      I (Endian_be (3, 32));
      I (Stx (W32, 6, off_tcp_seq, 3));
      (* ack += ack_delta *)
      I (Ldx (W32, 3, 6, off_tcp_ack));
      I (Endian_be (3, 32));
      I (Ldx (W32, 4, 8, 20));
      I (Alu32 (Add, 3, Reg 4));
      I (Endian_be (3, 32));
      I (Stx (W32, 6, off_tcp_ack, 3));
      (* FlexTOE recomputes the checksum on egress. *)
      I (Call helper_csum_fixup);
      I (Alu64 (Mov, 0, Imm xdp_tx));
      I Exit;
      L "redirect";
      I (Alu64 (Mov, 0, Imm xdp_redirect));
      I Exit;
    ]

type t = { xdp : Xdp.t; map : Bpf_map.t }

let create engine =
  let map =
    Bpf_map.create Bpf_map.Hash_map ~key_size:12 ~value_size
      ~max_entries:4096
  in
  let insns = program () in
  (match Verifier.verify ~maps:(Xdp.map_specs [| map |]) insns with
  | Ok _ -> ()
  | Error v -> invalid_arg ("Ext_splice: " ^ Verifier.violation_to_string v));
  match Ebpf.load_unverified insns with
  | Ok p -> { xdp = Xdp.create engine ~program:p ~maps:[| map |]; map }
  | Error e -> invalid_arg ("Ext_splice: " ^ e)

let xdp t = t.xdp
let install t dp = Xdp.install t.xdp dp

(* --- Control-plane side -------------------------------------------- *)

let put_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 1) (Char.chr (v land 0xFF))

let put_u32 b off v =
  put_u16 b off ((v lsr 16) land 0xFFFF);
  put_u16 b (off + 2) (v land 0xFFFF)

let put_u32_le b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let put_u48 b off v =
  put_u16 b off ((v lsr 32) land 0xFFFF);
  put_u32 b (off + 2) (v land 0xFFFFFFFF)

(* Key as it appears in an arriving packet at the proxy: the sender's
   4-tuple in network byte order. *)
let key ~src_ip ~dst_ip ~src_port ~dst_port =
  let b = Bytes.create 12 in
  put_u32 b 0 src_ip;
  put_u32 b 4 dst_ip;
  put_u16 b 8 src_port;
  put_u16 b 10 dst_port;
  b

type rewrite = {
  remote_mac : int;
  remote_ip : int;
  local_port : int;
  remote_port : int;
  seq_delta : int;  (** mod 2^32 *)
  ack_delta : int;
}

let encode_rewrite r =
  let b = Bytes.make value_size '\000' in
  put_u48 b 0 r.remote_mac;
  put_u32 b 8 r.remote_ip;
  put_u16 b 12 r.local_port;
  put_u16 b 14 r.remote_port;
  put_u32_le b 16 (r.seq_delta land 0xFFFFFFFF);
  put_u32_le b 20 (r.ack_delta land 0xFFFFFFFF);
  b

let add t ~src_ip ~dst_ip ~src_port ~dst_port rewrite =
  match
    Bpf_map.update t.map
      ~key:(key ~src_ip ~dst_ip ~src_port ~dst_port)
      ~value:(encode_rewrite rewrite)
  with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ext_splice.add: " ^ e)

let remove t ~src_ip ~dst_ip ~src_port ~dst_port =
  ignore (Bpf_map.delete t.map ~key:(key ~src_ip ~dst_ip ~src_port ~dst_port))

(* After installing the rewrite entries, each endpoint gets one
   translated window-update ACK so a sender parked on the proxy's
   zero-window SYN-ACK (the pre-splice guard) starts transmitting. *)
let nudge dp (via : Control_plane.conn_handle) ~window =
  let cs = via.Control_plane.ch_state in
  let pre = cs.Conn_state.pre in
  let p = cs.Conn_state.proto in
  let seg =
    Tcp.Segment.make ~flags:Tcp.Segment.flags_ack ~window
      ~src_ip:pre.Conn_state.local_ip ~dst_ip:pre.Conn_state.peer_ip
      ~src_port:pre.Conn_state.local_port
      ~dst_port:pre.Conn_state.remote_port
      ~seq:(Conn_state.tx_seq_of_pos cs p.Conn_state.tx_next_pos)
      ~ack_seq:(Tcp.Reassembly.next p.Conn_state.reasm)
      ()
  in
  Datapath.control_tx dp
    (Tcp.Segment.make_frame
       ~src_mac:(Control_plane.mac_of_ip pre.Conn_state.local_ip)
       ~dst_mac:pre.Conn_state.peer_mac seg)

(* Splice two established proxy connections [a] (to the client) and
   [b] (to the server): traffic arriving on either is rewritten onto
   the other. Valid when spliced before any payload flows (the usual
   AccelTCP pattern: splice right after connection setup). *)
let splice_pair t ~dp ~(a : Control_plane.conn_handle)
    ~(b : Control_plane.conn_handle) =
  let mask = 0xFFFFFFFF in
  let proto (h : Control_plane.conn_handle) =
    h.Control_plane.ch_state.Conn_state.proto
  in
  let flow (h : Control_plane.conn_handle) =
    h.Control_plane.ch_state.Conn_state.flow
  in
  let fa = flow a and fb = flow b in
  let pa = proto a and pb = proto b in
  let mac_of_ip = Control_plane.mac_of_ip in
  (* client -> proxy (conn a's RX) becomes proxy -> server (b's TX) *)
  add t ~src_ip:fa.Tcp.Flow.remote_ip ~dst_ip:fa.Tcp.Flow.local_ip
    ~src_port:fa.Tcp.Flow.remote_port ~dst_port:fa.Tcp.Flow.local_port
    {
      remote_mac = mac_of_ip fb.Tcp.Flow.remote_ip;
      remote_ip = fb.Tcp.Flow.remote_ip;
      local_port = fb.Tcp.Flow.local_port;
      remote_port = fb.Tcp.Flow.remote_port;
      seq_delta = (pb.Conn_state.tx_isn - pa.Conn_state.rx_isn) land mask;
      ack_delta = (pb.Conn_state.rx_isn - pa.Conn_state.tx_isn) land mask;
    };
  (* server -> proxy (conn b's RX) becomes proxy -> client (a's TX) *)
  add t ~src_ip:fb.Tcp.Flow.remote_ip ~dst_ip:fb.Tcp.Flow.local_ip
    ~src_port:fb.Tcp.Flow.remote_port ~dst_port:fb.Tcp.Flow.local_port
    {
      remote_mac = mac_of_ip fa.Tcp.Flow.remote_ip;
      remote_ip = fa.Tcp.Flow.remote_ip;
      local_port = fa.Tcp.Flow.local_port;
      remote_port = fa.Tcp.Flow.remote_port;
      seq_delta = (pa.Conn_state.tx_isn - pb.Conn_state.rx_isn) land mask;
      ack_delta = (pa.Conn_state.rx_isn - pb.Conn_state.tx_isn) land mask;
    };
  (* Window-update nudges: each endpoint now sees the other's window. *)
  let scaled w = Int.min 0xFFFF (w lsr 7) in
  nudge dp a ~window:(scaled pb.Conn_state.remote_win);
  nudge dp b ~window:(scaled pa.Conn_state.remote_win)

let spliced_segments t = Xdp.txed t.xdp
let entries t = Bpf_map.length t.map
