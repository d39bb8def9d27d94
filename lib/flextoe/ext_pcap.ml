type filter =
  | All
  | Host of int
  | Src_host of int
  | Dst_host of int
  | Port of int
  | Tcp_flag of [ `Syn | `Fin | `Rst | `Ack | `Psh ]
  | And of filter * filter
  | Or of filter * filter
  | Not of filter

let rec matches f (frame : Tcp.Segment.frame) =
  let seg = frame.Tcp.Segment.seg in
  match f with
  | All -> true
  | Host ip -> seg.Tcp.Segment.src_ip = ip || seg.Tcp.Segment.dst_ip = ip
  | Src_host ip -> seg.Tcp.Segment.src_ip = ip
  | Dst_host ip -> seg.Tcp.Segment.dst_ip = ip
  | Port p -> seg.Tcp.Segment.src_port = p || seg.Tcp.Segment.dst_port = p
  | Tcp_flag flag -> begin
      let fl = seg.Tcp.Segment.flags in
      match flag with
      | `Syn -> fl.Tcp.Segment.syn
      | `Fin -> fl.Tcp.Segment.fin
      | `Rst -> fl.Tcp.Segment.rst
      | `Ack -> fl.Tcp.Segment.ack
      | `Psh -> fl.Tcp.Segment.psh
    end
  | And (a, b) -> matches a frame && matches b frame
  | Or (a, b) -> matches a frame || matches b frame
  | Not a -> not (matches a frame)

type record = { ts : Sim.Time.t; orig_len : int; data : Bytes.t }

type t = {
  engine : Sim.Engine.t;
  snaplen : int;
  limit : int;
  filter : filter;
  records : record Sim.Fifo.t;
  mutable seen : int;
  mutable captured : int;
}

let create engine ?(snaplen = 96) ?(limit = 65536) ?(filter = All) () =
  { engine; snaplen; limit; filter; records = Sim.Fifo.create ();
    seen = 0; captured = 0 }

let tap t (_dir : Datapath.direction) frame =
  t.seen <- t.seen + 1;
  if matches t.filter frame then begin
    t.captured <- t.captured + 1;
    let bytes = Tcp.Wire.encode frame in
    let orig_len = Bytes.length bytes in
    let data =
      if orig_len > t.snaplen then Bytes.sub bytes 0 t.snaplen else bytes
    in
    Sim.Fifo.push { ts = Sim.Engine.now t.engine; orig_len; data } t.records;
    if Sim.Fifo.length t.records > t.limit then ignore (Sim.Fifo.pop t.records)
  end

let attach t dp = Datapath.set_capture dp (Some (tap t))
let captured t = t.captured
let seen t = t.seen

let put_u32_le b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let put_u16_le b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let to_pcap t =
  let total =
    Sim.Fifo.fold (fun n r -> n + 16 + Bytes.length r.data) 24 t.records
  in
  let out = Bytes.make total '\000' in
  (* Global header. *)
  put_u32_le out 0 0xa1b2c3d4;
  put_u16_le out 4 2;  (* major *)
  put_u16_le out 6 4;  (* minor *)
  put_u32_le out 16 t.snaplen;
  put_u32_le out 20 1;  (* LINKTYPE_ETHERNET *)
  let off = ref 24 in
  Sim.Fifo.iter
    (fun r ->
      let usec_total = int_of_float (Sim.Time.to_us r.ts) in
      put_u32_le out !off (usec_total / 1_000_000);
      put_u32_le out (!off + 4) (usec_total mod 1_000_000);
      put_u32_le out (!off + 8) (Bytes.length r.data);
      put_u32_le out (!off + 12) r.orig_len;
      Bytes.blit r.data 0 out (!off + 16) (Bytes.length r.data);
      off := !off + 16 + Bytes.length r.data)
    t.records;
  out

let write_file t path =
  let oc = open_out_bin path in
  output_bytes oc (to_pcap t);
  close_out oc

(* --- Data-path filter programs ------------------------------------- *)

(* Compile a [filter] into an XDP program that counts matching frames
   in a BPF array map (map 0, one u64 slot) and always returns
   XDP_PASS: the in-line companion of the host-side tap, and a
   non-trivial generated-code workout for the verifier. Only
   well-formed IPv4/TCP frames (54 header bytes proven by the guard)
   are considered; everything the program emits must verify, so
   constant sub-filters are folded away first — they would otherwise
   generate statically unreachable blocks, which the verifier
   rejects. *)

type sfilter =
  | S_const of bool
  | S_src_host of int
  | S_dst_host of int
  | S_port of int
  | S_flag of int  (* mask in the TCP flags byte *)
  | S_and of sfilter * sfilter
  | S_or of sfilter * sfilter
  | S_negated of sfilter  (* negation pushed down onto an atom *)

let flag_mask = function
  | `Fin -> 0x01
  | `Syn -> 0x02
  | `Rst -> 0x04
  | `Psh -> 0x08
  | `Ack -> 0x10

(* Fold constants and push negation down to the atoms (an atom's
   negation just swaps its jump targets, handled at emit time via
   [neg] below). *)
let rec simplify f =
  match f with
  | All -> S_const true
  | Host ip -> S_or (S_src_host ip, S_dst_host ip)
  | Src_host ip -> S_src_host ip
  | Dst_host ip -> S_dst_host ip
  | Port p -> S_port p
  | Tcp_flag fl -> S_flag (flag_mask fl)
  | And (a, b) -> (
      match (simplify a, simplify b) with
      | S_const false, _ | _, S_const false -> S_const false
      | S_const true, x | x, S_const true -> x
      | x, y -> S_and (x, y))
  | Or (a, b) -> (
      match (simplify a, simplify b) with
      | S_const true, _ | _, S_const true -> S_const true
      | S_const false, x | x, S_const false -> x
      | x, y -> S_or (x, y))
  | Not a -> neg (simplify a)

(* De Morgan: negation sinks to the atoms, where it just swaps the
   emit targets. *)
and neg = function
  | S_const b -> S_const (not b)
  | S_and (a, b) -> S_or (neg a, neg b)
  | S_or (a, b) -> S_and (neg a, neg b)
  | S_negated atom -> atom
  | atom -> S_negated atom

let bswap32 v =
  ((v land 0xFF) lsl 24)
  lor ((v lsr 8) land 0xFF) lsl 16
  lor ((v lsr 16) land 0xFF) lsl 8
  lor ((v lsr 24) land 0xFF)

let bswap16 v = ((v land 0xFF) lsl 8) lor ((v lsr 8) land 0xFF)

let program_of_filter filter =
  let open Bpf_insn in
  let next = ref 0 in
  let fresh prefix =
    incr next;
    Printf.sprintf "%s%d" prefix !next
  in
  (* Emit code that transfers control to [tl] when the (non-const)
     sub-filter matches the frame at r6, to [fl] otherwise. Every
     label produced is the target of at least one jump, so the whole
     expansion stays CFG-reachable. *)
  let rec emit sf ~tl ~fl =
    match sf with
    | S_const _ -> assert false  (* folded away by [simplify] *)
    | S_src_host ip -> host_cmp Tcp.Wire.off_ip_src ip ~tl ~fl
    | S_dst_host ip -> host_cmp Tcp.Wire.off_ip_dst ip ~tl ~fl
    | S_port p ->
        let p' = bswap16 p in
        [
          I (Ldx (W16, 3, 6, Tcp.Wire.off_tcp_sport));
          Jl (Jeq, 3, Imm p', tl);
          I (Ldx (W16, 3, 6, Tcp.Wire.off_tcp_dport));
          Jl (Jeq, 3, Imm p', tl);
          Jal fl;
        ]
    | S_flag mask ->
        [
          I (Ldx (W8, 3, 6, Tcp.Wire.off_tcp_flags));
          Jl (Jset, 3, Imm mask, tl);
          Jal fl;
        ]
    | S_negated atom -> emit atom ~tl:fl ~fl:tl
    | S_and (a, b) ->
        let mid = fresh "and" in
        emit a ~tl:mid ~fl @ [ L mid ] @ emit b ~tl ~fl
    | S_or (a, b) ->
        let mid = fresh "or" in
        emit a ~tl ~fl:mid @ [ L mid ] @ emit b ~tl ~fl
  and host_cmp off ip ~tl ~fl =
    (* The wire is big-endian; a little-endian W32 load of the
       address bytes therefore reads bswap32(ip). The swapped value
       may not fit a signed 32-bit immediate, so compare via a
       register. *)
    [
      I (Ldx (W32, 3, 6, off));
      I (Ld_imm64 (4, Int64.of_int (bswap32 ip)));
      Jl (Jeq, 3, Reg 4, tl);
      Jal fl;
    ]
  in
  match simplify filter with
  | S_const false ->
      (* Nothing can match: no counter traffic, just pass. *)
      assemble [ I (Alu64 (Mov, 0, Imm xdp_pass)); I Exit ]
  | simplified ->
      let filter_code =
        match simplified with
        | S_const true -> []  (* fall straight into the match block *)
        | sf -> emit sf ~tl:"matched" ~fl:"out" @ [ L "matched" ]
      in
      assemble
        ([
           I (Ldx (W64, 6, 1, 0));
           I (Ldx (W64, 7, 1, 8));
           (* Need the full Ethernet/IPv4/TCP header. *)
           I (Alu64 (Mov, 2, Reg 6));
           I (Alu64 (Add, 2, Imm 54));
           Jl (Jgt, 2, Reg 7, "out");
           (* IPv4? ethertype 0x0800 big-endian = 0x0008 LE. *)
           I (Ldx (W16, 3, 6, Tcp.Wire.off_ethertype));
           Jl (Jne, 3, Imm 0x0008, "out");
         ]
        @ filter_code
        @ [
            (* Bump the u64 match counter in map 0, key 0. *)
            I (St_imm (W32, 10, -4, 0));
            I (Alu64 (Mov, 1, Imm 0));
            I (Alu64 (Mov, 2, Reg 10));
            I (Alu64 (Add, 2, Imm (-4)));
            I (Call helper_map_lookup);
            Jl (Jeq, 0, Imm 0, "out");
            I (Ldx (W64, 3, 0, 0));
            I (Alu64 (Add, 3, Imm 1));
            I (Stx (W64, 0, 0, 3));
            L "out";
            I (Alu64 (Mov, 0, Imm xdp_pass));
            I Exit;
          ])

let program () = program_of_filter All

let counter_map () =
  Bpf_map.create Bpf_map.Array_map ~key_size:4 ~value_size:8 ~max_entries:1

let match_count map =
  match Bpf_map.lookup map ~key:(Bytes.make 4 '\000') with
  | None -> 0L
  | Some v ->
      let n = ref 0L in
      for i = 7 downto 0 do
        n :=
          Int64.logor (Int64.shift_left !n 8)
            (Int64.of_int (Char.code (Bytes.get v i)))
      done;
      !n
