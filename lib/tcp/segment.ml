type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
  ece : bool;
  cwr : bool;
}

let no_flags =
  {
    syn = false;
    ack = false;
    fin = false;
    rst = false;
    psh = false;
    urg = false;
    ece = false;
    cwr = false;
  }

let flags_ack = { no_flags with ack = true }

let pp_flags fmt f =
  let tags =
    [
      ("SYN", f.syn); ("ACK", f.ack); ("FIN", f.fin); ("RST", f.rst);
      ("PSH", f.psh); ("URG", f.urg); ("ECE", f.ece); ("CWR", f.cwr);
    ]
  in
  let set = List.filter_map (fun (n, b) -> if b then Some n else None) tags in
  Format.fprintf fmt "[%s]" (String.concat "," set)

let data_path_flags f = not (f.syn || f.rst || f.urg)

type tcp_options = { mss : int option; ts : (int * int) option }

let no_options = { mss = None; ts = None }

type ecn = Not_ect | Ect0 | Ect1 | Ce

type t = {
  src_ip : int;
  dst_ip : int;
  src_port : int;
  dst_port : int;
  seq : Seq32.t;
  ack_seq : Seq32.t;
  flags : flags;
  window : int;
  options : tcp_options;
  payload : Bytes.t;
}

type frame = {
  src_mac : int;
  dst_mac : int;
  vlan : int option;
  ecn : ecn;
  seg : t;
  csum : int;
}

let payload_len t = Bytes.length t.payload

let options_len o =
  let mss = match o.mss with Some _ -> 4 | None -> 0 in
  (* Timestamp option: 10 bytes, conventionally preceded by two NOPs. *)
  let ts = match o.ts with Some _ -> 12 | None -> 0 in
  mss + ts

let header_len t = 20 + ((options_len t.options + 3) / 4 * 4)

let eth_header_len vlan = match vlan with Some _ -> 18 | None -> 14

let frame_wire_len f =
  eth_header_len f.vlan + 20 + header_len f.seg + payload_len f.seg

let make ?(flags = no_flags) ?(window = 0xFFFF) ?(options = no_options)
    ?(payload = Bytes.empty) ~src_ip ~dst_ip ~src_port ~dst_port ~seq
    ~ack_seq () =
  {
    src_ip;
    dst_ip;
    src_port;
    dst_port;
    seq;
    ack_seq;
    flags;
    window;
    options;
    payload;
  }

let flag_bits f =
  (if f.cwr then 0x80 else 0)
  lor (if f.ece then 0x40 else 0)
  lor (if f.urg then 0x20 else 0)
  lor (if f.ack then 0x10 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.syn then 0x02 else 0)
  lor if f.fin then 0x01 else 0

(* TCP checksum over the pseudo-header, the logical header fields and
   the payload. Computed on the structured representation rather than
   wire bytes (the data path never materialises frames), but covering
   every field {!Wire.encode} would serialise, so any in-flight
   mutation of the segment is detectable. The header's 16-bit words are
   summed directly into the payload sum's [init]. *)
let checksum seg =
  let opt_sum =
    (match seg.options.mss with Some m -> 0x0204 + (m land 0xFFFF) | None -> 0)
    +
    match seg.options.ts with
    | Some (tsval, tsecr) ->
        0x0101 + 0x080A
        + ((tsval lsr 16) land 0xFFFF) + (tsval land 0xFFFF)
        + ((tsecr lsr 16) land 0xFFFF) + (tsecr land 0xFFFF)
    | None -> 0
  in
  let hlen = header_len seg and plen = payload_len seg in
  let header_sum =
    (seg.src_port land 0xFFFF)
    + (seg.dst_port land 0xFFFF)
    + ((seg.seq lsr 16) land 0xFFFF)
    + (seg.seq land 0xFFFF)
    + ((seg.ack_seq lsr 16) land 0xFFFF)
    + (seg.ack_seq land 0xFFFF)
    + (((hlen / 4) lsl 12) lor flag_bits seg.flags)
    + (seg.window land 0xFFFF)
    + opt_sum
  in
  let init =
    Checksum.pseudo_header_sum ~src_ip:seg.src_ip ~dst_ip:seg.dst_ip
      ~protocol:6 ~length:(hlen + plen)
    + header_sum
  in
  Checksum.finish (Checksum.ones_complement seg.payload ~off:0 ~len:plen ~init)

let make_frame ?(vlan = None) ?(ecn = Not_ect) ?csum ~src_mac ~dst_mac seg =
  let csum = match csum with Some c -> c | None -> checksum seg in
  { src_mac; dst_mac; vlan; ecn; seg; csum }

let csum_ok f = f.csum = checksum f.seg

let pp_ip fmt ip =
  Format.fprintf fmt "%d.%d.%d.%d" ((ip lsr 24) land 0xFF)
    ((ip lsr 16) land 0xFF)
    ((ip lsr 8) land 0xFF)
    (ip land 0xFF)

let pp fmt t =
  Format.fprintf fmt "%a:%d>%a:%d seq=%a ack=%a %a win=%d len=%d" pp_ip
    t.src_ip t.src_port pp_ip t.dst_ip t.dst_port Seq32.pp t.seq Seq32.pp
    t.ack_seq pp_flags t.flags t.window (payload_len t)

(* 1500 B MTU minus IPv4 and TCP headers (40 B) and the timestamp
   option (12 B). *)
let mss_with_timestamps = 1448
