open Segment

type error =
  | Truncated of string
  | Bad_ethertype of int
  | Bad_ip_version of int
  | Bad_protocol of int
  | Bad_ip_checksum
  | Bad_tcp_checksum
  | Fragmented

let pp_error fmt = function
  | Truncated what -> Format.fprintf fmt "truncated %s" what
  | Bad_ethertype e -> Format.fprintf fmt "unsupported ethertype 0x%04x" e
  | Bad_ip_version v -> Format.fprintf fmt "bad IP version %d" v
  | Bad_protocol p -> Format.fprintf fmt "unsupported IP protocol %d" p
  | Bad_ip_checksum -> Format.fprintf fmt "bad IPv4 header checksum"
  | Bad_tcp_checksum -> Format.fprintf fmt "bad TCP checksum"
  | Fragmented -> Format.fprintf fmt "fragmented IPv4 packet"

let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xFF))

let set_u16 b off v =
  set_u8 b off (v lsr 8);
  set_u8 b (off + 1) v

let set_u32 b off v =
  set_u16 b off (v lsr 16);
  set_u16 b (off + 2) v

let set_u48 b off v =
  set_u16 b off (v lsr 32);
  set_u32 b (off + 2) v

let get_u8 b off = Char.code (Bytes.get b off)
let get_u16 b off = (get_u8 b off lsl 8) lor get_u8 b (off + 1)
let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)
let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

let ecn_bits = function Not_ect -> 0 | Ect0 -> 2 | Ect1 -> 1 | Ce -> 3
let ecn_of_bits = function 0 -> Not_ect | 2 -> Ect0 | 1 -> Ect1 | _ -> Ce

let flag_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor (if f.urg then 0x20 else 0)
  lor (if f.ece then 0x40 else 0)
  lor if f.cwr then 0x80 else 0

let flags_of_bits b =
  {
    fin = b land 0x01 <> 0;
    syn = b land 0x02 <> 0;
    rst = b land 0x04 <> 0;
    psh = b land 0x08 <> 0;
    ack = b land 0x10 <> 0;
    urg = b land 0x20 <> 0;
    ece = b land 0x40 <> 0;
    cwr = b land 0x80 <> 0;
  }

(* Offsets for untagged frames. *)
let off_ethertype = 12
let off_ip = 14
let off_ip_src = off_ip + 12
let off_ip_dst = off_ip + 16
let off_tcp = off_ip + 20
let off_tcp_sport = off_tcp
let off_tcp_dport = off_tcp + 2
let off_tcp_seq = off_tcp + 4
let off_tcp_ack = off_tcp + 8
let off_tcp_flags = off_tcp + 13

let write_tcp_checksum buf ~ip_off ~tcp_off ~tcp_len =
  let src_ip = get_u32 buf (ip_off + 12) in
  let dst_ip = get_u32 buf (ip_off + 16) in
  set_u16 buf (tcp_off + 16) 0;
  let sum =
    Checksum.ones_complement buf ~off:tcp_off ~len:tcp_len
      ~init:
        (Checksum.pseudo_header_sum ~src_ip ~dst_ip ~protocol:6
           ~length:tcp_len)
  in
  set_u16 buf (tcp_off + 16) (Checksum.finish sum)

let write_ip_checksum buf ~ip_off =
  set_u16 buf (ip_off + 10) 0;
  set_u16 buf (ip_off + 10) (Checksum.internet buf ~off:ip_off ~len:20)

let encode (f : frame) =
  let seg = f.seg in
  let tcp_hlen = header_len seg in
  let plen = payload_len seg in
  let ip_len = 20 + tcp_hlen + plen in
  let eth_len = match f.vlan with Some _ -> 18 | None -> 14 in
  let buf = Bytes.make (eth_len + ip_len) '\000' in
  set_u48 buf 0 f.dst_mac;
  set_u48 buf 6 f.src_mac;
  let ip_off =
    match f.vlan with
    | Some vid ->
        set_u16 buf 12 0x8100;
        set_u16 buf 14 (vid land 0x0FFF);
        set_u16 buf 16 0x0800;
        18
    | None ->
        set_u16 buf 12 0x0800;
        14
  in
  (* IPv4 header *)
  set_u8 buf ip_off 0x45;
  set_u8 buf (ip_off + 1) (ecn_bits f.ecn);
  set_u16 buf (ip_off + 2) ip_len;
  set_u16 buf (ip_off + 4) 0;
  set_u16 buf (ip_off + 6) 0x4000;
  set_u8 buf (ip_off + 8) 64;
  set_u8 buf (ip_off + 9) 6;
  set_u32 buf (ip_off + 12) seg.src_ip;
  set_u32 buf (ip_off + 16) seg.dst_ip;
  write_ip_checksum buf ~ip_off;
  (* TCP header *)
  let tcp_off = ip_off + 20 in
  set_u16 buf tcp_off seg.src_port;
  set_u16 buf (tcp_off + 2) seg.dst_port;
  set_u32 buf (tcp_off + 4) seg.seq;
  set_u32 buf (tcp_off + 8) seg.ack_seq;
  set_u8 buf (tcp_off + 12) ((tcp_hlen / 4) lsl 4);
  set_u8 buf (tcp_off + 13) (flag_bits seg.flags);
  set_u16 buf (tcp_off + 14) seg.window;
  (* Options *)
  let opt_off = ref (tcp_off + 20) in
  (match seg.options.mss with
  | Some mss ->
      set_u8 buf !opt_off 2;
      set_u8 buf (!opt_off + 1) 4;
      set_u16 buf (!opt_off + 2) mss;
      opt_off := !opt_off + 4
  | None -> ());
  (match seg.options.ts with
  | Some (tsval, tsecr) ->
      set_u8 buf !opt_off 1;
      set_u8 buf (!opt_off + 1) 1;
      set_u8 buf (!opt_off + 2) 8;
      set_u8 buf (!opt_off + 3) 10;
      set_u32 buf (!opt_off + 4) tsval;
      set_u32 buf (!opt_off + 8) tsecr;
      opt_off := !opt_off + 12
  | None -> ());
  (* Payload *)
  Bytes.blit seg.payload 0 buf (tcp_off + tcp_hlen) plen;
  write_tcp_checksum buf ~ip_off ~tcp_off ~tcp_len:(tcp_hlen + plen);
  buf

let parse_options buf ~off ~len =
  let mss = ref None and ts = ref None in
  let i = ref off in
  let stop = off + len in
  (try
     while !i < stop do
       match get_u8 buf !i with
       | 0 -> raise Exit
       | 1 -> incr i
       | kind ->
           if !i + 1 >= stop then raise Exit;
           let olen = get_u8 buf (!i + 1) in
           if olen < 2 || !i + olen > stop then raise Exit;
           (match kind with
           | 2 when olen = 4 -> mss := Some (get_u16 buf (!i + 2))
           | 8 when olen = 10 ->
               ts := Some (get_u32 buf (!i + 2), get_u32 buf (!i + 6))
           | _ -> ());
           i := !i + olen
     done
   with Exit -> ());
  { mss = !mss; ts = !ts }

let decode ?(verify_checksums = true) buf =
  let len = Bytes.length buf in
  let ( let* ) = Result.bind in
  let* () = if len < 14 then Error (Truncated "ethernet") else Ok () in
  let dst_mac = get_u48 buf 0 in
  let src_mac = get_u48 buf 6 in
  let ethertype = get_u16 buf 12 in
  let* vlan, ip_off =
    match ethertype with
    | 0x0800 -> Ok (None, 14)
    | 0x8100 ->
        if len < 18 then Error (Truncated "vlan")
        else if get_u16 buf 16 <> 0x0800 then
          Error (Bad_ethertype (get_u16 buf 16))
        else Ok (Some (get_u16 buf 14 land 0x0FFF), 18)
    | e -> Error (Bad_ethertype e)
  in
  let* () = if len < ip_off + 20 then Error (Truncated "ipv4") else Ok () in
  let ver_ihl = get_u8 buf ip_off in
  let* () =
    if ver_ihl lsr 4 <> 4 then Error (Bad_ip_version (ver_ihl lsr 4))
    else Ok ()
  in
  let ihl = (ver_ihl land 0xF) * 4 in
  let* () = if len < ip_off + ihl then Error (Truncated "ipv4 options")
    else Ok ()
  in
  let* () =
    if get_u16 buf (ip_off + 6) land 0x3FFF <> 0 then Error Fragmented
    else Ok ()
  in
  let protocol = get_u8 buf (ip_off + 9) in
  let* () = if protocol <> 6 then Error (Bad_protocol protocol) else Ok () in
  let* () =
    if verify_checksums && Checksum.internet buf ~off:ip_off ~len:ihl <> 0
    then Error Bad_ip_checksum
    else Ok ()
  in
  let ip_len = get_u16 buf (ip_off + 2) in
  let* () =
    if ip_len < ihl + 20 || len < ip_off + ip_len then
      Error (Truncated "ip length")
    else Ok ()
  in
  let ecn = ecn_of_bits (get_u8 buf (ip_off + 1) land 0x3) in
  let src_ip = get_u32 buf (ip_off + 12) in
  let dst_ip = get_u32 buf (ip_off + 16) in
  let tcp_off = ip_off + ihl in
  let tcp_len = ip_len - ihl in
  let data_off = (get_u8 buf (tcp_off + 12) lsr 4) * 4 in
  let* () =
    if data_off < 20 || tcp_len < data_off then Error (Truncated "tcp header")
    else Ok ()
  in
  let* () =
    if verify_checksums then begin
      let sum =
        Checksum.ones_complement buf ~off:tcp_off ~len:tcp_len
          ~init:
            (Checksum.pseudo_header_sum ~src_ip ~dst_ip ~protocol:6
               ~length:tcp_len)
      in
      if Checksum.finish sum <> 0 then Error Bad_tcp_checksum else Ok ()
    end
    else Ok ()
  in
  let options = parse_options buf ~off:(tcp_off + 20) ~len:(data_off - 20) in
  let payload = Bytes.sub buf (tcp_off + data_off) (tcp_len - data_off) in
  let seg =
    {
      src_ip;
      dst_ip;
      src_port = get_u16 buf tcp_off;
      dst_port = get_u16 buf (tcp_off + 2);
      seq = get_u32 buf (tcp_off + 4);
      ack_seq = get_u32 buf (tcp_off + 8);
      flags = flags_of_bits (get_u8 buf (tcp_off + 13));
      window = get_u16 buf (tcp_off + 14);
      options;
      payload;
    }
  in
  Ok
    {
      src_mac;
      dst_mac;
      vlan;
      ecn;
      seg;
      (* Wire checksums were verified (or skipped) above; the decoded
         frame re-derives the model-level checksum from the segment. *)
      csum = checksum seg;
    }

let fixup_tcp_checksum buf =
  let ip_len = get_u16 buf (off_ip + 2) in
  write_ip_checksum buf ~ip_off:off_ip;
  write_tcp_checksum buf ~ip_off:off_ip ~tcp_off:off_tcp
    ~tcp_len:(ip_len - 20)
