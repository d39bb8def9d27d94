(* TCP substrate tests: sequence arithmetic, checksums, wire format,
   flows, and both reassembly schemes. *)

module S = Tcp.Segment
module Seq32 = Tcp.Seq32

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Seq32 ------------------------------------------------------------ *)

let test_seq_wraparound () =
  let near_max = Seq32.of_int 0xFFFF_FFF0 in
  let wrapped = Seq32.add near_max 0x20 in
  check_int "wraps" 0x10 wrapped;
  check_bool "wrapped is after" true (Seq32.gt wrapped near_max);
  check_int "diff across wrap" 0x20 (Seq32.diff wrapped near_max);
  check_int "negative diff" (-0x20) (Seq32.diff near_max wrapped)

let test_seq_window () =
  check_bool "inside" true (Seq32.in_window 5 ~base:0 ~size:10);
  check_bool "at base" true (Seq32.in_window 0 ~base:0 ~size:10);
  check_bool "past end" false (Seq32.in_window 10 ~base:0 ~size:10);
  check_bool "window across wrap" true
    (Seq32.in_window 3 ~base:0xFFFF_FFF8 ~size:16)

let prop_seq_diff_inverse =
  QCheck.Test.make ~name:"seq32: diff (add a n) a = n for |n| < 2^31"
    ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_range (-1000000) 1000000))
    (fun (a, n) ->
      let a = Seq32.of_int (a * 16) in
      Seq32.diff (Seq32.add a n) a = n)

let prop_seq_total_order_local =
  QCheck.Test.make ~name:"seq32: lt is antisymmetric for close values"
    ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let a = Seq32.of_int a and b = Seq32.of_int b in
      if a = b then (not (Seq32.lt a b)) && not (Seq32.gt a b)
      else Seq32.lt a b <> Seq32.lt b a || Seq32.diff a b = -0x8000_0000)

(* --- Checksum ----------------------------------------------------------- *)

let test_internet_checksum_rfc1071 () =
  (* Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071 example" 0x220d (Tcp.Checksum.internet b ~off:0 ~len:8)

let test_checksum_verification_roundtrip () =
  let b = Bytes.of_string "\x45\x00\x00\x30\x44\x22\x40\x00\x80\x06\x00\x00\x8c\x7c\x19\xac\xae\x24\x1e\x2b" in
  let csum = Tcp.Checksum.internet b ~off:0 ~len:20 in
  Bytes.set b 10 (Char.chr (csum lsr 8));
  Bytes.set b 11 (Char.chr (csum land 0xFF));
  check_int "verifies to zero" 0 (Tcp.Checksum.internet b ~off:0 ~len:20)

let test_crc32_vector () =
  (* CRC-32 of "123456789" is 0xCBF43926. *)
  let b = Bytes.of_string "123456789" in
  check_int "check vector" 0xCBF43926 (Tcp.Checksum.crc32 b ~off:0 ~len:9)

let test_crc32_ints_matches_bytes () =
  let b = Bytes.of_string "\x0A\x00\x00\x01\x0A\x00\x00\x02" in
  check_int "int form agrees"
    (Tcp.Checksum.crc32 b ~off:0 ~len:8)
    (Tcp.Checksum.crc32_ints [ 0x0A000001; 0x0A000002 ])

(* RFC 1071 as written: big-endian 16-bit words, one byte at a time,
   an odd trailing byte padded with zero. *)
let bytewise_ones_complement buf ~off ~len ~init =
  let sum = ref init and i = ref off in
  let byte j = Char.code (Bytes.get buf j) in
  while !i + 1 < off + len do
    sum := !sum + (byte !i lsl 8) + byte (!i + 1);
    i := !i + 2
  done;
  if !i < off + len then sum := !sum + (byte !i lsl 8);
  !sum

(* Buffers, ranges and [init]s for the word-at-a-time sum: lengths up to
   40 cover odd lengths below and above one 8-byte word at every
   alignment, and runs of 0xFF bytes drive the carries. *)
let ones_complement_case_gen =
  let open QCheck.Gen in
  let* n = int_bound 40 in
  let* bytes =
    string_size ~gen:(frequency [ (3, char); (1, return '\xff') ]) (return n)
  in
  let* off = int_bound n in
  let* len = int_bound (n - off) in
  let* init = oneof [ return 0; int_bound 0xFFFF; int_bound 0xFFFF_FFFF ] in
  return (Bytes.of_string bytes, off, len, init)

let prop_ones_complement_bytewise =
  QCheck.Test.make ~name:"checksum: word-at-a-time sum = byte-wise RFC 1071"
    ~count:2000
    (QCheck.make
       ~print:(fun (b, off, len, init) ->
         Printf.sprintf "%S off:%d len:%d init:%d" (Bytes.to_string b) off len
           init)
       ones_complement_case_gen)
    (fun (buf, off, len, init) ->
      let got = Tcp.Checksum.ones_complement buf ~off ~len ~init in
      let want = bytewise_ones_complement buf ~off ~len ~init in
      (* Equal as ones'-complement numbers: congruent modulo 0xFFFF and
         zero together, so every fold of them agrees. *)
      got mod 0xFFFF = want mod 0xFFFF
      && (got = 0) = (want = 0)
      && Tcp.Checksum.finish got = Tcp.Checksum.finish want
      (* Chaining through [init] keeps agreeing too. *)
      && Tcp.Checksum.finish
           (Tcp.Checksum.ones_complement buf ~off:0 ~len:off ~init:got)
         = Tcp.Checksum.finish
             (bytewise_ones_complement buf ~off:0 ~len:off ~init:want))

let test_ones_complement_bounds () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off %d len %d" off len)
        (Invalid_argument "Checksum.ones_complement: range out of bounds")
        (fun () -> ignore (Tcp.Checksum.ones_complement b ~off ~len ~init:0)))
    [ (-1, 2); (0, 17); (9, 8); (16, 1); (4, -1) ];
  check_int "empty range at the end" 7
    (Tcp.Checksum.ones_complement b ~off:16 ~len:0 ~init:7)

let flag_bits (f : S.flags) =
  List.fold_left
    (fun acc (set, bit) -> if set then acc lor bit else acc)
    0
    [
      (f.S.fin, 0x01); (f.S.syn, 0x02); (f.S.rst, 0x04); (f.S.psh, 0x08);
      (f.S.ack, 0x10); (f.S.urg, 0x20); (f.S.ece, 0x40); (f.S.cwr, 0x80);
    ]

(* The segment checksum as it was first written: the header as a list
   of 16-bit words, folded, then the payload byte-wise. *)
let list_form_checksum (seg : S.t) =
  let opt_words =
    (match seg.S.options.S.mss with
    | Some m -> [ 0x0204; m land 0xFFFF ]
    | None -> [])
    @
    match seg.S.options.S.ts with
    | Some (tsval, tsecr) ->
        [
          0x0101; 0x080A;
          (tsval lsr 16) land 0xFFFF; tsval land 0xFFFF;
          (tsecr lsr 16) land 0xFFFF; tsecr land 0xFFFF;
        ]
    | None -> []
  in
  let header_words =
    [
      seg.S.src_port land 0xFFFF;
      seg.S.dst_port land 0xFFFF;
      (seg.S.seq lsr 16) land 0xFFFF;
      seg.S.seq land 0xFFFF;
      (seg.S.ack_seq lsr 16) land 0xFFFF;
      seg.S.ack_seq land 0xFFFF;
      ((S.header_len seg / 4) lsl 12) lor flag_bits seg.S.flags;
      seg.S.window land 0xFFFF;
    ]
    @ opt_words
  in
  let init =
    Tcp.Checksum.pseudo_header_sum ~src_ip:seg.S.src_ip ~dst_ip:seg.S.dst_ip
      ~protocol:6
      ~length:(S.header_len seg + S.payload_len seg)
    + List.fold_left ( + ) 0 header_words
  in
  Tcp.Checksum.finish
    (bytewise_ones_complement seg.S.payload ~off:0 ~len:(S.payload_len seg)
       ~init)

let segment_gen =
  let open QCheck.Gen in
  let u32 = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF)
      (int_bound 0xFFFF) in
  let* src_ip = u32 and* dst_ip = u32 and* seq = u32 and* ack_seq = u32 in
  let* src_port = int_bound 0xFFFF and* dst_port = int_bound 0xFFFF in
  let* window = int_bound 0xFFFF in
  let* flags = int_bound 0xFF in
  let* mss = opt (int_bound 0xFFFF) in
  let* ts = opt (pair u32 u32) in
  let* payload = string_size (int_bound 1500) in
  let bit b = flags land b <> 0 in
  return
    (S.make
       ~flags:
         {
           S.fin = bit 0x01; syn = bit 0x02; rst = bit 0x04; psh = bit 0x08;
           ack = bit 0x10; urg = bit 0x20; ece = bit 0x40; cwr = bit 0x80;
         }
       ~window ~options:{ S.mss; ts } ~payload:(Bytes.of_string payload)
       ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq ())

let prop_segment_checksum_list_form =
  QCheck.Test.make ~name:"segment checksum = list-form reference" ~count:500
    (QCheck.make segment_gen) (fun seg ->
      S.checksum seg = list_form_checksum seg)

let test_segment_checksum_options () =
  let base =
    S.make ~payload:(Bytes.of_string "hello, world!") ~src_ip:0xC0A80001
      ~dst_ip:0xC0A80002 ~src_port:0x0050 ~dst_port:0xABCD ~seq:0x11223344
      ~ack_seq:0x55667788 ()
  in
  List.iter
    (fun (name, options) ->
      let seg = { base with S.options } in
      check_int name (list_form_checksum seg) (S.checksum seg))
    [
      ("no options", S.no_options);
      ("mss", { S.mss = Some 1448; ts = None });
      ("timestamps", { S.mss = None; ts = Some (0xDEADBEEF, 0x01020304) });
      ("mss + timestamps", { S.mss = Some 536; ts = Some (7, 0xFFFFFFFF) });
    ]

(* --- Flow ------------------------------------------------------------------ *)

let test_flow_reverse () =
  let f = Tcp.Flow.v ~local_ip:1 ~local_port:10 ~remote_ip:2 ~remote_port:20 in
  let r = Tcp.Flow.reverse f in
  check_int "rev local" 2 r.Tcp.Flow.local_ip;
  check_bool "double reverse" true (Tcp.Flow.equal f (Tcp.Flow.reverse r))

let test_flow_group_stable () =
  let f = Tcp.Flow.v ~local_ip:0x0A000001 ~local_port:7 ~remote_ip:0x0A000002
      ~remote_port:40000 in
  let g1 = Tcp.Flow.flow_group f ~groups:4 in
  let g2 = Tcp.Flow.flow_group f ~groups:4 in
  check_int "deterministic" g1 g2;
  check_bool "in range" true (g1 >= 0 && g1 < 4)

(* The flow hash is CRC-32 over the 12 big-endian bytes local IP,
   remote IP, local port, remote port (the same algorithm as the
   "123456789" check vector). *)
let test_flow_hash_vector () =
  let f = Tcp.Flow.v ~local_ip:0x0A000001 ~local_port:7 ~remote_ip:0x0A000002
      ~remote_port:40000 in
  let b = Bytes.create 12 in
  Bytes.set_int32_be b 0 0x0A000001l;
  Bytes.set_int32_be b 4 0x0A000002l;
  Bytes.set_uint16_be b 8 7;
  Bytes.set_uint16_be b 10 40000;
  check_int "bytes form" (Tcp.Checksum.crc32 b ~off:0 ~len:12) (Tcp.Flow.hash f);
  check_int "pinned" 0xC3FEE7E6 (Tcp.Flow.hash f)

let prop_flow_hash_list_form =
  QCheck.Test.make ~name:"flow hash = crc32_ints of the word list" ~count:500
    QCheck.(
      quad (int_bound 0xFFFFFFF) (int_bound 0xFFFF) (int_bound 0xFFFFFFF)
        (int_bound 0xFFFF))
    (fun (local_ip, local_port, remote_ip, remote_port) ->
      let f = Tcp.Flow.v ~local_ip ~local_port ~remote_ip ~remote_port in
      Tcp.Flow.hash f
      = Tcp.Checksum.crc32_ints
          [ local_ip; remote_ip; (local_port lsl 16) lor remote_port ])

let test_flow_of_segment_rx () =
  let seg =
    S.make ~src_ip:2 ~dst_ip:1 ~src_port:20 ~dst_port:10 ~seq:0 ~ack_seq:0 ()
  in
  let f = Tcp.Flow.of_segment_rx seg in
  check_int "local is dst" 1 f.Tcp.Flow.local_ip;
  check_int "remote is src" 2 f.Tcp.Flow.remote_ip

(* --- Wire format -------------------------------------------------------------- *)

let frame_gen =
  let open QCheck.Gen in
  let* src_ip = int_bound 0xFFFFFFF in
  let* dst_ip = int_bound 0xFFFFFFF in
  let* src_port = int_range 1 65535 in
  let* dst_port = int_range 1 65535 in
  let* seq = int_bound 0xFFFFFFF in
  let* ack_seq = int_bound 0xFFFFFFF in
  let* window = int_bound 0xFFFF in
  let* syn = bool and* ack = bool and* fin = bool and* psh = bool
  and* ece = bool and* cwr = bool in
  let* with_mss = bool and* with_ts = bool in
  let* vlan = opt (int_bound 0xFFF) in
  let* ecn = oneofl [ S.Not_ect; S.Ect0; S.Ect1; S.Ce ] in
  let* payload_len = int_bound 64 in
  let* payload_byte = char in
  let seg =
    S.make
      ~flags:{ S.no_flags with S.syn; ack; fin; psh; ece; cwr }
      ~window
      ~options:
        {
          S.mss = (if with_mss then Some 1448 else None);
          ts = (if with_ts then Some (123456, 654321) else None);
        }
      ~payload:(Bytes.make payload_len payload_byte)
      ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq ()
  in
  let* src_mac = int_bound 0xFFFFFF in
  let* dst_mac = int_bound 0xFFFFFF in
  return (S.make_frame ~vlan ~ecn ~src_mac ~dst_mac seg)

let frame_eq (a : S.frame) (b : S.frame) =
  a.S.src_mac = b.S.src_mac && a.S.dst_mac = b.S.dst_mac
  && a.S.vlan = b.S.vlan && a.S.ecn = b.S.ecn
  &&
  let x = a.S.seg and y = b.S.seg in
  x.S.src_ip = y.S.src_ip && x.S.dst_ip = y.S.dst_ip
  && x.S.src_port = y.S.src_port && x.S.dst_port = y.S.dst_port
  && x.S.seq = y.S.seq && x.S.ack_seq = y.S.ack_seq && x.S.flags = y.S.flags
  && x.S.window = y.S.window && x.S.options = y.S.options
  && Bytes.equal x.S.payload y.S.payload

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: decode (encode frame) = frame" ~count:500
    (QCheck.make frame_gen) (fun frame ->
      match Tcp.Wire.decode (Tcp.Wire.encode frame) with
      | Ok decoded -> frame_eq frame decoded
      | Error _ -> false)

let test_wire_length () =
  let seg =
    S.make ~payload:(Bytes.make 100 'x') ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:0 ~ack_seq:0 ()
  in
  let frame = S.make_frame ~src_mac:1 ~dst_mac:2 seg in
  check_int "wire length" (14 + 20 + 20 + 100)
    (Bytes.length (Tcp.Wire.encode frame));
  check_int "frame_wire_len agrees" (S.frame_wire_len frame)
    (Bytes.length (Tcp.Wire.encode frame))

let test_wire_detects_corruption () =
  let seg =
    S.make ~payload:(Bytes.of_string "hello") ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:0 ~ack_seq:0 ()
  in
  let b = Tcp.Wire.encode (S.make_frame ~src_mac:1 ~dst_mac:2 seg) in
  (* Flip a payload byte: TCP checksum must catch it. *)
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
  (match Tcp.Wire.decode b with
  | Error Tcp.Wire.Bad_tcp_checksum -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error e -> Alcotest.failf "wrong error: %a" Tcp.Wire.pp_error e);
  check_bool "ignorable" true
    (Result.is_ok (Tcp.Wire.decode ~verify_checksums:false b))

let test_wire_truncated () =
  match Tcp.Wire.decode (Bytes.make 10 '\000') with
  | Error (Tcp.Wire.Truncated _) -> ()
  | _ -> Alcotest.fail "expected truncation error"

let test_wire_bad_ethertype () =
  let b = Bytes.make 64 '\000' in
  Bytes.set b 12 '\x86';
  Bytes.set b 13 '\xdd';
  match Tcp.Wire.decode b with
  | Error (Tcp.Wire.Bad_ethertype 0x86dd) -> ()
  | _ -> Alcotest.fail "expected ethertype error"

let test_wire_fixup () =
  let seg =
    S.make ~payload:(Bytes.of_string "data") ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:10 ~ack_seq:20 ()
  in
  let b = Tcp.Wire.encode (S.make_frame ~src_mac:1 ~dst_mac:2 seg) in
  (* Patch the destination port, then fix up checksums. *)
  Bytes.set b (Tcp.Wire.off_tcp_dport + 1) '\x09';
  Tcp.Wire.fixup_tcp_checksum b;
  match Tcp.Wire.decode b with
  | Ok f -> check_int "patched port decodes" 9 f.S.seg.S.dst_port
  | Error e -> Alcotest.failf "fixup broken: %a" Tcp.Wire.pp_error e

(* --- Reassembly (single interval, FlexTOE) ------------------------------------- *)

let mk_reasm () = Tcp.Reassembly.create ~next:1000

let test_reasm_in_order () =
  let r = mk_reasm () in
  (match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Accept { trim = 0; len = 100; advance = 100;
                            filled_hole = false } -> ()
  | _ -> Alcotest.fail "in-order accept expected");
  check_int "next advanced" 1100 (Tcp.Reassembly.next r)

let test_reasm_duplicate () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000);
  match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Duplicate -> ()
  | _ -> Alcotest.fail "duplicate expected"

let test_reasm_head_trim () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000);
  (* Retransmission overlapping old + new data. *)
  match Tcp.Reassembly.process r ~seq:1050 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Accept { trim = 50; len = 50; advance = 50; _ } -> ()
  | _ -> Alcotest.fail "head trim expected"

let test_reasm_ooo_then_fill () =
  let r = mk_reasm () in
  (* Hole at 1000..1100, segment at 1100. *)
  (match Tcp.Reassembly.process r ~seq:1100 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Ooo_accept { trim = 0; off = 100; len = 100 } -> ()
  | _ -> Alcotest.fail "ooo accept expected");
  check_bool "hole tracked" true (Tcp.Reassembly.has_hole r);
  check_int "next unchanged" 1000 (Tcp.Reassembly.next r);
  (* Fill the hole: next jumps past the merged interval. *)
  (match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Accept { len = 100; advance = 200; filled_hole = true; _ }
    -> ()
  | _ -> Alcotest.fail "hole fill expected");
  check_int "next past interval" 1200 (Tcp.Reassembly.next r);
  check_bool "interval reset" false (Tcp.Reassembly.has_hole r)

let test_reasm_ooo_merge () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1200 ~len:100 ~window:10000);
  (* Extends the interval on the left (abuts). *)
  (match Tcp.Reassembly.process r ~seq:1100 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Ooo_accept { off = 100; len = 100; _ } -> ()
  | _ -> Alcotest.fail "left merge expected");
  Alcotest.(check (option (pair int int)))
    "interval grew" (Some (1100, 200))
    (Tcp.Reassembly.ooo_interval r);
  (* Extends on the right. *)
  ignore (Tcp.Reassembly.process r ~seq:1300 ~len:50 ~window:10000);
  Alcotest.(check (option (pair int int)))
    "interval grew right" (Some (1100, 250))
    (Tcp.Reassembly.ooo_interval r)

let test_reasm_merge_fails () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1100 ~len:50 ~window:10000);
  (* Disjoint second interval: FlexTOE drops it. *)
  match Tcp.Reassembly.process r ~seq:1300 ~len:50 ~window:10000 with
  | Tcp.Reassembly.Drop_merge_failed -> ()
  | _ -> Alcotest.fail "merge failure expected"

let test_reasm_window_trim () =
  let r = mk_reasm () in
  (match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:60 with
  | Tcp.Reassembly.Accept { len = 60; advance = 60; _ } -> ()
  | _ -> Alcotest.fail "tail trim expected");
  match Tcp.Reassembly.process r ~seq:2000 ~len:10 ~window:60 with
  | Tcp.Reassembly.Drop_out_of_window -> ()
  | _ -> Alcotest.fail "window drop expected"

let test_reasm_fin_advance () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1000 ~len:10 ~window:100);
  Tcp.Reassembly.force_advance r 1;
  check_int "fin consumed" 1011 (Tcp.Reassembly.next r)

(* Random segment arrivals of a contiguous stream: whatever is
   accepted must land at the right offset, and after enough
   retransmission rounds the stream completes. *)
let prop_reasm_single_converges =
  QCheck.Test.make ~name:"reassembly: random order converges via go-back-N"
    ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 1)) in
      let total = 20 in
      let r = Tcp.Reassembly.create ~next:0 in
      let received = Array.make total false in
      let rounds = ref 0 in
      while Tcp.Reassembly.next r < total * 100 && !rounds < 50 do
        incr rounds;
        (* Go-back-N sender: transmit from the ack point, randomly
           dropping and reordering. *)
        let base = Tcp.Reassembly.next r / 100 in
        let segs = ref [] in
        for i = base to total - 1 do
          if not (Sim.Rng.bool rng 0.2) then segs := i :: !segs
        done;
        let arr = Array.of_list !segs in
        Sim.Rng.shuffle rng arr;
        Array.iter
          (fun i ->
            match
              Tcp.Reassembly.process r ~seq:(i * 100) ~len:100
                ~window:(total * 100)
            with
            | Tcp.Reassembly.Accept { advance; _ } ->
                let start = (Tcp.Reassembly.next r - advance) / 100 in
                for k = start to (Tcp.Reassembly.next r / 100) - 1 do
                  received.(k) <- true
                done
            | Tcp.Reassembly.Ooo_accept _ -> received.(i) <- true
            | _ -> ())
          arr
      done;
      Tcp.Reassembly.next r = total * 100
      && Array.for_all (fun x -> x) received)

(* --- Reassembly (multi interval, Linux-style) ------------------------------------ *)

let prop_reasm_multi_any_order =
  QCheck.Test.make
    ~name:"multi-interval reassembly: any arrival order reconstructs"
    ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 17)) in
      let total = 30 in
      let order = Array.init total (fun i -> i) in
      Sim.Rng.shuffle rng order;
      let r = Tcp.Reassembly_multi.create ~next:0 in
      Array.iter
        (fun i ->
          ignore
            (Tcp.Reassembly_multi.process r ~seq:(i * 50) ~len:50
               ~window:(total * 50)))
        order;
      Tcp.Reassembly_multi.next r = total * 50
      && Tcp.Reassembly_multi.intervals r = [])

let test_reasm_multi_holes () =
  let r = Tcp.Reassembly_multi.create ~next:0 in
  ignore (Tcp.Reassembly_multi.process r ~seq:100 ~len:50 ~window:10000);
  ignore (Tcp.Reassembly_multi.process r ~seq:300 ~len:50 ~window:10000);
  check_int "two intervals" 2
    (List.length (Tcp.Reassembly_multi.intervals r));
  (* Fill first hole: drains only through the first interval. *)
  (match Tcp.Reassembly_multi.process r ~seq:0 ~len:100 ~window:10000 with
  | Tcp.Reassembly_multi.Accept { advance = 150; _ } -> ()
  | _ -> Alcotest.fail "drain through first interval");
  check_int "one interval left" 1
    (List.length (Tcp.Reassembly_multi.intervals r));
  check_int "next" 150 (Tcp.Reassembly_multi.next r)

let test_reasm_multi_overlap_merge () =
  let r = Tcp.Reassembly_multi.create ~next:0 in
  ignore (Tcp.Reassembly_multi.process r ~seq:100 ~len:100 ~window:10000);
  ignore (Tcp.Reassembly_multi.process r ~seq:150 ~len:100 ~window:10000);
  Alcotest.(check (list (pair int int)))
    "merged" [ (100, 150) ]
    (Tcp.Reassembly_multi.intervals r)

let suite =
  [
    Alcotest.test_case "seq32 wraparound" `Quick test_seq_wraparound;
    Alcotest.test_case "seq32 windows" `Quick test_seq_window;
    QCheck_alcotest.to_alcotest prop_seq_diff_inverse;
    QCheck_alcotest.to_alcotest prop_seq_total_order_local;
    Alcotest.test_case "internet checksum vector" `Quick
      test_internet_checksum_rfc1071;
    Alcotest.test_case "checksum verify roundtrip" `Quick
      test_checksum_verification_roundtrip;
    Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
    Alcotest.test_case "crc32 int form" `Quick test_crc32_ints_matches_bytes;
    QCheck_alcotest.to_alcotest prop_ones_complement_bytewise;
    Alcotest.test_case "ones complement bounds" `Quick
      test_ones_complement_bounds;
    QCheck_alcotest.to_alcotest prop_segment_checksum_list_form;
    Alcotest.test_case "segment checksum options" `Quick
      test_segment_checksum_options;
    Alcotest.test_case "flow hash vector" `Quick test_flow_hash_vector;
    QCheck_alcotest.to_alcotest prop_flow_hash_list_form;
    Alcotest.test_case "flow reverse" `Quick test_flow_reverse;
    Alcotest.test_case "flow group stability" `Quick test_flow_group_stable;
    Alcotest.test_case "flow of rx segment" `Quick test_flow_of_segment_rx;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "wire lengths" `Quick test_wire_length;
    Alcotest.test_case "wire corruption detection" `Quick
      test_wire_detects_corruption;
    Alcotest.test_case "wire truncation" `Quick test_wire_truncated;
    Alcotest.test_case "wire ethertype" `Quick test_wire_bad_ethertype;
    Alcotest.test_case "wire checksum fixup" `Quick test_wire_fixup;
    Alcotest.test_case "reassembly in order" `Quick test_reasm_in_order;
    Alcotest.test_case "reassembly duplicate" `Quick test_reasm_duplicate;
    Alcotest.test_case "reassembly head trim" `Quick test_reasm_head_trim;
    Alcotest.test_case "reassembly ooo + hole fill" `Quick
      test_reasm_ooo_then_fill;
    Alcotest.test_case "reassembly interval merge" `Quick
      test_reasm_ooo_merge;
    Alcotest.test_case "reassembly merge failure drops" `Quick
      test_reasm_merge_fails;
    Alcotest.test_case "reassembly window trim" `Quick
      test_reasm_window_trim;
    Alcotest.test_case "reassembly FIN advance" `Quick
      test_reasm_fin_advance;
    QCheck_alcotest.to_alcotest prop_reasm_single_converges;
    QCheck_alcotest.to_alcotest prop_reasm_multi_any_order;
    Alcotest.test_case "multi-interval holes" `Quick test_reasm_multi_holes;
    Alcotest.test_case "multi-interval overlap merge" `Quick
      test_reasm_multi_overlap_merge;
  ]

(* Golden wire vector: a fully specified frame must encode to exactly
   these bytes (checked against an independent hand computation of
   the IPv4/TCP checksums). Guards against silent codec drift. *)
let test_wire_golden_vector () =
  let seg =
    S.make
      ~flags:{ S.no_flags with S.ack = true; psh = true }
      ~window:0x1234
      ~options:{ S.mss = None; ts = Some (0x01020304, 0x0A0B0C0D) }
      ~payload:(Bytes.of_string "AB")
      ~src_ip:0xC0A80001 ~dst_ip:0xC0A80002 ~src_port:0x0050
      ~dst_port:0xABCD ~seq:0x11223344 ~ack_seq:0x55667788 ()
  in
  let frame =
    S.make_frame ~src_mac:0x0200AABBCCDD ~dst_mac:0x020011223344 seg
  in
  let hex b =
    String.concat ""
      (List.init (Bytes.length b) (fun i ->
           Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
  in
  let expected =
    (* Ethernet II *)
    "020011223344" ^ "0200aabbccdd" ^ "0800"
    (* IPv4: ver/ihl tos len id flags/frag ttl proto csum src dst *)
    ^ "4500" ^ "0036" ^ "0000" ^ "4000" ^ "4006" ^ "b96e"
    ^ "c0a80001" ^ "c0a80002"
    (* TCP: sport dport seq ack off/flags win csum urg *)
    ^ "0050" ^ "abcd" ^ "11223344" ^ "55667788" ^ "8018" ^ "1234"
    ^ "ca58" ^ "0000"
    (* options: NOP NOP TS *)
    ^ "0101" ^ "080a" ^ "01020304" ^ "0a0b0c0d"
    (* payload *)
    ^ "4142"
  in
  Alcotest.(check string) "golden bytes" expected
    (hex (Tcp.Wire.encode frame))

let golden_suite =
  [ Alcotest.test_case "wire golden vector" `Quick test_wire_golden_vector ]
