(* Network-fabric model tests: serialisation timing, forwarding, loss
   injection, shaping with ECN marking and tail drop. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_frame ?(payload = 100) ?(ecn = Tcp.Segment.Not_ect) ~src ~dst () =
  let seg =
    Tcp.Segment.make
      ~payload:(Bytes.make payload 'x')
      ~src_ip:src ~dst_ip:dst ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0 ()
  in
  Tcp.Segment.make_frame ~ecn ~src_mac:src ~dst_mac:dst seg

let test_wire_time () =
  (* 1500B frame + 24B overhead at 40G: 1524 * 8 / 40 = 304.8 ns. *)
  check_int "40G full frame" 304_800
    (Netsim.Fabric.wire_time ~rate_gbps:40. ~bytes:1500);
  (* Minimum frame size applies. *)
  check_int "runt padded to 64B" (88 * 8 * 25)
    (Netsim.Fabric.wire_time ~rate_gbps:40. ~bytes:10)

let test_delivery_and_latency () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e ~switch_latency:(Sim.Time.us 1) () in
  let got = ref [] in
  let _a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let _b =
    Netsim.Fabric.add_port fab ~mac:2 ~ip:2
      ~rx:(fun f -> got := (Sim.Engine.now e, f) :: !got)
      ()
  in
  Netsim.Fabric.transmit _a (mk_frame ~src:1 ~dst:2 ());
  Sim.Engine.run e;
  check_int "delivered" 1 (List.length !got);
  let t, _ = List.hd !got in
  (* tx serialisation + switch latency + rx serialisation *)
  let ser = Netsim.Fabric.wire_time ~rate_gbps:40. ~bytes:154 in
  check_int "timing" ((2 * ser) + Sim.Time.us 1) t

let test_unroutable_dropped () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e () in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  Netsim.Fabric.transmit a (mk_frame ~src:1 ~dst:99 ());
  Sim.Engine.run e;
  check_int "unroutable counted" 1 (Netsim.Fabric.dropped_unroutable fab)

let test_loss_rate () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e ~seed:3L () in
  Netsim.Fabric.set_loss fab 0.1;
  let got = ref 0 in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let _b = Netsim.Fabric.add_port fab ~mac:2 ~ip:2 ~rx:(fun _ -> incr got) () in
  let n = 20_000 in
  for _ = 1 to n do
    Netsim.Fabric.transmit a (mk_frame ~src:1 ~dst:2 ())
  done;
  Sim.Engine.run e;
  let rate = 1. -. (float_of_int !got /. float_of_int n) in
  check_bool "≈10% dropped" true (rate > 0.09 && rate < 0.11);
  check_int "accounts match" n (!got + Netsim.Fabric.dropped_loss fab)

let test_shaping_rate () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e () in
  let received = ref 0 in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let b =
    Netsim.Fabric.add_port fab ~mac:2 ~ip:2
      ~rx:(fun f -> received := !received + Tcp.Segment.frame_wire_len f)
      ()
  in
  Netsim.Fabric.shape_port fab b ~rate_gbps:1. ~queue_bytes:(1 lsl 20)
    ~ecn_threshold_bytes:(1 lsl 19);
  (* Offer ~4 Mbit over 1 ms into a 1 Gbps shaper: only ~1 Mbit
     (125 KB) can drain per ms. *)
  for _ = 1 to 300 do
    Netsim.Fabric.transmit a (mk_frame ~payload:1400 ~src:1 ~dst:2 ())
  done;
  Sim.Engine.run ~until:(Sim.Time.ms 1) e;
  check_bool "shaped near 1 Gbps" true
    (!received > 100_000 && !received < 140_000)

let test_ecn_marking_and_tail_drop () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e () in
  let ce = ref 0 and total = ref 0 in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let b =
    Netsim.Fabric.add_port fab ~mac:2 ~ip:2
      ~rx:(fun f ->
        incr total;
        if f.Tcp.Segment.ecn = Tcp.Segment.Ce then incr ce)
      ()
  in
  Netsim.Fabric.shape_port fab b ~rate_gbps:1. ~queue_bytes:30_000
    ~ecn_threshold_bytes:6_000;
  for _ = 1 to 100 do
    Netsim.Fabric.transmit a
      (mk_frame ~payload:1400 ~ecn:Tcp.Segment.Ect0 ~src:1 ~dst:2 ())
  done;
  Sim.Engine.run e;
  check_bool "deep queue marked CE" true (!ce > 0);
  check_bool "tail drops occurred" true (Netsim.Fabric.dropped_queue fab > 0);
  check_int "conservation" 100 (!total + Netsim.Fabric.dropped_queue fab);
  check_int "marks counted" !ce (Netsim.Fabric.ecn_marked fab)

let test_not_ect_never_marked () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e () in
  let ce = ref 0 in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let b =
    Netsim.Fabric.add_port fab ~mac:2 ~ip:2
      ~rx:(fun f -> if f.Tcp.Segment.ecn = Tcp.Segment.Ce then incr ce)
      ()
  in
  Netsim.Fabric.shape_port fab b ~rate_gbps:1. ~queue_bytes:(1 lsl 20)
    ~ecn_threshold_bytes:1_000;
  for _ = 1 to 50 do
    Netsim.Fabric.transmit a (mk_frame ~payload:1400 ~src:1 ~dst:2 ())
  done;
  Sim.Engine.run e;
  check_int "non-ECT untouched" 0 !ce

let test_fifo_per_destination () =
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e () in
  let order = ref [] in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let _b =
    Netsim.Fabric.add_port fab ~mac:2 ~ip:2
      ~rx:(fun f ->
        order := f.Tcp.Segment.seg.Tcp.Segment.seq :: !order)
      ()
  in
  for i = 1 to 20 do
    let seg =
      Tcp.Segment.make ~payload:(Bytes.make 10 'x') ~src_ip:1 ~dst_ip:2
        ~src_port:1 ~dst_port:2 ~seq:i ~ack_seq:0 ()
    in
    Netsim.Fabric.transmit a
      (Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int))
    "in-order delivery" (List.init 20 (fun i -> i + 1))
    (List.rev !order)

(* A frame sent by reference arrives when and as the built frame
   would, reads its payload once, at delivery, and a dropped one never
   reads it. A TX fault hook sees a built frame. *)
let test_transmit_ref () =
  let header f =
    let seg = { f.Tcp.Segment.seg with payload = Bytes.empty } in
    { f with Tcp.Segment.seg; csum = 0 }
  in
  let run ~send =
    let e = Sim.Engine.create () in
    let fab = Netsim.Fabric.create e () in
    let got = ref [] in
    let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
    let _b =
      Netsim.Fabric.add_port fab ~mac:2 ~ip:2
        ~rx:(fun f -> got := (Sim.Engine.now e, f) :: !got)
        ()
    in
    send e a;
    Sim.Engine.run e;
    List.rev !got
  in
  let frame = mk_frame ~payload:700 ~src:1 ~dst:2 () in
  let built = run ~send:(fun _ a -> Netsim.Fabric.transmit a frame) in
  let reads = ref [] in
  let by_ref =
    run ~send:(fun e a ->
        let read () =
          reads := Sim.Engine.now e :: !reads;
          frame.Tcp.Segment.seg.payload
        in
        check_bool "carried unread" true
          (Netsim.Fabric.transmit_ref a (header frame) ~len:700 ~read);
        check_int "not read at transmit" 0 (List.length !reads))
  in
  (match (built, by_ref) with
  | [ (t0, f0) ], [ (t1, f1) ] ->
      check_int "same arrival" t0 t1;
      check_int "same checksum" f0.Tcp.Segment.csum f1.Tcp.Segment.csum;
      check_bool "checksum valid" true (Tcp.Segment.csum_ok f1);
      Alcotest.(check (list int)) "read once, at delivery" [ t1 ] !reads
  | _ -> Alcotest.fail "one frame each");
  let dropped =
    run ~send:(fun _ a ->
        ignore
          (Netsim.Fabric.transmit_ref a
             (header (mk_frame ~src:1 ~dst:99 ()))
             ~len:100
             ~read:(fun () -> Alcotest.fail "dropped frame read")))
  in
  check_int "unroutable dropped" 0 (List.length dropped);
  let hooked =
    run ~send:(fun _ a ->
        Netsim.Fabric.set_tx_fault a
          (Some
             (fun f k ->
               check_int "hook sees the payload" 700
                 (Tcp.Segment.payload_len f.Tcp.Segment.seg);
               k f));
        check_bool "hook forces the build" false
          (Netsim.Fabric.transmit_ref a (header frame) ~len:700
             ~read:(fun () -> frame.Tcp.Segment.seg.payload)))
  in
  check_int "hooked frame delivered" 1 (List.length hooked)

(* A deferred segment's source: port 1 to port [dst], reading [data]
   at stream position [off] and logging each read. *)
let segment_source ?(dst = 2) ~log data =
  Netsim.Fabric.source ~src_mac:1 ~dst_mac:dst ~src_ip:1 ~dst_ip:dst
    ~src_port:5 ~dst_port:6
    ~read:(fun ~off ~len ->
      log off;
      Bytes.sub data off len)

let send_segment a src ~pos ~len =
  Netsim.Fabric.transmit_segment a src ~seq:(1000 + pos) ~ack:77 ~flags:0x11
    ~window:512 ~tsval:3 ~tsecr:4 ~pos ~len

(* A deferred segment arrives when and as the frame built at transmit
   would, is read once, when it leaves the switch, and a dropped one is
   never read. A TX fault hook sees a built frame. *)
let test_transmit_segment () =
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let run ~send =
    let e = Sim.Engine.create () in
    let fab = Netsim.Fabric.create e () in
    let got = ref [] in
    let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
    let _b =
      Netsim.Fabric.add_port fab ~mac:2 ~ip:2
        ~rx:(fun f -> got := (Sim.Engine.now e, f) :: !got)
        ()
    in
    send e a;
    Sim.Engine.run e;
    List.rev !got
  in
  let reads = ref [] in
  let src e = segment_source ~log:(fun _ -> reads := Sim.Engine.now e :: !reads) data in
  let built =
    run ~send:(fun e a ->
        Netsim.Fabric.transmit a
          (Netsim.Fabric.segment_frame (src e) ~seq:1100 ~ack:77 ~flags:0x11
             ~window:512 ~tsval:3 ~tsecr:4 ~payload:(Bytes.sub data 100 700)))
  in
  reads := [];
  let deferred =
    run ~send:(fun e a ->
        check_bool "deferred" true (send_segment a (src e) ~pos:100 ~len:700);
        check_int "not read at transmit" 0 (List.length !reads))
  in
  (match (built, deferred) with
  | [ (t0, f0) ], [ (t1, f1) ] ->
      check_int "same arrival" t0 t1;
      check_bool "same frame" true (f0 = f1);
      check_bool "checksum valid" true (Tcp.Segment.csum_ok f1);
      check_bool "flags" true
        (let fl = f1.Tcp.Segment.seg.Tcp.Segment.flags in
         fl.Tcp.Segment.ack && fl.Tcp.Segment.fin && not fl.Tcp.Segment.psh);
      (* Read when it leaves the switch: one serialisation and the
         switch latency after transmit, one serialisation before
         delivery. *)
      let ser = Netsim.Fabric.wire_time ~rate_gbps:40. ~bytes:(Tcp.Segment.frame_wire_len f1) in
      Alcotest.(check (list int)) "read once, at the switch" [ t1 - ser ] !reads
  | _ -> Alcotest.fail "one frame each");
  let dropped =
    run ~send:(fun _ a ->
        ignore
          (send_segment a
             (segment_source ~dst:99 ~log:(fun _ -> Alcotest.fail "dropped frame read") data)
             ~pos:0 ~len:100))
  in
  check_int "unroutable dropped" 0 (List.length dropped);
  let hooked =
    run ~send:(fun e a ->
        Netsim.Fabric.set_tx_fault a
          (Some
             (fun f k ->
               check_int "hook sees the payload" 700
                 (Tcp.Segment.payload_len f.Tcp.Segment.seg);
               k f));
        check_bool "hook forces the build" false
          (send_segment a (src e) ~pos:100 ~len:700))
  in
  check_int "hooked frame delivered" 1 (List.length hooked);
  match (built, hooked) with
  | [ (t0, f0) ], [ (t1, f1) ] ->
      check_int "hooked: same arrival" t0 t1;
      check_bool "hooked: same frame" true (f0 = f1)
  | _ -> Alcotest.fail "one frame each"

(* A segment waiting behind a serialisation backlog holds no heap
   block: queueing one allocates nothing (once the port's FIFO has
   grown), and each is built once, in order, at the switch. *)
let test_deferred_backlog_allocation () =
  let n = 1_500 and len = 1_448 in
  let data = Bytes.init (n * len) (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let e = Sim.Engine.create () in
  let fab = Netsim.Fabric.create e () in
  let got = ref 0 and bad = ref 0 and reads = ref 0 in
  let a = Netsim.Fabric.add_port fab ~mac:1 ~ip:1 ~rx:(fun _ -> ()) () in
  let _b =
    Netsim.Fabric.add_port fab ~mac:2 ~ip:2
      ~rx:(fun f ->
        let seg = f.Tcp.Segment.seg in
        let pos = (seg.Tcp.Segment.seq - 1000) in
        if
          pos <> (!got mod n) * len
          || not (Bytes.equal seg.Tcp.Segment.payload (Bytes.sub data pos len))
          || not (Tcp.Segment.csum_ok f)
        then incr bad;
        incr got)
      ()
  in
  let src = segment_source ~log:(fun _ -> incr reads) data in
  let deferred = ref 0 in
  let burst () =
    for i = 0 to n - 1 do
      if send_segment a src ~pos:(i * len) ~len then incr deferred
    done
  in
  (* The first burst grows the port's FIFO and the stream's ring. *)
  burst ();
  Sim.Engine.run e;
  let before = Gc.minor_words () in
  burst ();
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_bool "a backlog of deferred segments" true
    (Sim.Engine.pending e >= n && !reads = n);
  Sim.Engine.run e;
  check_int "every segment deferred" (2 * n) !deferred;
  check_int "every segment delivered" (2 * n) !got;
  check_int "each read once" (2 * n) !reads;
  check_int "intact and in order" 0 !bad;
  if words > 0.01 then
    Alcotest.failf "%.2f minor words per queued segment (bound 0.01)" words

let suite =
  [
    Alcotest.test_case "wire time" `Quick test_wire_time;
    Alcotest.test_case "deferred segments" `Quick test_transmit_segment;
    Alcotest.test_case "deferred backlog allocation" `Quick
      test_deferred_backlog_allocation;
    Alcotest.test_case "payload by reference" `Quick test_transmit_ref;
    Alcotest.test_case "delivery and latency" `Quick
      test_delivery_and_latency;
    Alcotest.test_case "unroutable frames dropped" `Quick
      test_unroutable_dropped;
    Alcotest.test_case "loss injection rate" `Quick test_loss_rate;
    Alcotest.test_case "egress shaping rate" `Quick test_shaping_rate;
    Alcotest.test_case "WRED: ECN marking + tail drop" `Quick
      test_ecn_marking_and_tail_drop;
    Alcotest.test_case "non-ECT never CE-marked" `Quick
      test_not_ect_never_marked;
    Alcotest.test_case "FIFO per destination" `Quick
      test_fifo_per_destination;
  ]
