(* Bechamel micro-benchmarks of the hot data structures underneath the
   experiments: wire codec + checksums, reassembly, the sequencer, the
   eBPF VM, the event queue, host payload buffers, and the end-to-end
   simulator itself.
   These quantify the cost of the simulation substrate, not FlexTOE's
   modelled performance. *)

open Bechamel
open Toolkit

let test_checksum =
  let buf = Bytes.make 1448 'x' in
  Test.make ~name:"checksum/internet-1448B" (Staged.stage (fun () ->
      ignore (Tcp.Checksum.internet buf ~off:0 ~len:1448)))

(* The whole segment checksum as the datapath computes it on every
   frame: pseudo-header and header fields plus a full-MSS payload. *)
let test_segment_checksum =
  let seg =
    Tcp.Segment.make ~payload:(Bytes.make 1448 'x') ~src_ip:0x0A000001
      ~dst_ip:0x0A000002 ~src_port:40000 ~dst_port:7 ~seq:123_456
      ~ack_seq:654_321
      ~options:{ Tcp.Segment.mss = None; ts = Some (1, 2) }
      ()
  in
  Test.make ~name:"tcp/segment-checksum-1448B" (Staged.stage (fun () ->
      ignore (Tcp.Segment.checksum seg)))

let test_crc32 =
  let buf = Bytes.make 64 'x' in
  Test.make ~name:"checksum/crc32-64B" (Staged.stage (fun () ->
      ignore (Tcp.Checksum.crc32 buf ~off:0 ~len:64)))

let test_wire_roundtrip =
  let seg =
    Tcp.Segment.make ~payload:(Bytes.make 256 'p') ~src_ip:1 ~dst_ip:2
      ~src_port:3 ~dst_port:4 ~seq:5 ~ack_seq:6
      ~options:{ Tcp.Segment.mss = None; ts = Some (1, 2) }
      ()
  in
  let frame = Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg in
  Test.make ~name:"wire/encode+decode-256B" (Staged.stage (fun () ->
      match Tcp.Wire.decode (Tcp.Wire.encode frame) with
      | Ok _ -> ()
      | Error _ -> assert false))

let test_reassembly =
  Test.make ~name:"reassembly/in-order-window" (Staged.stage (fun () ->
      let r = Tcp.Reassembly.create ~next:0 in
      for i = 0 to 63 do
        ignore
          (Tcp.Reassembly.process r ~seq:(i * 1448) ~len:1448
             ~window:(1 lsl 20))
      done))

let test_sequencer =
  Test.make ~name:"sequencer/64-reversed" (Staged.stage (fun () ->
      let s = Flextoe.Sequencer.create ~name:"b" ~release:ignore in
      let seqs = Array.init 64 (fun _ -> Flextoe.Sequencer.next_seq s) in
      for i = 63 downto 0 do
        Flextoe.Sequencer.submit s ~seq:seqs.(i) ()
      done))

let test_ebpf_splice =
  let prog =
    match Flextoe.Ebpf.load (Flextoe.Ext_splice.program ()) with
    | Ok p -> p
    | Error _ -> assert false
  in
  let map =
    Flextoe.Bpf_map.create Flextoe.Bpf_map.Hash_map ~key_size:12
      ~value_size:Flextoe.Ext_splice.value_size ~max_entries:64
  in
  let seg =
    Tcp.Segment.make ~flags:Tcp.Segment.flags_ack
      ~payload:(Bytes.make 64 'q') ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:5 ~ack_seq:6 ()
  in
  let packet =
    Tcp.Wire.encode (Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg)
  in
  Test.make ~name:"ebpf/splice-program-miss" (Staged.stage (fun () ->
      ignore (Flextoe.Ebpf.run prog ~maps:[| map |] ~now_ns:0L ~packet)))

(* One pop plus one push on a wheel held at a fixed depth, with
   timestamps spread like a cycle-level model's. The depths are the
   median pending-event counts of the kv (67) and bulk (1,430) perfbench
   workloads, so each run cross-checks their sim.wheel_ns_per_event. *)
let test_event_queue depth =
  let q = Sim.Event_queue.create () in
  let x = ref 12_345 in
  let next () =
    x := ((!x * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
    !x land 0xF_FFFF
  in
  for _ = 1 to depth do
    Sim.Event_queue.push q (next ()) ()
  done;
  Test.make
    ~name:(Printf.sprintf "sim/event-queue-push+pop-%d" depth)
    (Staged.stage (fun () ->
         let t = Sim.Event_queue.next_time q in
         Sim.Event_queue.pop_next q;
         Sim.Event_queue.push q (t + 1 + next ()) ()))

(* A push due at the last-popped time, then its pop, on a wheel held at
   bulk's depth: the "start on the next tick" event an FPC issues for
   every work item. *)
let test_event_queue_same_instant =
  let q = Sim.Event_queue.create () in
  for i = 1 to 1430 do
    Sim.Event_queue.push q (1_000 + (i * 7_919 mod 100_000)) ()
  done;
  let now = Sim.Event_queue.next_time q in
  Sim.Event_queue.pop_next q;
  Test.make ~name:"sim/event-queue-same-instant" (Staged.stage (fun () ->
      Sim.Event_queue.push q now ();
      Sim.Event_queue.pop_next q))

(* Bulk's wheel with streams: 1,430 frames queued on one link, held
   by a monotone stream, next to 24 other events in the heap. Each
   step pops the earliest event, which schedules its successor the
   same way, so the depth stays fixed and about 97% of the pops are
   frames, as on bulk. With [~streams:false] the same events are all
   plain wheel entries: a 1,454-entry heap. *)
let test_engine_link ~streams =
  let e = Sim.Engine.create () in
  let s = Sim.Engine.Stream.create e in
  let gap = 1_000 and frames = 1_430 in
  let last = ref 0 in
  let x = ref 12_345 in
  let next () =
    x := ((!x * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
    !x mod (frames * gap)
  in
  let rec frame () =
    last := !last + gap;
    if streams then Sim.Engine.Stream.schedule_at s !last frame
    else Sim.Engine.schedule_at e !last frame
  in
  let rec other () = Sim.Engine.schedule e (next ()) other in
  for _ = 1 to frames do
    frame ()
  done;
  for _ = 1 to 24 do
    other ()
  done;
  Test.make
    ~name:
      (if streams then "sim/engine-stream-1430+heap-24"
       else "sim/engine-heap-1454")
    (Staged.stage (fun () -> ignore (Sim.Engine.step e)))

(* kv's wheel: 30 entries in the heap (kv's wheel depth, sampled each
   simulated microsecond, is about 29), each a prebuilt callback that
   reschedules itself a random delay ahead. With [~handlers:true] the
   30 callbacks are registered engine handlers, as FPC threads and
   streams are, and are scheduled by id. *)
let test_engine_heap_30 ~handlers =
  let e = Sim.Engine.create () in
  let x = ref 12_345 in
  let next () =
    x := ((!x * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
    1 + (!x land 0xFFFF)
  in
  for _ = 1 to 30 do
    if handlers then begin
      let h = Sim.Engine.register e ignore in
      Sim.Engine.set_handler h (fun () ->
          Sim.Engine.schedule_handler e (next ()) h);
      Sim.Engine.schedule_handler e (next ()) h
    end
    else
      let rec k () = Sim.Engine.schedule e (next ()) k in
      Sim.Engine.schedule e (next ()) k
  done;
  Test.make
    ~name:
      (if handlers then "sim/engine-heap-30-handlers" else "sim/engine-heap-30")
    (Staged.stage (fun () -> ignore (Sim.Engine.step e)))

(* A connection lookup as the datapath and libTOE make it per segment,
   in the direct-indexed table and in the polymorphic Hashtbl it
   replaced. *)
let test_conn_lookup ~dense =
  let n = 64 in
  let table = Nfp.Conn_table.create () and tbl = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Nfp.Conn_table.replace table i (ref i);
    Hashtbl.replace tbl i (ref i)
  done;
  let k = ref 0 in
  Test.make
    ~name:(if dense then "nfp/conn-table-find" else "nfp/hashtbl-find")
    (Staged.stage (fun () ->
         k := (!k + 37) land (n - 1);
         ignore
           (Sys.opaque_identity
              (if dense then Nfp.Conn_table.find_opt table !k
               else Hashtbl.find_opt tbl !k))))

(* One MSS through a host payload buffer as a TX segment takes it:
   libTOE's write, the DMA stage's fetch and the release once it is
   acknowledged. Every segment straddles a chunk boundary, so each
   write maps two spare chunks and each release returns both. *)
let test_payload_buf =
  let b = Host.Payload_buf.create ~size:(256 * 1024) in
  let src = Bytes.make 1448 'm' and dst = Bytes.create 1448 in
  let chunk = Host.Payload_buf.chunk in
  let off = ref (chunk - 724) in
  Test.make ~name:"host/payload-buf-1448B" (Staged.stage (fun () ->
      Host.Payload_buf.write b ~off:!off ~src ~src_off:0 ~len:1448;
      Host.Payload_buf.read_into b ~off:!off ~dst ~dst_off:0 ~len:1448;
      Host.Payload_buf.release b ~upto:(!off + 1448);
      off := !off + chunk))

let test_end_to_end_rpc =
  Test.make ~name:"sim/flextoe-1ms-echo" (Staged.stage (fun () ->
      let engine = Sim.Engine.create () in
      let fabric = Netsim.Fabric.create engine () in
      let server = Flextoe.create_node engine ~fabric ~ip:0x0A000001 () in
      let client = Flextoe.create_node engine ~fabric ~ip:0x0A000002 () in
      let stats = Host.Rpc.Stats.create engine in
      Host.Rpc.server ~endpoint:(Flextoe.endpoint server) ~port:7
        ~app_cycles:100 ~handler:Host.Rpc.echo_handler ();
      ignore
        (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint client)
           ~engine ~server_ip:0x0A000001 ~server_port:7 ~conns:4 ~pipeline:2
           ~req_bytes:64 ~stats ());
      Sim.Engine.run ~until:(Sim.Time.ms 1) engine))

let benchmarks =
  [
    test_checksum;
    test_segment_checksum;
    test_crc32;
    test_wire_roundtrip;
    test_reassembly;
    test_sequencer;
    test_ebpf_splice;
    test_event_queue 67;
    test_event_queue 1430;
    test_event_queue_same_instant;
    test_engine_link ~streams:true;
    test_engine_link ~streams:false;
    test_engine_heap_30 ~handlers:false;
    test_engine_heap_30 ~handlers:true;
    test_conn_lookup ~dense:true;
    test_conn_lookup ~dense:false;
    test_payload_buf;
    test_end_to_end_rpc;
  ]

let run () =
  Common.header "Microbenchmarks (Bechamel; simulator substrate costs)";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          (Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-32s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    benchmarks
