(* Data-path-level tests: NIC-facing interfaces that the integration
   suite doesn't isolate — connection database, reinjection, context
   queues, semantic tracepoints, and FPC bookkeeping. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip_a = 0x0A000001
let ip_b = 0x0A000002

let mk_pair ?config () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let a = Flextoe.create_node engine ~fabric ?config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ?config ~ip:ip_b () in
  (engine, a, b)

let echo_load engine a b ~conns ~ms =
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns ~pipeline:2 ~req_bytes:256
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms ms) engine;
  stats

let test_has_flow () =
  let engine, a, b = mk_pair () in
  let dp = Flextoe.datapath a in
  let flow =
    Tcp.Flow.v ~local_ip:ip_a ~local_port:7 ~remote_ip:ip_b
      ~remote_port:40_000
  in
  check_bool "unknown before" false (Flextoe.Datapath.has_flow dp flow);
  ignore (echo_load engine a b ~conns:1 ~ms:10);
  (* The CP allocates client ports from 40000 upward. *)
  check_bool "installed after connect" true
    (Flextoe.Datapath.has_flow dp flow)

let test_semantic_tracepoints () =
  let engine, a, b = mk_pair () in
  let dp = Flextoe.datapath a in
  ignore (Sim.Trace.enable (Flextoe.Datapath.traces dp) ());
  ignore (echo_load engine a b ~conns:4 ~ms:20);
  let hits name =
    List.fold_left
      (fun acc p ->
        if Sim.Trace.point_name p = name then acc + Sim.Trace.hits p else acc)
      0
      (Sim.Trace.points (Flextoe.Datapath.traces dp))
  in
  let st = Flextoe.Datapath.stats dp in
  check_bool "rx_seg counted" true (hits "protocol:rx_seg" > 1000);
  check_bool "tx_seg counted" true (hits "protocol:tx_seg" > 1000);
  (* tx_acks also counts HC window updates and ACKs still in flight
     at the horizon; the tracepoint counts RX-generated ones. *)
  let ack_gen = hits "postproc:ack_gen" in
  check_bool "ack tracepoint tracks the wire counter" true
    (abs (st.Flextoe.Datapath.tx_acks - ack_gen) < (ack_gen / 50) + 64);
  check_int "clean network: no ooo" 0 (hits "protocol:ooo_seg");
  check_int "clean network: no fast retx" 0 (hits "protocol:fast_retx")

let test_tracepoints_under_loss () =
  let engine = Sim.Engine.create ~seed:23L () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric 0.02;
  let a = Flextoe.create_node engine ~fabric ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~ip:ip_b () in
  List.iter
    (fun n ->
      ignore (Sim.Trace.enable (Flextoe.Datapath.traces (Flextoe.datapath n)) ()))
    [ a; b ];
  ignore (echo_load engine a b ~conns:16 ~ms:100);
  let hits dp name =
    List.fold_left
      (fun acc p ->
        if Sim.Trace.point_name p = name then acc + Sim.Trace.hits p else acc)
      0
      (Sim.Trace.points (Flextoe.Datapath.traces dp))
  in
  let dpa = Flextoe.datapath a and dpb = Flextoe.datapath b in
  check_bool "loss shows out-of-order arrivals" true
    (hits dpa "protocol:ooo_seg" + hits dpb "protocol:ooo_seg" > 0);
  let sta = Flextoe.Datapath.stats dpa and stb = Flextoe.Datapath.stats dpb in
  check_int "fast-retx tracepoint matches the counter"
    (sta.Flextoe.Datapath.fast_retx + stb.Flextoe.Datapath.fast_retx)
    (hits dpa "protocol:fast_retx" + hits dpb "protocol:fast_retx")

let test_xdp_uninstall_restores () =
  let engine, a, b = mk_pair () in
  let dp = Flextoe.datapath a in
  let fw = Flextoe.Ext_firewall.create engine in
  Flextoe.Ext_firewall.install fw dp;
  Flextoe.Ext_firewall.block fw ~ip:ip_b;
  let stats = echo_load engine a b ~conns:1 ~ms:20 in
  check_int "blocked client got nothing" 0 (Host.Rpc.Stats.ops stats);
  (* Uninstall at run time: the client's retransmissions then get
     through. *)
  Flextoe.Xdp.uninstall dp;
  Sim.Engine.run ~until:(Sim.Time.ms 120) engine;
  check_bool "service restored after uninstall" true
    (Host.Rpc.Stats.ops stats > 50)

let test_fpc_busy_reporting () =
  let engine, a, b = mk_pair () in
  ignore (echo_load engine a b ~conns:8 ~ms:10);
  let busy = Flextoe.Datapath.fpc_busy (Flextoe.datapath a) in
  check_bool "many FPCs listed" true (List.length busy > 20);
  let protos =
    List.filter
      (fun (n, _) -> String.length n >= 5 && String.sub n 0 5 = "proto")
      busy
  in
  check_bool "protocol FPCs did work" true
    (List.exists (fun (_, b) -> b > 0) protos);
  check_bool "rtc FPC idle in pipelined mode" true
    (List.assoc "rtc0" busy = 0)

let rtc_config =
  Flextoe.Config.with_parallelism Flextoe.Config.default
    Flextoe.Config.t3_baseline

let test_rtc_uses_only_rtc_fpc () =
  let engine, a, b = mk_pair ~config:rtc_config () in
  ignore (echo_load engine a b ~conns:2 ~ms:10);
  let busy = Flextoe.Datapath.fpc_busy (Flextoe.datapath a) in
  check_bool "rtc FPC did the work" true (List.assoc "rtc0" busy > 0);
  check_int "protocol FPCs idle in run-to-completion" 0
    (List.assoc "proto0" busy)

(* The run-to-completion baseline shares the pipeline's RX
   post-processing step, so its fast retransmits reach the control
   plane's congestion-control read like the pipeline's do. A sampler
   polls every connection's CC counters far more often than the
   control plane, so most bumps land in its sum. *)
let test_rtc_fast_retx_reaches_cc () =
  let engine = Sim.Engine.create ~seed:23L () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric 0.02;
  let a = Flextoe.create_node engine ~fabric ~config:rtc_config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config:rtc_config ~ip:ip_b () in
  let dps = [ Flextoe.datapath a; Flextoe.datapath b ] in
  let sampled = ref 0 in
  let rec sample () =
    List.iter
      (fun dp ->
        for conn = 0 to 63 do
          let st = Flextoe.Datapath.read_cc_stats dp ~conn in
          sampled := !sampled + st.Flextoe.Datapath.fretx
        done)
      dps;
    Sim.Engine.schedule engine (Sim.Time.us 5) sample
  in
  sample ();
  (* Requests of many segments, so one loss leaves enough segments
     behind it in flight for three duplicate ACKs. *)
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns:4 ~pipeline:2 ~req_bytes:16384
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 50) engine;
  let fast_retx =
    List.fold_left
      (fun n dp -> n + (Flextoe.Datapath.stats dp).Flextoe.Datapath.fast_retx)
      0 dps
  in
  check_bool "loss triggers fast retransmits" true (fast_retx > 0);
  check_bool "fast retransmits reach the CC stats" true (!sampled > 0)

let test_stats_consistency () =
  let engine, a, b = mk_pair () in
  let stats = echo_load engine a b ~conns:8 ~ms:30 in
  let sa = Flextoe.Datapath.stats (Flextoe.datapath a) in
  let sb = Flextoe.Datapath.stats (Flextoe.datapath b) in
  check_bool "ops flowed" true (Host.Rpc.Stats.ops stats > 1000);
  (* On a lossless fabric, what a sends is what b receives (off by the
     segments still in flight at the horizon). *)
  let sent = sa.Flextoe.Datapath.tx_segments + sa.Flextoe.Datapath.tx_acks in
  let seen = sb.Flextoe.Datapath.rx_segments in
  check_bool "conservation a->b" true (abs (sent - seen) < 64);
  check_int "nothing dropped" 0 sa.Flextoe.Datapath.rx_dropped

(* VLAN-tagged ingress: inject 10 tagged copies of a data-path segment
   of an established flow toward [a] and count the frames [a] sends to
   its control plane. Without the strip module tagged frames are not
   data-path segments; with it they are stripped and stay on the data
   path. *)
let vlan_frames_to_control ?config ~with_strip () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let a = Flextoe.create_node engine ~fabric ?config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ?config ~ip:ip_b () in
  if with_strip then begin
    let vs = Flextoe.Ext_vlan.create engine in
    Flextoe.Ext_vlan.install vs (Flextoe.datapath a)
  end;
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:50
    ~handler:Host.Rpc.echo_handler ();
  (* Establish one normal connection first. *)
  let sock = ref None in
  (Flextoe.endpoint b).Host.Api.connect ~remote_ip:ip_a ~remote_port:7
    ~on_connected:(fun r ->
      match r with Ok s -> sock := Some s | Error e -> Alcotest.failf "%s" e);
  Sim.Engine.run ~until:(Sim.Time.ms 2) engine;
  let sock = Option.get !sock in
  ignore (sock.Host.Api.send (Host.Framing.encode (Bytes.make 32 'x')));
  Sim.Engine.run ~until:(Sim.Time.ms 5) engine;
  let cs = Option.get (Flextoe.Datapath.conn (Flextoe.datapath b) 0) in
  let flow = cs.Flextoe.Conn_state.flow in
  let seg =
    Tcp.Segment.make ~flags:Tcp.Segment.flags_ack ~payload:Bytes.empty
      ~src_ip:flow.Tcp.Flow.local_ip ~dst_ip:flow.Tcp.Flow.remote_ip
      ~src_port:flow.Tcp.Flow.local_port ~dst_port:flow.Tcp.Flow.remote_port
      ~seq:
        (Flextoe.Conn_state.tx_seq_of_pos cs
           cs.Flextoe.Conn_state.proto.Flextoe.Conn_state.tx_next_pos)
      ~ack_seq:
        (Tcp.Reassembly.next
           cs.Flextoe.Conn_state.proto.Flextoe.Conn_state.reasm)
      ()
  in
  let tagged =
    Tcp.Segment.make_frame ~vlan:(Some 7)
      ~src_mac:(Flextoe.mac_of_ip ip_b) ~dst_mac:(Flextoe.mac_of_ip ip_a) seg
  in
  let port = Flextoe.Datapath.fabric_port (Flextoe.datapath b) in
  let to_control () =
    (Flextoe.Datapath.stats (Flextoe.datapath a)).Flextoe.Datapath
      .rx_to_control
  in
  let before = to_control () in
  for _ = 1 to 10 do
    Netsim.Fabric.transmit port tagged
  done;
  Sim.Engine.run ~until:(Sim.Time.ms 8) engine;
  to_control () - before

let test_rtc_vlan_to_control () =
  check_bool "tagged frames detour in run-to-completion" true
    (vlan_frames_to_control ~config:rtc_config ~with_strip:false () >= 10)

(* Table 2's tcpdump load, in a short window. The host must be told
   only of bytes that have landed: a notification that overtook an
   earlier segment's payload DMA let libTOE read and release that
   segment's range, and the late DMA then wrote into released buffer
   memory. *)
let test_rx_order_under_capture () =
  let engine = Sim.Engine.create ~seed:42L () in
  let _, stats = Golden_worlds.setup_capture_load ~engine () in
  Sim.Engine.run ~until:(Sim.Time.ms 3) engine;
  check_bool "echo load ran" true (Host.Rpc.Stats.ops stats > 10_000)

(* The same load, with half of the server's connections torn down
   under it, one every 200 ns: verdicts still in the pipeline reach a
   post-processor that no longer finds their connection, and must
   still release their ACK's egress slot. One left held would stall
   the egress of every connection. *)
let test_rx_vanished_conn_releases_egress () =
  let engine = Sim.Engine.create ~seed:42L () in
  let server, stats = Golden_worlds.setup_capture_load ~engine () in
  let dp = Flextoe.datapath server in
  Sim.Engine.run ~until:(Sim.Time.ms 1) engine;
  let live =
    List.filter
      (fun i -> Flextoe.Datapath.conn dp i <> None)
      (List.init 256 Fun.id)
  in
  check_bool "connections installed" true (List.length live > 64);
  List.iteri
    (fun n conn ->
      if n mod 2 = 0 then begin
        Sim.Engine.run ~until:(Sim.Time.ms 1 + Sim.Time.ns (200 * n)) engine;
        Flextoe.Datapath.remove_conn dp ~conn
      end)
    live;
  let before = Host.Rpc.Stats.ops stats in
  Sim.Engine.run ~until:(Sim.Time.ms 2) engine;
  let mid = Host.Rpc.Stats.ops stats in
  Sim.Engine.run ~until:(Sim.Time.ms 3) engine;
  let after = Host.Rpc.Stats.ops stats in
  check_bool "the other connections keep completing" true
    (after - mid > (mid - before) / 2 && after - mid > 1_000);
  check_bool "an RX verdict found its connection gone" true
    ((Flextoe.Datapath.stats dp).Flextoe.Datapath.rx_vanished > 0)

(* The tracepoints are the pipeline rows' own: each row's group is the
   row's name, and enabling one group charges exactly that stage
   [tracepoint] cycles per point on every execution, which its
   FlexScope span shows. *)
let test_tracepoints_belong_to_rows () =
  let module P = Flextoe.Pipeline in
  let rows = List.map P.name P.builtin in
  let points (dp : Flextoe.Datapath.t) =
    Sim.Trace.points (Flextoe.Datapath.traces dp)
  in
  let group p =
    let n = Sim.Trace.point_name p in
    String.sub n 0 (String.index n ':')
  in
  let _, a, _ = mk_pair () in
  let all = points (Flextoe.datapath a) in
  check_int "48 tracepoints" 48 (List.length all);
  List.iter
    (fun p ->
      check_bool (Sim.Trace.point_name p ^ " is a row's or the CP's") true
        (List.mem (group p) ("cp" :: rows)))
    all;
  let config =
    { Flextoe.Config.default with
      Flextoe.Config.scope = Flextoe.Config.Scope_metrics }
  in
  let min_cycles ?group () =
    let engine, a, b = mk_pair ~config () in
    let dp = Flextoe.datapath a in
    Option.iter
      (fun group ->
        ignore (Sim.Trace.enable (Flextoe.Datapath.traces dp) ~group ()))
      group;
    ignore (echo_load engine a b ~conns:4 ~ms:4);
    let sc = Option.get (Flextoe.Datapath.scope dp) in
    List.filter_map
      (fun (name, h) ->
        match String.split_on_char '/' name with
        | [ "stage"; stage ] -> Some (stage, Sim.Stats.Histogram.min h)
        | _ -> None)
      (Sim.Scope.histograms sc)
  in
  let base = min_cycles () in
  let tracepoint = config.Flextoe.Config.costs.Flextoe.Config.tracepoint in
  let spans = List.filter (fun s -> List.mem_assoc (P.name s) base) P.builtin in
  check_int "stages with spans" 7 (List.length spans);
  List.iter
    (fun s ->
      let name = P.name s in
      let traced = min_cycles ~group:name () in
      check_int
        (name ^ ": minimum span cycles rise by its points' charge")
        (List.assoc name base + (tracepoint * List.length s.P.s_points))
        (List.assoc name traced))
    spans

(* --- First transmissions by reference ---------------------------------- *)

let sum_stats nodes f =
  List.fold_left
    (fun n node -> n + f (Flextoe.Datapath.stats (Flextoe.datapath node)))
    0 nodes

let deferred nodes = sum_stats nodes (fun st -> st.Flextoe.Datapath.tx_deferred)
let copied nodes = sum_stats nodes (fun st -> st.Flextoe.Datapath.tx_copied)

(* A pass-through fault hook on a port makes the fabric build every
   frame it sends or receives before the hook sees it: the eager path
   the by-reference one must be indistinguishable from. *)
let pass_through nodes =
  List.iter
    (fun node ->
      let port = Flextoe.Datapath.fabric_port (Flextoe.datapath node) in
      Netsim.Fabric.set_tx_fault port (Some (fun f k -> k f));
      Netsim.Fabric.set_rx_fault port (Some (fun f k -> k f)))
    nodes

let run_world ~hooks ~seed ~ms setup =
  let engine = Sim.Engine.create ~seed () in
  let nodes = ref [] in
  let fin = setup ~nodes ~engine in
  if hooks then pass_through !nodes;
  Sim.Engine.run ~until:(Sim.Time.ms ms) engine;
  (fin (), !nodes)

let test_tx_by_reference_equivalent () =
  let module W = Golden_worlds in
  let digests (r : W.run_result) = (r.W.payload_digest, r.W.strict_digest) in
  let check name ~seed ~ms setup =
    let lazy_run, lazy_nodes = run_world ~hooks:false ~seed ~ms setup in
    let eager_run, eager_nodes = run_world ~hooks:true ~seed ~ms setup in
    let lazy_p, lazy_s = digests lazy_run in
    let eager_p, eager_s = digests eager_run in
    Alcotest.(check string) (name ^ ": payload digest") eager_p lazy_p;
    Alcotest.(check string) (name ^ ": strict digest") eager_s lazy_s;
    check_bool (name ^ ": frames went by reference") true
      (deferred lazy_nodes > 0);
    check_int (name ^ ": hooks force every frame eager") 0
      (deferred eager_nodes);
    check_int (name ^ ": every data frame counted once")
      (deferred lazy_nodes + copied lazy_nodes)
      (copied eager_nodes)
  in
  check "echo" ~seed:W.echo_seed ~ms:10 (fun ~nodes ~engine ->
      W.setup_echo ~nodes ~engine ());
  check "kv" ~seed:W.kv_seed ~ms:10 (fun ~nodes ~engine ->
      W.setup_kv ~nodes ~engine ());
  check "stream" ~seed:5L ~ms:3 (fun ~nodes ~engine ->
      let fin = W.setup_stream ~nodes ~engine () in
      fun () ->
        let r = fin () in
        check_int "stream: every byte arrived" (2 * 256 * 1024) r.W.received;
        check_int "stream: no corrupt byte" 0 r.W.corrupt;
        r.W.run)

(* Over a lossy fabric, fast retransmit and go-back-N resend bytes
   whose first copy is still queued in the fabric. Those resends copy
   their payload at the DMA stage: by the time one is delivered, the
   ACK for its first copy may have released the bytes. *)
let test_tx_retransmissions_copy () =
  let module W = Golden_worlds in
  let engine = Sim.Engine.create ~seed:9L () in
  let nodes = ref [] in
  let fin = W.setup_stream ~conns:4 ~loss:0.01 ~nodes ~engine () in
  Sim.Engine.run ~until:(Sim.Time.ms 60) engine;
  let r = fin () in
  check_int "every byte arrived" (4 * 256 * 1024) r.W.received;
  check_int "no corrupt byte" 0 r.W.corrupt;
  check_bool "loss caused fast retransmits" true
    (sum_stats !nodes (fun st -> st.Flextoe.Datapath.fast_retx) > 0);
  check_bool "retransmissions were copied" true (copied !nodes > 0);
  check_bool "first transmissions went by reference" true
    (deferred !nodes > 0)

(* Eight connections stream at link rate, so about a thousand frames
   wait in the sender's fabric port at any time. A first transmission
   waiting there must hold no heap block of its own, or each one lives
   long enough to be promoted out of the minor heap. The ratio is
   taken over simulated 1 to 6 ms, past the connections' set-up. *)
let test_stream_promotion_budget () =
  let module W = Golden_worlds in
  let engine = Sim.Engine.create ~seed:7L () in
  let nodes = ref [] in
  let total = 4 * 1024 * 1024 in
  let fin = W.setup_stream ~conns:8 ~total ~nodes ~engine () in
  Sim.Engine.run ~until:(Sim.Time.ms 1) engine;
  let g0 = Gc.quick_stat () in
  Sim.Engine.run ~until:(Sim.Time.ms 6) engine;
  let g1 = Gc.quick_stat () in
  Sim.Engine.run ~until:(Sim.Time.ms 12) engine;
  let r = fin () in
  check_int "every byte arrived" (8 * total) r.W.received;
  check_int "no corrupt byte" 0 r.W.corrupt;
  check_bool "first transmissions went by reference" true
    (deferred !nodes > 0);
  let ratio =
    (g1.Gc.promoted_words -. g0.Gc.promoted_words)
    /. (g1.Gc.minor_words -. g0.Gc.minor_words)
  in
  if ratio > 0.025 then
    Alcotest.failf "promoted/minor words %.3f over 1-6 ms (bound 0.025)" ratio

(* A node runs its port's events on its fabric's engine: one built on
   another LP (here, the second LP of a cluster) would race with the
   fabric's LP across domains, so construction refuses it. *)
let test_node_on_foreign_engine_refused () =
  let cl = Sim.Engine.Cluster.create () in
  let home = Sim.Engine.Cluster.add_lp cl in
  let other = Sim.Engine.Cluster.add_lp cl in
  let fabric = Netsim.Fabric.create home () in
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s: a node on another engine was built" name
    | exception Invalid_argument _ -> ()
  in
  refused "Flextoe.create_node" (fun () ->
      Flextoe.create_node other ~fabric ~ip:ip_a ());
  refused "Datapath.create" (fun () ->
      Flextoe.Datapath.create other ~config:Flextoe.Config.default ~fabric
        ~mac:(Flextoe.mac_of_ip ip_a) ~ip:ip_a ());
  let node = Flextoe.create_node home ~fabric ~ip:ip_a () in
  check_bool "a node on the fabric's engine is built" true
    (Flextoe.Datapath.engine (Flextoe.datapath node) == home)

let suite =
  [
    Alcotest.test_case "connection database lookup" `Quick test_has_flow;
    Alcotest.test_case "node on another engine than its fabric's refused"
      `Quick test_node_on_foreign_engine_refused;
    Alcotest.test_case "stream promotion budget" `Quick
      test_stream_promotion_budget;
    Alcotest.test_case "TX by reference equals eager TX" `Quick
      test_tx_by_reference_equivalent;
    Alcotest.test_case "TX retransmissions copy under loss" `Quick
      test_tx_retransmissions_copy;
    Alcotest.test_case "semantic tracepoints (clean)" `Quick
      test_semantic_tracepoints;
    Alcotest.test_case "semantic tracepoints (loss)" `Quick
      test_tracepoints_under_loss;
    Alcotest.test_case "XDP uninstall restores service" `Quick
      test_xdp_uninstall_restores;
    Alcotest.test_case "fpc busy reporting" `Quick test_fpc_busy_reporting;
    Alcotest.test_case "run-to-completion placement" `Quick
      test_rtc_uses_only_rtc_fpc;
    Alcotest.test_case "run-to-completion fast retx reaches CC" `Quick
      test_rtc_fast_retx_reaches_cc;
    Alcotest.test_case "run-to-completion VLAN frames to control" `Quick
      test_rtc_vlan_to_control;
    Alcotest.test_case "segment conservation" `Quick test_stats_consistency;
    Alcotest.test_case "RX notifications in protocol order under capture"
      `Quick test_rx_order_under_capture;
    Alcotest.test_case "RX of a vanished connection releases its egress slot"
      `Quick test_rx_vanished_conn_releases_egress;
    Alcotest.test_case "tracepoints belong to pipeline rows" `Quick
      test_tracepoints_belong_to_rows;
  ]

let test_vlan_ingress () =
  check_bool "tagged frames detour without strip" true
    (vlan_frames_to_control ~with_strip:false () >= 10);
  check_int "stripped frames stay on the data path" 0
    (vlan_frames_to_control ~with_strip:true ())

let vlan_suite =
  [ Alcotest.test_case "VLAN ingress with/without strip module" `Quick
      test_vlan_ingress ]
