(* Golden workload worlds, shared between the sequential golden-trace
   harness (test_golden) and the parallel determinism shard
   (test_par).

   Each [setup_*] builds a complete two-node world — fabric, FlexTOE
   nodes, server, closed-loop client — on a caller-provided engine and
   returns a thunk that digests the delivered streams once the engine
   (or the cluster it belongs to) has run. The same builder therefore
   serves both a solo engine and a Cluster LP: determinism across
   domain counts is checked by comparing the digests these thunks
   produce against the pinned seed constants below.

   The seed digests were captured from the tree BEFORE any batching
   mechanism existed; "strict matches" literally means
   "indistinguishable from the unbatched sequential pipeline". Do not
   update them for a change that claims to preserve batch=1 behavior —
   a mismatch IS the regression. *)

let ip_a = 0x0A000001
let ip_b = 0x0A000002
let conns = 4

let md5 s = Digest.to_hex (Digest.string s)

let cfg ~batch ~scope ~san ~scale =
  {
    Flextoe.Config.default with
    Flextoe.Config.batch;
    (* The digests pin the unguarded pipeline: FLEXGUARD=1 in the
       environment (the churn CI job) must not perturb them. *)
    guard = Flextoe.Config.guard_none;
    san;
    scope =
      (if scope then Flextoe.Config.Scope_metrics
       else Flextoe.Config.Scope_off);
    (* FlexScale: [scale] = shard count, 0 = sharding off entirely.
       The shards=1 world must reproduce the pinned seed digests
       bit-for-bit — the sharded code paths (steering, per-shard
       scheduler queues, pinned caches) may not perturb a
       single-shard pipeline. *)
    scale =
      (if scale <= 0 then Flextoe.Config.scale_none
       else Flextoe.Config.scale_of scale);
  }

type run_result = {
  payload_digest : string;
  strict_digest : string;
  metrics_digest : string;  (* "" unless scope was enabled *)
  ops : int;
  races : int;  (* -1 unless san was enabled *)
}

(* Digest the per-connection streams: conn order is the fixed index
   order, so the digest is deterministic regardless of hash-table
   iteration. *)
let digest_streams streams =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i buf ->
      Buffer.add_string b
        (Printf.sprintf "conn%d:%s\n" i (md5 (Buffer.contents buf))))
    streams;
  md5 (Buffer.contents b)

let finish ~engine ~server ~streams ~ops =
  let dp = Flextoe.datapath server in
  let st = Flextoe.Datapath.stats dp in
  let payload_digest = digest_streams streams in
  let strict =
    Printf.sprintf "payload=%s ops=%d rx=%d tx=%d acks=%d drops=%d events=%d"
      payload_digest ops st.Flextoe.Datapath.rx_segments
      st.Flextoe.Datapath.tx_segments st.Flextoe.Datapath.tx_acks
      st.Flextoe.Datapath.rx_dropped_csum
      (Sim.Engine.events_processed engine)
  in
  let metrics_digest =
    match Flextoe.Datapath.scope dp with
    | Some sc -> md5 (Sim.Json.to_string (Sim.Scope.metrics sc))
    | None -> ""
  in
  let races =
    match Flextoe.Datapath.san dp with
    | Some s -> Flextoe.San.report_count s
    | None -> -1
  in
  { payload_digest; strict_digest = md5 strict; metrics_digest; ops; races }

(* --- Echo workload --------------------------------------------------- *)

(* The engine seed each workload was pinned with; cluster harnesses
   must create their LP with the same seed for bit-identity. *)
let echo_seed = 42L

(* The echo server-plus-closed-loop-clients wiring, parameterized so
   bench/fig14 drives the same setup (multiple client machines,
   paper-sized requests) instead of keeping its own copy. Defaults are
   the pinned golden-world values; [conns] is split evenly across
   [client_eps] (one endpoint = the golden two-node world). The call
   order — server, start_measuring, clients — is part of the pinned
   digests; do not reorder. *)
let echo_workload ?(conns = conns) ?(pipeline = 4) ?(req_bytes = 700)
    ?req_cycles ?(app_cycles = 100) ?on_response ~engine ~server_ip
    ~server_ep ~client_eps ~stats () =
  Host.Rpc.server ~endpoint:server_ep ~port:7 ~app_cycles
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  let per_client = max 1 (conns / List.length client_eps) in
  List.iter
    (fun ep ->
      ignore
        (Host.Rpc.closed_loop_client ~endpoint:ep ~engine ~server_ip
           ~server_port:7 ~conns:per_client ~pipeline ~req_bytes ~stats
           ?on_response ?req_cycles ()))
    client_eps

let setup_echo ?(batch = 1) ?(scope = false) ?(san = false) ?(scale = 0)
    ?(nodes = ref []) ~engine () =
  let fabric = Netsim.Fabric.create engine () in
  let config = cfg ~batch ~scope ~san ~scale in
  let a = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:ip_b () in
  nodes := [ a; b ];
  let stats = Host.Rpc.Stats.create engine in
  let streams = Array.init conns (fun _ -> Buffer.create 4096) in
  echo_workload ~engine ~server_ip:ip_a ~server_ep:(Flextoe.endpoint a)
    ~client_eps:[ Flextoe.endpoint b ] ~stats
    ~on_response:(fun ~conn resp -> Buffer.add_bytes streams.(conn) resp)
    ();
  fun () -> finish ~engine ~server:a ~streams ~ops:(Host.Rpc.Stats.ops stats)

let run_echo ?batch ?scope ?san ?scale () =
  let engine = Sim.Engine.create ~seed:echo_seed () in
  let fin = setup_echo ?batch ?scope ?san ?scale ~engine () in
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  fin ()

(* --- Table 2's tcpdump load ------------------------------------------ *)

(* Table 2's tcpdump row at its load: a capture-enabled 64 B echo from
   four clients of 32 connections (pipeline 8) against a 12-core
   server [config]. The replicated post-processors and DMA FPCs issue
   some of a connection's payload DMAs out of protocol order here,
   hundreds of times per simulated millisecond. Returns the server and
   the echo stats. *)
let setup_capture_load ?config ~engine () =
  let fabric = Netsim.Fabric.create engine () in
  let server =
    Flextoe.create_node engine ~fabric ?config ~app_cores:12 ~ip:ip_a ()
  in
  Flextoe.Ext_pcap.attach
    (Flextoe.Ext_pcap.create engine ~snaplen:96 ~limit:4096
       ~filter:Flextoe.Ext_pcap.All ())
    (Flextoe.datapath server);
  let client_eps =
    List.init 4 (fun i ->
        Flextoe.endpoint
          (Flextoe.create_node engine ~fabric ~app_cores:8
             ~ip:(0x0A000010 + i) ()))
  in
  let stats = Host.Rpc.Stats.create engine in
  echo_workload ~conns:128 ~pipeline:8 ~req_bytes:64 ~req_cycles:150 ~engine
    ~server_ip:ip_a ~server_ep:(Flextoe.endpoint server) ~client_eps ~stats
    ();
  (server, stats)

(* --- KV workload ------------------------------------------------------ *)

let kv_seed = 43L

(* A closed-loop kv client like [Host.App_kv.client], but recording
   every response byte per connection (App_kv's client keeps only
   counters). Deterministic: all randomness from the engine seed. *)
let kv_client ~endpoint ~engine ~server_ip ~server_port ~conns ~pipeline
    ~streams () =
  let rng = Sim.Rng.split (Sim.Engine.Local.rng engine) in
  let key i =
    let s = string_of_int (i mod 512) in
    let b = Bytes.make 16 'k' in
    Bytes.blit_string s 0 b 0 (String.length s);
    b
  in
  let make_request () =
    if Sim.Rng.bool rng 0.3 then
      Host.App_kv.Set (key (Sim.Rng.int rng 512), Bytes.make 64 'v')
    else Host.App_kv.Get (key (Sim.Rng.int rng 512))
  in
  for i = 0 to conns - 1 do
    endpoint.Host.Api.connect ~remote_ip:server_ip ~remote_port:server_port
      ~on_connected:(fun result ->
        match result with
        | Error _ -> ()
        | Ok sock ->
            let decoder = Host.Framing.create () in
            let send_one () =
              Host.Host_cpu.exec sock.Host.Api.core ~category:"app"
                ~cycles:150 (fun () ->
                  let msg =
                    Host.Framing.encode
                      (Host.App_kv.encode_request (make_request ()))
                  in
                  ignore (sock.Host.Api.send msg))
            in
            sock.Host.Api.on_readable <-
              (fun () ->
                let chunk = sock.Host.Api.recv ~max:max_int in
                Host.Framing.push decoder chunk;
                Host.Framing.iter_available decoder (fun resp ->
                    Buffer.add_bytes streams.(i) resp;
                    send_one ()));
            for _ = 1 to pipeline do
              send_one ()
            done)
  done

let setup_kv ?(batch = 1) ?(scope = false) ?(san = false) ?(scale = 0)
    ?(nodes = ref []) ~engine () =
  let fabric = Netsim.Fabric.create engine () in
  let config = cfg ~batch ~scope ~san ~scale in
  let a = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:ip_b () in
  nodes := [ a; b ];
  ignore
    (Host.App_kv.server ~endpoint:(Flextoe.endpoint a) ~port:11211
       ~app_cycles:300 ());
  let streams = Array.init conns (fun _ -> Buffer.create 4096) in
  kv_client ~endpoint:(Flextoe.endpoint b) ~engine ~server_ip:ip_a
    ~server_port:11211 ~conns ~pipeline:4 ~streams ();
  fun () ->
    let ops = Array.fold_left (fun n b -> n + Buffer.length b) 0 streams in
    finish ~engine ~server:a ~streams ~ops

let run_kv ?batch ?scope ?san ?scale () =
  let engine = Sim.Engine.create ~seed:kv_seed () in
  let fin = setup_kv ?batch ?scope ?san ?scale ~engine () in
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  fin ()

(* --- Byte-checked stream ---------------------------------------------- *)

(* The byte at offset [i] of every connection's stream. *)
let stream_byte i = Char.unsafe_chr (((i * 31) + 7) land 0xFF)

type stream_result = {
  run : run_result;
  received : int;  (* stream bytes the sink read, over all connections *)
  corrupt : int;  (* of those, bytes that differ from [stream_byte] *)
}

(* [conns] connections from a client (node b) each stream [total]
   bytes in 16 KB writes into a sink on node a, which checks every
   byte it reads. [loss] is the fabric's random drop probability.
   Unpinned: tests compare its digests across runs of one build. *)
let setup_stream ?(conns = 2) ?(total = 256 * 1024) ?(loss = 0.)
    ?(nodes = ref []) ~engine () =
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric loss;
  let config = cfg ~batch:1 ~scope:false ~san:false ~scale:0 in
  let a = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:ip_b () in
  nodes := [ a; b ];
  let streams = Array.init conns (fun _ -> Buffer.create total) in
  let corrupt = ref 0 and next = ref 0 in
  (Flextoe.endpoint a).Host.Api.listen ~port:5001 ~on_accept:(fun sock ->
      let buf = streams.(!next mod conns) in
      incr next;
      sock.Host.Api.on_readable <-
        (fun () ->
          let data = sock.Host.Api.recv ~max:max_int in
          let off = Buffer.length buf in
          Bytes.iteri
            (fun i c -> if c <> stream_byte (off + i) then incr corrupt)
            data;
          Buffer.add_bytes buf data));
  let chunk = 16 * 1024 in
  for _ = 1 to conns do
    (Flextoe.endpoint b).Host.Api.connect ~remote_ip:ip_a ~remote_port:5001
      ~on_connected:(function
      | Error e -> failwith ("stream connect: " ^ e)
      | Ok sock ->
          let sent = ref 0 in
          let rec push () =
            if !sent < total then begin
              let n = Int.min chunk (total - !sent) in
              let off = !sent in
              let data = Bytes.init n (fun i -> stream_byte (off + i)) in
              let accepted = sock.Host.Api.send data in
              sent := !sent + accepted;
              if accepted = n then push ()
            end
          in
          sock.Host.Api.on_writable <- push;
          push ())
  done;
  fun () ->
    let received = Array.fold_left (fun n b -> n + Buffer.length b) 0 streams in
    {
      run = finish ~engine ~server:a ~streams ~ops:received;
      received;
      corrupt = !corrupt;
    }

(* --- Seed digests ------------------------------------------------------ *)

(* Captured via GOLDEN_PRINT=1 on the sequential harness. Last
   re-pinned when a connection's RX work began finishing in protocol
   order: both worlds hold some notifications behind an earlier
   segment's payload DMA, which shifts their timing. *)
let seed_echo_strict = "2d31885966565dc6b24ea5b209ab6a0e"
let seed_echo_payload = "0ad208ea78dc8286e1d8a5cf9df1059a"
let seed_echo_metrics = "2b4fae03e324478bacd464e690b3fc7d"
let seed_kv_strict = "515d9140a8e5b1df9fa32749704d94f9"
let seed_kv_payload = "d186c0a25ec2b44cf75240b02fed6d6e"
