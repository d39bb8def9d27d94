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
    ~engine () =
  let fabric = Netsim.Fabric.create engine () in
  let config = cfg ~batch ~scope ~san ~scale in
  let a = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:ip_b () in
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

(* --- Seed digests ------------------------------------------------------ *)

(* Captured from the unmodified tree (before any batching code), via
   GOLDEN_PRINT=1 on the sequential harness. *)
let seed_echo_strict = "bd511369406deaef96f92a8d118748ad"
let seed_echo_payload = "2a277c4b87cde33bb32368982d98f12c"
let seed_echo_metrics = "c85f2da43844762cefa887de087bd145"
let seed_kv_strict = "21e9156d5e55d06f16eaaa64ec86fd4e"
let seed_kv_payload = "b2fbd14d1ebc42d27ccebe4524469f24"
