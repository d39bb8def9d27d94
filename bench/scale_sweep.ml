(* PR10 FlexScale sweep and CI regression gate.

   Fig-14-style open-loop connection-scalability sweep on the sharded
   datapath: each point installs F connections (bulk state install,
   bypassing the handshake — the subject here is steady-state per-flow
   state behavior, not connection setup) and offers a fixed open-loop
   load of small data segments round-robin across all F flows — the
   worst case for per-connection state caching, one cache walk per
   segment with no temporal locality. Points run as isolated FlexPar
   cluster LPs (one seeded world per point), so the whole sweep is
   deterministic and parallel.

   Gates ([gate], CI mode via bench/bench_gate.exe scale):

   - completion: every offered segment completes within the horizon at
     every point, up to >= 1M connections;
   - steady-state throughput: mOps at the largest point (shards = 4)
     must stay within 10% of the 16K-connection point — the sharded
     EMEM model has to sustain the offered load when the working set
     is 64x the cache capacity;
   - state footprint: EMEM bytes/flow (peak resident bytes over peak
     resident flows, from the capacity-pressure accounting) must stay
     <= 128 B — the 108 B connection state plus nothing silent;
   - isolation: zero cross-shard connection-state accesses, zero
     forced evictions of pinned (Established) hot state;
   - regression: the 16K point must stay within 5% of the checked-in
     baseline (bench/BENCH_baseline_pr10.json).

   [FLEXSCALE_MAX_CONNS] caps the connection axis (CI runs a reduced
   100K sweep; the full 1M point runs locally / in the scale job). *)

open Common
module F = Flextoe
module R = Bench_record
module Cl = Sim.Engine.Cluster

let shards = 4
let emem_capacity_flows = 262_144 (* cached working set: 64x under 16M DRAM *)
let inject_total = 50_000 (* segments offered per point *)
let inject_gap = Sim.Time.ns 1_000 (* open loop: one segment per us *)
let install_batch = 4_096 (* state installs per 1 us tick *)
let payload_bytes = 32

let default_flows = [ 16_384; 65_536; 262_144; 1_048_576 ]

let conns_cap () =
  match Option.bind (Sys.getenv_opt "FLEXSCALE_MAX_CONNS") int_of_string_opt
  with
  | Some n when n > 0 -> n
  | _ -> max_int

let flow_points () =
  let cap = conns_cap () in
  match List.filter (fun f -> f <= cap) default_flows with
  | [] -> [ min cap (List.hd default_flows) ]
  | fs -> fs

(* Distinct 4-tuples; ports stay in range, IPs advance per block. *)
let flow_of ~ip i =
  {
    Tcp.Flow.local_ip = ip;
    local_port = 7;
    remote_ip = 0x0B000001 + (i / 60_000);
    remote_port = 1_024 + (i mod 60_000);
  }

type point = {
  pt_flows : int;
  pt_dp : F.Datapath.t;
  mutable pt_t0 : Sim.Time.t; (* injection start *)
  mutable pt_t1 : Sim.Time.t; (* last completion observed *)
  mutable pt_done : int; (* rx completions at pt_t1 *)
}

let point_mops pt =
  if pt.pt_done = 0 || pt.pt_t1 <= pt.pt_t0 then 0.
  else
    float_of_int pt.pt_done
    /. (Sim.Time.to_sec (pt.pt_t1 - pt.pt_t0) *. 1e6)

(* Build one sweep point on LP [lp]: bulk-install [flows] connections
   in paced batches, then offer [inject_total] 32 B data segments
   round-robin (each flow's segments in sequence order), polling the
   datapath's RX completion counter for the steady-state clock. *)
let build_point lp ~flows =
  let fabric = Netsim.Fabric.create lp () in
  let ip = ip_server in
  let segs_per_conn = ((inject_total + flows - 1) / flows) + 2 in
  let config =
    {
      F.Config.default with
      F.Config.cc = F.Config.Cc_none;
      cc_interval = Sim.Time.ms 50;
      (* Buffers sized to the point: the RX buffer only ever holds
         this point's undrained payload (the footprint gate measures
         the 108 B EMEM state, not host buffers); the default 256 KB
         would be 512 GB of host memory at 1M connections. *)
      rx_buf_bytes = max 128 (payload_bytes * segs_per_conn);
      tx_buf_bytes = 128;
      scale =
        {
          (F.Config.scale_of shards) with
          F.Config.s_emem_flows = emem_capacity_flows;
        };
    }
  in
  let dp =
    F.Datapath.create lp ~config ~fabric ~mac:(0x020000000000 lor ip) ~ip ()
  in
  let pt =
    {
      pt_flows = flows;
      pt_dp = dp;
      pt_t0 = Sim.Time.zero;
      pt_t1 = Sim.Time.zero;
      pt_done = 0;
    }
  in
  let isn = Tcp.Seq32.of_int 1_000 in
  let installed = ref 0 in
  let num_ctx = F.Datapath.num_ctx dp in
  let seg_frame i pass =
    let flow = flow_of ~ip i in
    let seq = Tcp.Seq32.add isn (1 + (pass * payload_bytes)) in
    let seg =
      Tcp.Segment.make ~flags:Tcp.Segment.flags_ack
        ~payload:(Bytes.make payload_bytes 'S') ~window:0xFFFF
        ~src_ip:flow.Tcp.Flow.remote_ip ~dst_ip:flow.Tcp.Flow.local_ip
        ~src_port:flow.Tcp.Flow.remote_port
        ~dst_port:flow.Tcp.Flow.local_port ~seq
        ~ack_seq:(Tcp.Seq32.add isn 1) ()
    in
    Tcp.Segment.make_frame
      ~src_mac:(0x020000000000 lor flow.Tcp.Flow.remote_ip)
      ~dst_mac:(0x020000000000 lor ip) seg
  in
  let injected = ref 0 in
  let rec poll_done () =
    let st = F.Datapath.stats dp in
    if st.F.Datapath.rx_completed > pt.pt_done then begin
      pt.pt_done <- st.F.Datapath.rx_completed;
      pt.pt_t1 <- Sim.Engine.now lp
    end;
    if pt.pt_done < inject_total then
      Sim.Engine.schedule lp (Sim.Time.us 20) poll_done
  in
  let rec inject () =
    if !injected < inject_total then begin
      let i = !injected mod flows and pass = !injected / flows in
      F.Datapath.reinject_rx dp (seg_frame i pass);
      incr injected;
      Sim.Engine.schedule lp inject_gap inject
    end
  in
  let rec install () =
    let n = min install_batch (flows - !installed) in
    for k = 0 to n - 1 do
      let i = !installed + k in
      let flow = flow_of ~ip i in
      let cs =
        F.Conn_state.create ~idx:(F.Datapath.alloc_conn_idx dp) ~flow
          ~peer_mac:(0x020000000000 lor flow.Tcp.Flow.remote_ip)
          ~flow_group:
            (Tcp.Flow.flow_group flow
               ~groups:config.F.Config.parallelism.F.Config.flow_groups)
          ~tx_isn:isn ~rx_isn:isn ~remote_win:0xFFFF ~opaque:i
          ~ctx_id:(i mod num_ctx)
          ~rx_buf_bytes:config.F.Config.rx_buf_bytes
          ~tx_buf_bytes:config.F.Config.tx_buf_bytes ()
      in
      F.Datapath.install_conn dp cs ~k:(fun () -> ())
    done;
    installed := !installed + n;
    if !installed < flows then Sim.Engine.schedule lp (Sim.Time.us 1) install
    else
      (* Let the install DMAs settle, then open the open-loop tap. *)
      Sim.Engine.schedule lp (Sim.Time.us 50) (fun () ->
          pt.pt_t0 <- Sim.Engine.now lp;
          inject ();
          poll_done ())
  in
  Sim.Engine.schedule_at lp Sim.Time.zero install;
  pt

(* Horizon: paced installs + the open-loop injection window + drain
   slack. Generous — LPs that finish early just go idle. *)
let horizon flows_list =
  let worst = List.fold_left max 1 flows_list in
  Sim.Time.us ((worst / install_batch) + 100)
  + (inject_gap * inject_total) + Sim.Time.ms 20

let sweep () =
  let points = flow_points () in
  let dropped = List.filter (fun f -> not (List.mem f points)) default_flows in
  if dropped <> [] then
    Printf.printf
      "  (FLEXSCALE_MAX_CONNS: dropped %s-connection point(s))\n"
      (String.concat ", " (List.map string_of_int dropped));
  let domains = min 4 (Domain.recommended_domain_count ()) in
  let cl = Cl.create ~seed:10L ~domains () in
  let pts =
    List.map
      (fun flows ->
        let lp =
          Cl.add_lp ~name:(Printf.sprintf "scale%d" flows) ~seed:42L cl
        in
        build_point lp ~flows)
      points
  in
  Cl.run ~until:(horizon points) cl;
  (pts, Cl.workers_used cl)

let print_table pts =
  columns (List.map (fun pt -> string_of_int pt.pt_flows) pts);
  row_of_floats "mOps" (List.map point_mops pts);
  row_of_strings "bytes/flow"
    (List.map
       (fun pt ->
         string_of_int (F.Datapath.emem_bytes_per_flow pt.pt_dp))
       pts);
  row_of_strings "completed"
    (List.map
       (fun pt -> Printf.sprintf "%d/%d" pt.pt_done inject_total)
       pts);
  row_of_strings "cross-shard"
    (List.map
       (fun pt -> string_of_int (F.Datapath.cross_shard_accesses pt.pt_dp))
       pts);
  (* Forced evictions of pinned (Established) state are loud, not
     gated: with a working set far past the cache capacity everything
     resident is hot, so forced evictions are expected — the pin
     guarantee (victims are cold while any cold entry exists) is
     pinned by the eviction-oracle unit tests. *)
  row_of_strings "pinned-evict"
    (List.map
       (fun pt -> string_of_int (F.Datapath.pinned_evictions pt.pt_dp))
       pts)

let run () =
  header
    (Printf.sprintf
       "FlexScale sweep: open-loop mOps vs #connections (shards=%d)" shards);
  let pts, _ = sweep () in
  print_table pts;
  let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
  log_result ~experiment:"scale"
    "%d conns: %.2f mOps = %.2fx the %d-conn point; %d B/flow EMEM state"
    last.pt_flows (point_mops last)
    (point_mops last /. Float.max (point_mops first) 1e-9)
    first.pt_flows
    (F.Datapath.emem_bytes_per_flow last.pt_dp);
  note "per-flow state shards across %d pipelines; misses past the"
    shards;
  note "%d-flow EMEM working set pay the DRAM penalty." emem_capacity_flows

let gate ~baseline ~out () =
  header
    (Printf.sprintf "FlexScale gate: open-loop sweep (shards=%d)" shards);
  let pts, workers = sweep () in
  print_table pts;
  let per name f = R.series name (fun pt -> pt.pt_flows) f pts in
  let key k pt = Printf.sprintf "%s.%d" k pt.pt_flows in
  let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
  R.gate ~baseline ~out
    (R.make ~experiment:"scale_sweep_pr10"
       ~workload:
         (Printf.sprintf
            "open-loop %d x %d B segments round-robin, shards %d, seed 42"
            inject_total payload_bytes shards)
       ~workers
       ((("shards", float_of_int shards) :: per "mops" point_mops)
       @ per "bytes_per_flow" (fun pt ->
             float_of_int (F.Datapath.emem_bytes_per_flow pt.pt_dp))
       @ per "completed" (fun pt -> float_of_int pt.pt_done)
       @ per "cross_shard" (fun pt ->
             float_of_int (F.Datapath.cross_shard_accesses pt.pt_dp))
       @ per "pinned_evictions" (fun pt ->
             float_of_int (F.Datapath.pinned_evictions pt.pt_dp))))
    (List.concat_map
       (fun pt ->
         let name what = Printf.sprintf "%s %d" what pt.pt_flows in
         [
           R.check (name "completion") (Cur (key "completed" pt)) (Ge 1.)
             (Num (float_of_int inject_total));
           R.check (name "bytes/flow") (Cur (key "bytes_per_flow" pt)) Gt
             (Num 0.);
           R.check (name "bytes/flow") (Cur (key "bytes_per_flow" pt)) Le
             (Num 128.);
           R.check (name "isolation") (Cur (key "cross_shard" pt)) Le (Num 0.);
         ])
       pts
    @ [
        R.check "steady-state" (Cur (key "mops" last)) (Ge 0.9)
          (Cur (key "mops" first));
        R.check "baseline" (Cur (key "mops" first)) (Ge 0.95)
          (Base (key "mops" first));
      ])
