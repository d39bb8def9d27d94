(* Odds-and-ends coverage: pcap filters, XDP accounting, config
   presets, cache statistics, stats helpers, trace reset. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- pcap filters --------------------------------------------------- *)

let frame ?(src = 1) ?(dst = 2) ?(sport = 10) ?(dport = 20)
    ?(flags = Tcp.Segment.flags_ack) () =
  let seg =
    Tcp.Segment.make ~flags ~src_ip:src ~dst_ip:dst ~src_port:sport
      ~dst_port:dport ~seq:0 ~ack_seq:0 ()
  in
  Tcp.Segment.make_frame ~src_mac:src ~dst_mac:dst seg

let test_pcap_filters () =
  let open Flextoe.Ext_pcap in
  check_bool "All" true (matches All (frame ()));
  check_bool "Host src" true (matches (Host 1) (frame ()));
  check_bool "Host dst" true (matches (Host 2) (frame ()));
  check_bool "Host miss" false (matches (Host 9) (frame ()));
  check_bool "Src_host dir" false (matches (Src_host 2) (frame ()));
  check_bool "Dst_host dir" true (matches (Dst_host 2) (frame ()));
  check_bool "Port either" true (matches (Port 10) (frame ()));
  check_bool "flag" true (matches (Tcp_flag `Ack) (frame ()));
  check_bool "flag miss" false (matches (Tcp_flag `Syn) (frame ()));
  check_bool "and" true
    (matches (And (Host 1, Port 20)) (frame ()));
  check_bool "or" true (matches (Or (Host 9, Port 20)) (frame ()));
  check_bool "not" false (matches (Not All) (frame ()))

let test_pcap_snaplen_and_limit () =
  let e = Sim.Engine.create () in
  let p = Flextoe.Ext_pcap.create e ~snaplen:32 ~limit:4 () in
  (* Tap directly (the datapath normally calls this). *)
  let dp_dir = Flextoe.Datapath.Dir_rx in
  ignore dp_dir;
  for _ = 1 to 10 do
    (* matches All *)
    ()
  done;
  (* Use attach-less: to_pcap of empty capture has just the header. *)
  check_int "empty pcap = 24B header" 24
    (Bytes.length (Flextoe.Ext_pcap.to_pcap p))

(* --- XDP accounting -------------------------------------------------- *)

let test_xdp_counters () =
  let e = Sim.Engine.create () in
  let x =
    Flextoe.Xdp.create e ~program:(Flextoe.Xdp.null_program ()) ~maps:[||]
  in
  let hook = Flextoe.Xdp.hook x in
  for _ = 1 to 5 do
    ignore (hook.Flextoe.Datapath.xdp_run (frame ()))
  done;
  check_int "runs" 5 (Flextoe.Xdp.runs x);
  check_int "passed" 5 (Flextoe.Xdp.passed x);
  check_int "dropped" 0 (Flextoe.Xdp.dropped x);
  check_bool "instructions counted" true (Flextoe.Xdp.insns_total x >= 10)

(* --- Config presets ---------------------------------------------------- *)

let test_t3_presets_form_a_chain () =
  let open Flextoe.Config in
  check_bool "baseline is unpipelined" true (not t3_baseline.pipelined);
  check_bool "pipelined differs only in that" true
    (t3_pipelined = { t3_baseline with pipelined = true });
  check_bool "threads adds hardware threads" true
    (t3_threads.fpc_threads > t3_pipelined.fpc_threads
    && t3_threads.preproc_replicas = t3_pipelined.preproc_replicas);
  check_bool "replicated adds pre/post replicas" true
    (t3_replicated.preproc_replicas > t3_threads.preproc_replicas
    && t3_replicated.flow_groups = 1);
  check_bool "flow groups add islands" true
    (t3_flow_groups.flow_groups > t3_replicated.flow_groups);
  check_bool "default uses the full configuration" true
    (default.parallelism = t3_flow_groups)

(* --- Cache statistics ----------------------------------------------------- *)

let test_cache_stats_shape () =
  let e = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create e () in
  let n = Flextoe.create_node e ~fabric ~ip:1 () in
  let stats = Flextoe.Datapath.cache_stats (Flextoe.datapath n) in
  (* pre-lookup + 4 CAMs + 4 CLS + emem *)
  check_int "all cache levels reported" 10 (List.length stats);
  check_bool "cold caches" true
    (List.for_all (fun (_, h, m) -> h = 0 && m = 0) stats)

let test_cache_hits_accumulate () =
  let e = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create e () in
  let a = Flextoe.create_node e ~fabric ~ip:1 () in
  let b = Flextoe.create_node e ~fabric ~ip:2 () in
  let stats = Host.Rpc.Stats.create e in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine:e
       ~server_ip:1 ~server_port:7 ~conns:4 ~pipeline:2 ~req_bytes:64
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 10) e;
  let cs = Flextoe.Datapath.cache_stats (Flextoe.datapath a) in
  let total_hits = List.fold_left (fun acc (_, h, _) -> acc + h) 0 cs in
  check_bool "4 hot connections hit the CAMs" true (total_hits > 1000)

(* --- Stats helpers ------------------------------------------------------------ *)

let test_percentile_of_sorted () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "median" 3. (Sim.Stats.percentile_of_sorted a 50.);
  Alcotest.(check (float 1e-9)) "min" 1. (Sim.Stats.percentile_of_sorted a 0.);
  Alcotest.(check (float 1e-9)) "max" 5. (Sim.Stats.percentile_of_sorted a 100.);
  Alcotest.(check (float 1e-9)) "interpolated" 1.04
    (Sim.Stats.percentile_of_sorted a 1.)

let test_trace_reset () =
  let t = Sim.Trace.create () in
  let p = Sim.Trace.register t ~group:"g" "x" in
  ignore (Sim.Trace.enable t ());
  Sim.Trace.hit p;
  check_int "hit" 1 (Sim.Trace.hits p);
  Sim.Trace.reset_counts t;
  check_int "reset" 0 (Sim.Trace.hits p)

(* --- BPF map iteration ----------------------------------------------------------- *)

let test_bpf_map_iter () =
  let m =
    Flextoe.Bpf_map.create Flextoe.Bpf_map.Hash_map ~key_size:2 ~value_size:2
      ~max_entries:8
  in
  List.iter
    (fun k ->
      match
        Flextoe.Bpf_map.update m ~key:(Bytes.of_string k)
          ~value:(Bytes.of_string k)
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ "aa"; "bb"; "cc" ];
  let seen = ref [] in
  Flextoe.Bpf_map.iter (fun k v ->
      check_bool "value matches key" true (Bytes.equal k v);
      seen := Bytes.to_string k :: !seen)
    m;
  Alcotest.(check (list string)) "all entries" [ "aa"; "bb"; "cc" ]
    (List.sort compare !seen)

let suite =
  [
    Alcotest.test_case "pcap filters" `Quick test_pcap_filters;
    Alcotest.test_case "pcap header" `Quick test_pcap_snaplen_and_limit;
    Alcotest.test_case "xdp counters" `Quick test_xdp_counters;
    Alcotest.test_case "Table 3 presets chain" `Quick
      test_t3_presets_form_a_chain;
    Alcotest.test_case "cache stats shape" `Quick test_cache_stats_shape;
    Alcotest.test_case "cache hits accumulate" `Quick
      test_cache_hits_accumulate;
    Alcotest.test_case "percentile of sorted" `Quick
      test_percentile_of_sorted;
    Alcotest.test_case "trace reset" `Quick test_trace_reset;
    Alcotest.test_case "bpf map iteration" `Quick test_bpf_map_iter;
  ]
