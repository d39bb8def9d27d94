(* flextoe-sim: run single experiments from the command line.

   Examples:
     flextoe-sim echo --stack flextoe --conns 64 --size 2048 --loss 0.01
     flextoe-sim stream --stack linux --conns 8 --duration-ms 100
     flextoe-sim kv --stack tas --cores 8 *)

open Cmdliner

type stack = S_flextoe | S_linux | S_tas | S_chelsio

let stack_conv =
  let parse = function
    | "flextoe" -> Ok S_flextoe
    | "linux" -> Ok S_linux
    | "tas" -> Ok S_tas
    | "chelsio" -> Ok S_chelsio
    | s -> Error (`Msg ("unknown stack: " ^ s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | S_flextoe -> "flextoe"
      | S_linux -> "linux"
      | S_tas -> "tas"
      | S_chelsio -> "chelsio")
  in
  Arg.conv (parse, print)

let profile_of = function
  | S_linux -> Baselines.Profile.linux
  | S_tas -> Baselines.Profile.tas
  | S_chelsio -> Baselines.Profile.chelsio
  | S_flextoe -> assert false

let mk_node engine fabric stack ~cores ip =
  match stack with
  | S_flextoe ->
      let n =
        Flextoe.create_node engine ~fabric ~app_cores:cores ~ip ()
      in
      (Flextoe.endpoint n, Some n)
  | s ->
      let b =
        Baselines.Stack.create engine ~fabric ~profile:(profile_of s) ~ip
          ~app_cores:cores ()
      in
      (Baselines.Stack.endpoint b, None)

(* FlexScope profile summary + export, for FlexTOE server nodes run
   with --profile. *)
let report_profile ~trace_out ~metrics_out n =
  match Flextoe.scope n with
  | None -> ()
  | Some sc ->
      Flextoe.Flexscope.write_profile ~trace:trace_out ~metrics:metrics_out
        (Flextoe.datapath n);
      Printf.printf "flexscope  : %d events recorded, %d dropped, %d flight dump(s)\n"
        (Sim.Scope.events_recorded sc)
        (Sim.Scope.dropped_events sc)
        (Sim.Scope.flight_dumps sc);
      if Sim.Scope.mode sc = Sim.Scope.Full then
        Printf.printf "trace      : %s\n" trace_out;
      Printf.printf "metrics    : %s\n" metrics_out;
      List.iter
        (fun (name, h) ->
          if String.length name > 6 && String.sub name 0 6 = "stage/" then begin
            let p q =
              match Sim.Stats.Histogram.percentile_opt h q with
              | Some v -> string_of_int v
              | None -> "n/a"
            in
            Printf.printf
              "  %-16s n=%8d  mean=%8.1f cyc  p50=%s p99=%s p999=%s\n"
              (String.sub name 6 (String.length name - 6))
              (Sim.Stats.Histogram.count h)
              (Sim.Stats.Histogram.mean h)
              (p 50.) (p 99.) (p 99.9)
          end)
        (Sim.Scope.histograms sc)

let report stats ~duration_ms ~bulk_bytes =
  Printf.printf "ops        : %d\n" (Host.Rpc.Stats.ops stats);
  Printf.printf "throughput : %.3f mOps, %.2f Gbps goodput\n"
    (Host.Rpc.Stats.mops stats)
    (if bulk_bytes > 0 then
       float_of_int (Host.Rpc.Stats.ops stats * bulk_bytes * 8)
       /. (float_of_int duration_ms /. 1000.)
       /. 1e9
     else Host.Rpc.Stats.gbps stats);
  if Host.Rpc.Stats.ops stats > 0 then begin
    Printf.printf "RTT median : %.1f us\n"
      (Host.Rpc.Stats.rtt_percentile_us stats 50.);
    Printf.printf "RTT 99p    : %.1f us\n"
      (Host.Rpc.Stats.rtt_percentile_us stats 99.);
    Printf.printf "RTT 99.99p : %.1f us\n"
      (Host.Rpc.Stats.rtt_percentile_us stats 99.99)
  end

let run_echo stack conns pipeline size loss duration_ms cores delayed_acks
    profile trace_out metrics_out =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric loss;
  let config =
    { Flextoe.Config.default with Flextoe.Config.delayed_acks;
      scope = profile }
  in
  let mk_node engine fabric stack ~cores ip =
    match stack with
    | S_flextoe ->
        let n =
          Flextoe.create_node engine ~fabric ~config ~app_cores:cores ~ip ()
        in
        (Flextoe.endpoint n, Some n)
    | s ->
        let b =
          Baselines.Stack.create engine ~fabric ~profile:(profile_of s) ~ip
            ~app_cores:cores ()
        in
        (Baselines.Stack.endpoint b, None)
  in
  let server_ep, flex = mk_node engine fabric stack ~cores 0x0A000001 in
  let client_ep, _ = mk_node engine fabric stack ~cores:8 0x0A000002 in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:server_ep ~port:7 ~app_cycles:250
    ~handler:Host.Rpc.echo_handler ();
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:client_ep ~engine
       ~server_ip:0x0A000001 ~server_port:7 ~conns ~pipeline
       ~req_bytes:size ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  Host.Rpc.Stats.start_measuring stats;
  Sim.Engine.run ~until:(Sim.Time.ms (10 + duration_ms)) engine;
  report stats ~duration_ms ~bulk_bytes:0;
  match flex with
  | Some n ->
      let st = Flextoe.Datapath.stats (Flextoe.datapath n) in
      Printf.printf
        "data path  : rx=%d tx=%d acks=%d fast-retx=%d to-control=%d\n"
        st.Flextoe.Datapath.rx_segments st.Flextoe.Datapath.tx_segments
        st.Flextoe.Datapath.tx_acks st.Flextoe.Datapath.fast_retx
        st.Flextoe.Datapath.rx_to_control;
      Printf.printf "caches     : %s\n"
        (String.concat ", "
           (List.filter_map
              (fun (name, h, m) ->
                if h + m = 0 then None
                else
                  Some
                    (Printf.sprintf "%s %.0f%%" name
                       (100. *. float_of_int h /. float_of_int (h + m))))
              (Flextoe.Datapath.cache_stats (Flextoe.datapath n))));
      report_profile ~trace_out ~metrics_out n
  | None -> ()

let run_stream stack conns loss duration_ms cores =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric loss;
  let server_ep, _ = mk_node engine fabric stack ~cores 0x0A000001 in
  let client_ep, _ = mk_node engine fabric stack ~cores:8 0x0A000002 in
  let received = ref 0 in
  server_ep.Host.Api.listen ~port:5001 ~on_accept:(fun sock ->
      sock.Host.Api.on_readable <-
        (fun () ->
          received :=
            !received + Bytes.length (sock.Host.Api.recv ~max:max_int)));
  for _ = 1 to conns do
    client_ep.Host.Api.connect ~remote_ip:0x0A000001 ~remote_port:5001
      ~on_connected:(fun r ->
        match r with
        | Error _ -> ()
        | Ok sock ->
            let chunk = Bytes.make 16384 's' in
            let push () = while sock.Host.Api.send chunk > 0 do () done in
            sock.Host.Api.on_writable <- push;
            push ())
  done;
  Sim.Engine.run ~until:(Sim.Time.ms duration_ms) engine;
  Printf.printf "received   : %d bytes\n" !received;
  Printf.printf "throughput : %.2f Gbps\n"
    (float_of_int (8 * !received) /. (float_of_int duration_ms /. 1000.) /. 1e9)

let run_kv stack conns cores duration_ms profile trace_out metrics_out =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let config = { Flextoe.Config.default with Flextoe.Config.scope = profile } in
  let server_ep, flex =
    match stack with
    | S_flextoe ->
        let n =
          Flextoe.create_node engine ~fabric ~config ~app_cores:cores
            ~ip:0x0A000001 ()
        in
        (Flextoe.endpoint n, Some n)
    | s ->
        let b =
          Baselines.Stack.create engine ~fabric ~profile:(profile_of s)
            ~ip:0x0A000001 ~app_cores:cores ()
        in
        (Baselines.Stack.endpoint b, None)
  in
  let client_ep, _ = mk_node engine fabric S_flextoe ~cores:8 0x0A000002 in
  let stats = Host.Rpc.Stats.create engine in
  ignore (Host.App_kv.server ~endpoint:server_ep ~port:11211 ~app_cycles:890 ());
  Host.App_kv.client ~endpoint:client_ep ~engine ~server_ip:0x0A000001
    ~server_port:11211 ~conns ~pipeline:8 ~key_bytes:32 ~value_bytes:32
    ~set_ratio:0.1 ~stats ();
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  Host.Rpc.Stats.start_measuring stats;
  Sim.Engine.run ~until:(Sim.Time.ms (10 + duration_ms)) engine;
  report stats ~duration_ms ~bulk_bytes:0;
  match flex with
  | Some n -> report_profile ~trace_out ~metrics_out n
  | None -> ()

(* --- Cmdliner plumbing -------------------------------------------------- *)

let stack_t =
  Arg.(value & opt stack_conv S_flextoe & info [ "stack" ] ~doc:"Stack: flextoe|linux|tas|chelsio.")

let conns_t = Arg.(value & opt int 16 & info [ "conns" ] ~doc:"Connections.")
let pipeline_t = Arg.(value & opt int 2 & info [ "pipeline" ] ~doc:"Pipelined RPCs per connection.")
let size_t = Arg.(value & opt int 64 & info [ "size" ] ~doc:"RPC payload bytes.")
let loss_t = Arg.(value & opt float 0. & info [ "loss" ] ~doc:"Uniform random loss probability.")
let duration_t = Arg.(value & opt int 50 & info [ "duration-ms" ] ~doc:"Measured (virtual) milliseconds.")
let cores_t = Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Server application cores.")
let delack_t =
  Arg.(value & flag
       & info [ "delayed-acks" ]
           ~doc:"Enable FlexTOE's delayed-ACK mode (ablation feature).")

let profile_conv =
  let parse = function
    | "off" -> Ok Flextoe.Config.Scope_off
    | "metrics" -> Ok Flextoe.Config.Scope_metrics
    | "full" -> Ok Flextoe.Config.Scope_full
    | s -> Error (`Msg ("unknown profile level: " ^ s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Flextoe.Config.Scope_off -> "off"
      | Flextoe.Config.Scope_metrics -> "metrics"
      | Flextoe.Config.Scope_full -> "full")
  in
  Arg.conv (parse, print)

let profile_t =
  Arg.(
    value
    & opt profile_conv Flextoe.Config.Scope_off
    & info [ "profile" ]
        ~doc:
          "FlexScope profiling for the FlexTOE server node: off|metrics|full. \
           $(b,metrics) records per-stage cycle histograms, counters and \
           utilization series; $(b,full) also buffers Chrome trace_event \
           records (load the JSONL in Perfetto / chrome://tracing).")

let trace_out_t =
  Arg.(
    value
    & opt string "flextoe_trace.jsonl"
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:"Chrome trace_event JSONL output (written with --profile full).")

let metrics_out_t =
  Arg.(
    value
    & opt string "flextoe_metrics.json"
    & info [ "metrics-out" ] ~docv:"PATH"
        ~doc:"Metrics snapshot output (written with --profile on).")

let echo_cmd =
  Cmd.v (Cmd.info "echo" ~doc:"Closed-loop echo RPC benchmark")
    Term.(const run_echo $ stack_t $ conns_t $ pipeline_t $ size_t $ loss_t
          $ duration_t $ cores_t $ delack_t $ profile_t $ trace_out_t
          $ metrics_out_t)

let stream_cmd =
  Cmd.v (Cmd.info "stream" ~doc:"Bulk unidirectional streaming")
    Term.(const run_stream $ stack_t $ conns_t $ loss_t $ duration_t
          $ cores_t)

let kv_cmd =
  Cmd.v (Cmd.info "kv" ~doc:"memcached-style key-value workload")
    Term.(const run_kv $ stack_t $ conns_t $ cores_t $ duration_t
          $ profile_t $ trace_out_t $ metrics_out_t)

let () =
  let info =
    Cmd.info "flextoe-sim" ~version:"1.0.0"
      ~doc:"FlexTOE reproduction: single-experiment simulator driver"
  in
  exit (Cmd.eval (Cmd.group info [ echo_cmd; stream_cmd; kv_cmd ]))
