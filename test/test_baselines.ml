(* Baseline-stack model tests: profiles, recovery behaviour
   differences, fast-path placement, and cost scaling. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(loss = 0.) ?(seed = 2L) profile =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric loss;
  let a =
    Baselines.Stack.create engine ~fabric ~profile ~ip:0x0A000001 ()
  in
  let b =
    Baselines.Stack.create engine ~fabric ~profile ~ip:0x0A000002 ()
  in
  (engine, fabric, a, b)

(* Push one bulk transfer through a lossy fabric and report how each
   profile recovered. *)
let transfer ?(loss = 0.) ?(total = 64 * 1024) ?(ms = 300) profile =
  let engine, _, a, b = mk ~loss profile in
  let received = ref 0 in
  (Baselines.Stack.endpoint a).Host.Api.listen ~port:5001
    ~on_accept:(fun sock ->
      sock.Host.Api.on_readable <-
        (fun () ->
          received := !received + Bytes.length (sock.Host.Api.recv ~max:max_int)));
  (Baselines.Stack.endpoint b).Host.Api.connect ~remote_ip:0x0A000001
    ~remote_port:5001
    ~on_connected:(fun r ->
      match r with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok sock ->
          let data = Bytes.make total 'z' in
          let sent = ref 0 in
          let push () =
            if !sent < total then begin
              let n =
                sock.Host.Api.send
                  (Bytes.sub data !sent (min 8192 (total - !sent)))
              in
              sent := !sent + n
            end
          in
          sock.Host.Api.on_writable <- push;
          push ());
  Sim.Engine.run ~until:(Sim.Time.ms ms) engine;
  (!received, Baselines.Stack.retransmits b, Baselines.Stack.rto_fires b)

let test_clean_transfer_all_profiles () =
  List.iter
    (fun p ->
      let received, retx, rtos = transfer p in
      check_int (p.Baselines.Profile.name ^ " complete") (64 * 1024) received;
      check_int (p.Baselines.Profile.name ^ " no retx") 0 retx;
      check_int (p.Baselines.Profile.name ^ " no rtos") 0 rtos)
    [ Baselines.Profile.linux; Baselines.Profile.tas;
      Baselines.Profile.chelsio ]

let test_linux_fast_retransmits_under_loss () =
  let received, retx, _ =
    transfer ~loss:0.02 ~total:(512 * 1024) ~ms:1500
      Baselines.Profile.linux
  in
  check_int "completes despite loss" (512 * 1024) received;
  check_bool "selective-repeat retransmitted" true (retx > 0)

let test_chelsio_rto_only () =
  (* Chelsio never fast-retransmits: every recovery is an RTO. *)
  let received, _, rtos = transfer ~loss:0.02 ~ms:1000
      Baselines.Profile.chelsio in
  check_int "completes eventually" (64 * 1024) received;
  check_bool "recovered via timeouts" true (rtos > 0)

let test_recovery_speed_ordering () =
  (* At the same loss rate, SACK-style Linux recovers in less virtual
     time than RTO-only Chelsio (the Figure 15b mechanism). *)
  let time_to_complete profile =
    let engine, _, a, b = mk ~loss:0.01 ~seed:5L profile in
    let done_at = ref None in
    let total = 512 * 1024 in
    let received = ref 0 in
    (Baselines.Stack.endpoint a).Host.Api.listen ~port:5001
      ~on_accept:(fun sock ->
        sock.Host.Api.on_readable <-
          (fun () ->
            received :=
              !received + Bytes.length (sock.Host.Api.recv ~max:max_int);
            if !received >= total && !done_at = None then
              done_at := Some (Sim.Engine.now engine)));
    (Baselines.Stack.endpoint b).Host.Api.connect ~remote_ip:0x0A000001
      ~remote_port:5001
      ~on_connected:(fun r ->
        match r with
        | Error e -> Alcotest.failf "connect: %s" e
        | Ok sock ->
            let sent = ref 0 in
            let push () =
              if !sent < total then
                sent :=
                  !sent
                  + sock.Host.Api.send
                      (Bytes.make (min 8192 (total - !sent)) 'z')
            in
            sock.Host.Api.on_writable <- push;
            push ());
    Sim.Engine.run ~until:(Sim.Time.sec 5.) engine;
    Option.value ~default:max_int !done_at
  in
  let linux = time_to_complete Baselines.Profile.linux in
  let chelsio = time_to_complete Baselines.Profile.chelsio in
  check_bool "both completed" true (linux < max_int && chelsio < max_int);
  check_bool "SACK beats RTO-only" true (linux < chelsio)

let test_tas_uses_dedicated_cores () =
  let engine, _, a, b = mk Baselines.Profile.tas in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Baselines.Stack.endpoint a) ~port:7
    ~app_cycles:100 ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Baselines.Stack.endpoint b)
       ~engine ~server_ip:0x0A000001 ~server_port:7 ~conns:4 ~pipeline:2
       ~req_bytes:64 ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 20) engine;
  check_bool "RPCs flowed" true (Host.Rpc.Stats.ops stats > 100);
  (* App core 0 must carry no "stack" cycles: the fast path is on the
     dedicated cores (1 app core + 5 fast-path cores in the profile). *)
  let cpu = Baselines.Stack.cpu a in
  check_int "1 + 5 cores" 6 (Host.Host_cpu.cores cpu);
  let app_core_busy = Host.Host_cpu.busy_time (Host.Host_cpu.core cpu 0) in
  let fp_busy = Host.Host_cpu.busy_time (Host.Host_cpu.core cpu 1) in
  check_bool "fast-path cores do stack work" true (fp_busy > 0);
  check_bool "app core also busy" true (app_core_busy > 0)

let test_lock_factor_scales_costs () =
  let p = Baselines.Profile.linux in
  (* The same workload on more cores burns more cycles per segment. *)
  let run cores =
    let engine = Sim.Engine.create () in
    let fabric = Netsim.Fabric.create engine () in
    let a =
      Baselines.Stack.create engine ~fabric ~profile:p ~ip:0x0A000001
        ~app_cores:cores ()
    in
    let b =
      Baselines.Stack.create engine ~fabric ~profile:p ~ip:0x0A000002 ()
    in
    let stats = Host.Rpc.Stats.create engine in
    Host.Rpc.server ~endpoint:(Baselines.Stack.endpoint a) ~port:7
      ~app_cycles:100 ~handler:Host.Rpc.echo_handler ();
    Host.Rpc.Stats.start_measuring stats;
    ignore
      (Host.Rpc.closed_loop_client ~endpoint:(Baselines.Stack.endpoint b)
         ~engine ~server_ip:0x0A000001 ~server_port:7 ~conns:4 ~pipeline:1
         ~req_bytes:64 ~stats ());
    Sim.Engine.run ~until:(Sim.Time.ms 20) engine;
    let stack =
      Option.value ~default:0
        (List.assoc_opt "stack" (Host.Host_cpu.cycles_by_category
                                   (Baselines.Stack.cpu a)))
    in
    float_of_int stack /. float_of_int (max 1 (Host.Rpc.Stats.ops stats))
  in
  let c1 = run 1 and c8 = run 8 in
  check_bool "contention inflates per-request cycles" true (c8 > c1 *. 1.5)

(* A baseline node on another engine than its fabric's would run its
   port's events on the fabric's LP, so construction refuses it. *)
let test_node_on_foreign_engine_refused () =
  let engine = Sim.Engine.create () and other = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  (match
     Baselines.Stack.create other ~fabric ~profile:Baselines.Profile.linux
       ~ip:0x0A000001 ()
   with
  | _ -> Alcotest.fail "a node on another engine was built"
  | exception Invalid_argument _ -> ());
  ignore
    (Baselines.Stack.create engine ~fabric ~profile:Baselines.Profile.linux
       ~ip:0x0A000001 ())

let suite =
  [
    Alcotest.test_case "clean transfers complete (all profiles)" `Quick
      test_clean_transfer_all_profiles;
    Alcotest.test_case "linux fast retransmit" `Quick
      test_linux_fast_retransmits_under_loss;
    Alcotest.test_case "chelsio recovers by RTO only" `Quick
      test_chelsio_rto_only;
    Alcotest.test_case "recovery speed: SACK < RTO-only" `Quick
      test_recovery_speed_ordering;
    Alcotest.test_case "TAS dedicated fast-path cores" `Quick
      test_tas_uses_dedicated_cores;
    Alcotest.test_case "kernel lock contention scaling" `Quick
      test_lock_factor_scales_costs;
    Alcotest.test_case "node on another engine than its fabric's refused"
      `Quick test_node_on_foreign_engine_refused;
  ]
