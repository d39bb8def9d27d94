(* End-to-end fault injection: the named chaos schedules must be
   survivable — every byte arrives intact and in order, no connection
   wedges or aborts — with the recovery machinery (checksum drops,
   RTO backoff, DMA retries) doing the work, and all of it exactly
   reproducible from the seed. *)

module F = Netsim.Faults

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Byte at stream offset [i]; identical for every connection, since
   the server's accept order need not match the client's connect order
   (reordering faults can scramble SYN arrivals). The [i / 253] term
   keeps the period from dividing the receive-ring size, so a lost
   byte can never alias to identical stale ring contents. *)
let pattern i = Char.chr ((i * 131 + (i / 253) + 7) land 0xFF)

type world = {
  engine : Sim.Engine.t;
  fabric : Netsim.Fabric.t;
  server : Flextoe.t;
  client : Flextoe.t;
  chains : F.t list;
}

let ip_server = 0x0A000001
let ip_client = 0x0A000002

let node_port n = Flextoe.Datapath.fabric_port (Flextoe.datapath n)

(* Build two FlexTOE nodes with the given fault schedule attached to
   both receive directions (one chain per path, split seeds). *)
let mk_world ?(seed = 7L) ?(fault_seed = 101) ~specs () =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Netsim.Fabric.create engine () in
  let server = Flextoe.create_node engine ~fabric ~app_cores:2 ~ip:ip_server () in
  let client = Flextoe.create_node engine ~fabric ~app_cores:2 ~ip:ip_client () in
  let chains =
    if specs = [] then []
    else
      List.mapi
        (fun i n ->
          let f =
            F.create engine ~seed:(Int64.of_int (fault_seed + i)) specs
          in
          F.attach_rx f (node_port n);
          f)
        [ server; client ]
  in
  { engine; fabric; server; client; chains }

let csum_drops w =
  let d n =
    (Flextoe.Datapath.stats (Flextoe.datapath n)).Flextoe.Datapath
      .rx_dropped_csum
  in
  d w.server + d w.client

let total_aborts w =
  Flextoe.Control_plane.retransmit_aborts (Flextoe.control w.server)
  + Flextoe.Control_plane.retransmit_aborts (Flextoe.control w.client)
  + Flextoe.Libtoe.sockets_aborted (Flextoe.libtoe w.server)
  + Flextoe.Libtoe.sockets_aborted (Flextoe.libtoe w.client)

(* Bulk integrity workload: [conns] connections each push
   [bytes_per_conn] patterned bytes; the server verifies every byte at
   its stream offset. Returns (per-conn received, integrity errors). *)
let start_bulk w ~conns ~bytes_per_conn =
  let received = Array.make conns 0 in
  let errors = ref 0 in
  let next_id = ref 0 in
  let sep = Flextoe.endpoint w.server in
  let cep = Flextoe.endpoint w.client in
  sep.Host.Api.listen ~port:7 ~on_accept:(fun sock ->
      let id = !next_id in
      incr next_id;
      sock.Host.Api.on_readable <-
        (fun () ->
          let b = sock.Host.Api.recv ~max:max_int in
          let len = Bytes.length b in
          let off = received.(id) in
          for i = 0 to len - 1 do
            if Bytes.get b i <> pattern (off + i) then incr errors
          done;
          received.(id) <- off + len));
  for _conn = 0 to conns - 1 do
    cep.Host.Api.connect ~remote_ip:ip_server ~remote_port:7
      ~on_connected:(fun result ->
        match result with
        | Error e -> failwith ("connect failed: " ^ e)
        | Ok sock ->
            let sent = ref 0 in
            let push () =
              let progress = ref true in
              while !sent < bytes_per_conn && !progress do
                let n = min 8192 (bytes_per_conn - !sent) in
                let chunk =
                  Bytes.init n (fun i -> pattern (!sent + i))
                in
                let accepted = sock.Host.Api.send chunk in
                if accepted > 0 then sent := !sent + accepted
                else progress := false
              done;
              if !sent >= bytes_per_conn then sock.Host.Api.close ()
            in
            sock.Host.Api.on_writable <- push;
            push ())
  done;
  (received, errors)

(* Run until every connection delivered everything, or [deadline]. *)
let run_until_complete w ~received ~bytes_per_conn ~deadline =
  let complete () = Array.for_all (fun r -> r >= bytes_per_conn) received in
  while
    (not (complete ()))
    && Sim.Engine.now w.engine < deadline
  do
    Sim.Engine.run
      ~until:(Sim.Engine.now w.engine + Sim.Time.ms 5)
      w.engine
  done;
  complete ()

let bulk_under ?seed ?fault_seed ~specs ~conns ~bytes_per_conn ~deadline () =
  let w = mk_world ?seed ?fault_seed ~specs () in
  let received, errors = start_bulk w ~conns ~bytes_per_conn in
  let complete = run_until_complete w ~received ~bytes_per_conn ~deadline in
  (w, complete, !errors)

let assert_survived name (w, complete, errors) =
  check_bool (name ^ ": all bytes eventually delivered") true complete;
  check_int (name ^ ": zero corrupted bytes delivered") 0 errors;
  check_int (name ^ ": zero aborted connections") 0 (total_aborts w);
  w

(* --- Named schedules --------------------------------------------------- *)

let test_bursty_loss () =
  let w =
    assert_survived "bursty-loss"
      (bulk_under ~specs:(F.named "bursty-loss") ~conns:4
         ~bytes_per_conn:300_000 ~deadline:(Sim.Time.ms 500) ())
  in
  let drops = List.fold_left (fun a f -> a + F.dropped_loss f) 0 w.chains in
  check_bool "bursty-loss: losses were injected" true (drops > 0);
  check_int "bursty-loss: no checksum drops" 0 (csum_drops w)

let test_reorder_heavy () =
  let w =
    assert_survived "reorder-heavy"
      (bulk_under ~specs:(F.named "reorder-heavy") ~conns:4
         ~bytes_per_conn:300_000 ~deadline:(Sim.Time.ms 300) ())
  in
  let reordered = List.fold_left (fun a f -> a + F.reordered f) 0 w.chains in
  let duplicated = List.fold_left (fun a f -> a + F.duplicated f) 0 w.chains in
  check_bool "reorder-heavy: frames were held back" true (reordered > 0);
  check_bool "reorder-heavy: frames were duplicated" true (duplicated > 0);
  check_int "reorder-heavy: no checksum drops" 0 (csum_drops w)

let test_corruption () =
  let w =
    assert_survived "corruption"
      (bulk_under ~specs:(F.named "corruption") ~conns:8
         ~bytes_per_conn:2_000_000 ~deadline:(Sim.Time.ms 300) ())
  in
  let corrupted = List.fold_left (fun a f -> a + F.corrupted f) 0 w.chains in
  check_bool "corruption: bit flips were injected" true (corrupted > 0);
  (* Every corrupted frame must be caught at RX pre-processing — none
     may reach the protocol stage (the zero-errors check above) and
     none may vanish unnoticed. *)
  check_int "corruption: every corrupted frame dropped by checksum"
    corrupted (csum_drops w)

let test_jitter () =
  let w =
    assert_survived "jitter"
      (bulk_under ~specs:(F.named "jitter") ~conns:4 ~bytes_per_conn:200_000
         ~deadline:(Sim.Time.ms 500) ())
  in
  let delayed = List.fold_left (fun a f -> a + F.delayed f) 0 w.chains in
  check_bool "jitter: frames were delayed" true (delayed > 0)

let test_dma_flaky () =
  let w = mk_world ~specs:[] () in
  List.iter
    (fun n ->
      Nfp.Dma.set_fault
        (Flextoe.Datapath.dma_engine (Flextoe.datapath n))
        ~rate:0.01 ())
    [ w.server; w.client ];
  let received, errors = start_bulk w ~conns:4 ~bytes_per_conn:300_000 in
  let complete =
    run_until_complete w ~received ~bytes_per_conn:300_000
      ~deadline:(Sim.Time.ms 300)
  in
  ignore (assert_survived "dma-flaky" (w, complete, !errors));
  let faults n =
    Nfp.Dma.faults_injected (Flextoe.Datapath.dma_engine (Flextoe.datapath n))
  in
  let retries n =
    Nfp.Dma.retries (Flextoe.Datapath.dma_engine (Flextoe.datapath n))
  in
  let exhausted n =
    Nfp.Dma.retries_exhausted
      (Flextoe.Datapath.dma_engine (Flextoe.datapath n))
  in
  check_bool "dma-flaky: failures were injected" true
    (faults w.server + faults w.client > 0);
  check_int "dma-flaky: every failure retried, none exhausted" 0
    (exhausted w.server + exhausted w.client);
  check_int "dma-flaky: retries account for all failures"
    (faults w.server + faults w.client)
    (retries w.server + retries w.client)

(* --- Blackout and RTO backoff ------------------------------------------ *)

(* The named blackout (8-13 ms) under a continuous echo workload: the
   stack must stall, retransmit with backed-off timers, and resume —
   never abort. *)
let test_blackout_recovery () =
  let w = mk_world ~specs:(F.named "blackout") () in
  let stats = Host.Rpc.Stats.create w.engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint w.server) ~port:7
    ~app_cycles:100 ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint w.client)
       ~engine:w.engine ~server_ip:ip_server ~server_port:7 ~conns:4
       ~pipeline:4 ~req_bytes:512 ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 8) w.engine;
  let ops_before = Host.Rpc.Stats.ops stats in
  Sim.Engine.run ~until:(Sim.Time.ms 13) w.engine;
  let ops_blackout = Host.Rpc.Stats.ops stats in
  Sim.Engine.run ~until:(Sim.Time.ms 30) w.engine;
  let ops_after = Host.Rpc.Stats.ops stats in
  check_bool "blackout: traffic flowed before" true (ops_before > 0);
  check_bool "blackout: traffic resumed after" true
    (ops_after > ops_blackout);
  check_bool "blackout: RTO retransmissions fired" true
    (Flextoe.Control_plane.retransmit_timeouts (Flextoe.control w.client) > 0
    || Flextoe.Control_plane.retransmit_timeouts (Flextoe.control w.server)
       > 0);
  check_int "blackout: no aborts" 0 (total_aborts w);
  (* Recovery within one (backed-off) RTO of the link returning: with
     base 2 ms doubling from t=8ms, the worst pre-recovery gap ends
     well before 13 + 32 ms. *)
  let recovered_by = Sim.Time.ms 45 in
  Sim.Engine.run ~until:recovered_by w.engine;
  check_bool "blackout: ops keep accumulating" true
    (Host.Rpc.Stats.ops stats > ops_after)

(* A long outage exposes the exponential backoff: consecutive RTO
   firings for the same connection must at least double their spacing
   until the cap, and the flow must recover when the link returns. *)
let test_rto_backoff_doubles () =
  (* The blackout must open while the transfer is still in flight:
     4 MB takes ~1 ms of wire time, the link dies 500 us in. *)
  let w =
    mk_world
      ~specs:
        [
          F.Blackout
            {
              start = Sim.Time.us 500;
              duration = Sim.Time.ms 40;
              period = None;
            };
        ]
      ()
  in
  (* The world has one connection, so each rise of the client's
     timeout count is one firing of its RTO. A 10 us poll dates every
     firing to within 10 us. *)
  let cp = Flextoe.control w.client in
  let firings = ref [] and seen = ref 0 in
  let rec poll () =
    let n = Flextoe.Control_plane.retransmit_timeouts cp in
    if n > !seen then begin
      seen := n;
      firings := Sim.Engine.now w.engine :: !firings
    end;
    Sim.Engine.schedule w.engine (Sim.Time.us 10) poll
  in
  poll ();
  let received, errors = start_bulk w ~conns:1 ~bytes_per_conn:4_000_000 in
  let complete =
    run_until_complete w ~received ~bytes_per_conn:4_000_000
      ~deadline:(Sim.Time.ms 300)
  in
  check_bool "backoff: transfer completed after outage" true complete;
  check_int "backoff: no corruption" 0 !errors;
  check_int "backoff: no aborts" 0 (total_aborts w);
  let events = List.rev !firings in
  check_bool "backoff: several RTOs during the outage" true
    (List.length events >= 3);
  (* Gaps between consecutive firings must grow (doubling, modulo the
     50 us control-loop quantisation and the poll) up to the cap. *)
  let rec gaps = function
    | t1 :: (t2 :: _ as rest) -> (t2 - t1) :: gaps rest
    | _ -> []
  in
  let gs = gaps events in
  let slack = Sim.Time.us 200 in
  List.iteri
    (fun i (g1, g2) ->
      check_bool
        (Printf.sprintf "backoff: gap %d grows (%d -> %d ps)" i g1 g2)
        true
        (g2 + slack >= min (2 * g1) (Sim.Time.ms 32)))
    (List.combine
       (List.filteri (fun i _ -> i < List.length gs - 1) gs)
       (List.tl gs))

(* A permanent outage must exhaust the retries and abort: the control
   plane tears the flow down and the application hears about it. *)
let test_permanent_outage_aborts () =
  let w =
    mk_world
      ~specs:
        [
          F.Blackout
            {
              start = Sim.Time.ms 2;
              duration = Sim.Time.sec 10.;
              period = None;
            };
        ]
      ()
  in
  let errored = ref 0 in
  let sep = Flextoe.endpoint w.server in
  let cep = Flextoe.endpoint w.client in
  sep.Host.Api.listen ~port:7 ~on_accept:(fun _ -> ());
  cep.Host.Api.connect ~remote_ip:ip_server ~remote_port:7
    ~on_connected:(fun result ->
      match result with
      | Error _ -> ()
      | Ok sock ->
          sock.Host.Api.on_error <- (fun () -> incr errored);
          (* Send only once the link is already dark, so the data is
             guaranteed to be unacknowledged when the timers run. *)
          Sim.Engine.schedule_at w.engine (Sim.Time.ms 3) (fun () ->
              ignore (sock.Host.Api.send (Bytes.make 20_000 'x'))));
  Sim.Engine.run ~until:(Sim.Time.ms 400) w.engine;
  check_int "abort: control plane gave up exactly once" 1
    (Flextoe.Control_plane.retransmit_aborts (Flextoe.control w.client));
  check_int "abort: application saw on_error" 1 !errored;
  check_int "abort: libTOE counted the abort" 1
    (Flextoe.Libtoe.sockets_aborted (Flextoe.libtoe w.client));
  check_int "abort: no flow left behind" 0
    (Flextoe.Control_plane.active_flows (Flextoe.control w.client))

(* --- Determinism -------------------------------------------------------- *)

let chaos_digest () =
  let w, complete, errors =
    bulk_under ~specs:(F.named "bursty-loss") ~conns:2
      ~bytes_per_conn:100_000 ~deadline:(Sim.Time.ms 300) ()
  in
  let st = Flextoe.Datapath.stats (Flextoe.datapath w.server) in
  ( complete,
    errors,
    List.map F.counters w.chains,
    st.Flextoe.Datapath.rx_segments,
    Flextoe.Control_plane.retransmit_timeouts (Flextoe.control w.client),
    Sim.Engine.events_processed w.engine )

let test_fault_determinism () =
  let d1 = chaos_digest () and d2 = chaos_digest () in
  check_bool "same seed: identical fault counters and stats" true (d1 = d2);
  let w3, _, _ =
    bulk_under ~seed:8L ~fault_seed:301 ~specs:(F.named "bursty-loss")
      ~conns:2 ~bytes_per_conn:100_000 ~deadline:(Sim.Time.ms 300) ()
  in
  let (_, _, c1, _, _, _) = d1 in
  check_bool "different fault seed perturbs the counters" true
    (List.map F.counters w3.chains <> c1)

let suite =
  [
    Alcotest.test_case "bursty loss survivable" `Slow test_bursty_loss;
    Alcotest.test_case "reordering + duplication survivable" `Slow
      test_reorder_heavy;
    Alcotest.test_case "corruption detected and survivable" `Slow
      test_corruption;
    Alcotest.test_case "jitter survivable" `Slow test_jitter;
    Alcotest.test_case "flaky DMA survivable" `Slow test_dma_flaky;
    Alcotest.test_case "blackout recovery" `Slow test_blackout_recovery;
    Alcotest.test_case "RTO backoff doubles" `Slow test_rto_backoff_doubles;
    Alcotest.test_case "permanent outage aborts" `Slow
      test_permanent_outage_aborts;
    Alcotest.test_case "fault injection deterministic" `Slow
      test_fault_determinism;
  ]
