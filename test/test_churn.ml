(* FlexGuard: teardown state machine, TIME_WAIT disambiguation,
   RST handling, bounded handshake retransmission, admission/backlog
   policy — unit tests on the mechanism state plus end-to-end churn
   scenarios with the guard armed. *)

module F = Netsim.Faults
module S = Tcp.Segment
module Guard = Flextoe.Guard
module Config = Flextoe.Config

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Mechanism unit tests --------------------------------------------- *)

let mk_guard () = Guard.create ~g:Config.guard_default ~secret:0x5EED ()

let test_cookie_roundtrip () =
  let g = mk_guard () in
  let flow =
    Tcp.Flow.v ~local_ip:0x0A000001 ~local_port:7 ~remote_ip:0x0A000002
      ~remote_port:40000
  in
  let now = Sim.Time.ms 3 in
  let isn = Guard.cookie_isn g ~now ~flow in
  check_bool "cookie validates at issue time" true
    (Guard.cookie_check g ~now ~flow ~isn);
  (* Still valid one epoch later (previous-epoch acceptance)... *)
  let later = now + Guard.time_wait in
  check_bool "cookie validates next epoch" true
    (Guard.cookie_check g ~now:later ~flow ~isn);
  (* ...but not two epochs later. *)
  let much_later = now + (3 * Guard.time_wait) in
  check_bool "cookie expires after two epochs" false
    (Guard.cookie_check g ~now:much_later ~flow ~isn);
  (* A different 4-tuple never validates. *)
  let other =
    Tcp.Flow.v ~local_ip:0x0A000001 ~local_port:7 ~remote_ip:0x0A000002
      ~remote_port:40001
  in
  check_bool "cookie bound to the 4-tuple" false
    (Guard.cookie_check g ~now ~flow:other ~isn)

let test_tw_wraparound () =
  let g = mk_guard () in
  let flow =
    Tcp.Flow.v ~local_ip:1 ~local_port:7 ~remote_ip:2 ~remote_port:9
  in
  (* Dead incarnation's final receive point sits just below the 2^32
     wrap; disambiguation must follow Seq32 ordering, not integer
     ordering. *)
  let rcv_nxt = Tcp.Seq32.of_int 0xFFFFFFF0 in
  Guard.tw_add g ~now:Sim.Time.zero ~flow ~snd_nxt:(Tcp.Seq32.of_int 100)
    ~rcv_nxt;
  check_bool "ISN just past the wrap is acceptable" true
    (Guard.tw_syn_acceptable g ~flow ~isn:(Tcp.Seq32.add rcv_nxt 5));
  check_bool "older ISN (pre-wrap) is refused" false
    (Guard.tw_syn_acceptable g ~flow ~isn:(Tcp.Seq32.add rcv_nxt (-5)));
  check_bool "equal ISN is refused (strictly beyond required)" false
    (Guard.tw_syn_acceptable g ~flow ~isn:rcv_nxt);
  (* Unknown 4-tuples are always acceptable. *)
  let other =
    Tcp.Flow.v ~local_ip:1 ~local_port:7 ~remote_ip:2 ~remote_port:10
  in
  check_bool "no TIME_WAIT entry: acceptable" true
    (Guard.tw_syn_acceptable g ~flow:other ~isn:Tcp.Seq32.zero)

let test_tw_capacity_recycles_oldest () =
  let g = mk_guard () in
  let cap = Guard.time_wait_max in
  let flow i =
    Tcp.Flow.v ~local_ip:1 ~local_port:7 ~remote_ip:2 ~remote_port:(100 + i)
  in
  for i = 0 to cap + 1 do
    Guard.tw_add g ~now:(Sim.Time.us i) ~flow:(flow i)
      ~snd_nxt:Tcp.Seq32.zero ~rcv_nxt:Tcp.Seq32.zero
  done;
  check_int "capacity respected" cap (Guard.tw_length g);
  check_int "two pressure recycles" 2 (Guard.counter g "tw_recycled_pressure");
  check_bool "oldest entries recycled first" true
    (Guard.tw_find g ~flow:(flow 0) = None
    && Guard.tw_find g ~flow:(flow 1) = None
    && Guard.tw_find g ~flow:(flow 2) <> None
    && Guard.tw_find g ~flow:(flow (cap + 1)) <> None);
  (* Expiry reaps the rest. *)
  let past = Sim.Time.ms 1000 in
  check_int "reap expires remaining entries" cap (Guard.tw_reap g ~now:past);
  check_int "table empty after reap" 0 (Guard.tw_length g)

(* --- End-to-end worlds ------------------------------------------------ *)

let ip_server = 0x0A000001
let ip_client = 0x0A000002
let ip_rogue = 0x0A0000EE
let mac_of_ip ip = 0x020000000000 lor ip

type world = {
  engine : Sim.Engine.t;
  fabric : Netsim.Fabric.t;
  server : Flextoe.t;
  client : Flextoe.t;
}

let guarded_config () =
  { Config.default with Config.guard = Config.guard_default }

let mk_world ?(seed = 11L) ?(config = guarded_config ()) () =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Netsim.Fabric.create engine () in
  let server =
    Flextoe.create_node engine ~fabric ~config ~app_cores:2 ~ip:ip_server ()
  in
  let client =
    Flextoe.create_node engine ~fabric ~config ~app_cores:2 ~ip:ip_client ()
  in
  { engine; fabric; server; client }

let run_for w d = Sim.Engine.run ~until:(Sim.Engine.now w.engine + d) w.engine

let server_guard w =
  match Flextoe.Datapath.guard (Flextoe.datapath w.server) with
  | Some g -> g
  | None -> Alcotest.fail "guard not armed on server"

let total_aborts w =
  Flextoe.Libtoe.sockets_aborted (Flextoe.libtoe w.server)
  + Flextoe.Libtoe.sockets_aborted (Flextoe.libtoe w.client)

let active_total w =
  Flextoe.Control_plane.active_flows (Flextoe.control w.server)
  + Flextoe.Control_plane.active_flows (Flextoe.control w.client)

(* Establish one echo-less connection; returns the client socket and
   the server socket once both exist. *)
let establish w =
  let ssock = ref None and csock = ref None in
  (Flextoe.endpoint w.server).Host.Api.listen ~port:7
    ~on_accept:(fun sock -> ssock := Some sock);
  (Flextoe.endpoint w.client).Host.Api.connect ~remote_ip:ip_server
    ~remote_port:7 ~on_connected:(fun r ->
      match r with
      | Ok sock -> csock := Some sock
      | Error e -> Alcotest.fail ("connect failed: " ^ e));
  run_for w (Sim.Time.ms 2);
  match (!ssock, !csock) with
  | Some s, Some c -> (s, c)
  | _ -> Alcotest.fail "handshake did not complete"

(* A raw injection port for crafting adversarial frames. *)
let rogue_port w =
  Netsim.Fabric.add_port w.fabric ~mac:(mac_of_ip ip_rogue) ~ip:ip_rogue
    ~rx:(fun _ -> ())
    ()

let inject w port ?(payload = Bytes.create 0) ~src_ip ~src_port ~dst_port
    ~flags ~seq ~ack_seq () =
  let seg =
    S.make ~flags ~payload ~src_ip ~dst_ip:ip_server ~src_port ~dst_port ~seq
      ~ack_seq ()
  in
  Netsim.Fabric.transmit port
    (S.make_frame ~src_mac:(mac_of_ip src_ip) ~dst_mac:(mac_of_ip ip_server)
       seg);
  run_for w (Sim.Time.ms 1)

let test_simultaneous_close () =
  let w = mk_world () in
  let s, c = establish w in
  (* Both ends close in the same engine step: FINs cross. *)
  s.Host.Api.close ();
  c.Host.Api.close ();
  run_for w (Sim.Time.ms 10);
  check_int "no aborts on simultaneous close" 0 (total_aborts w);
  check_int "both connection tables empty" 0 (active_total w);
  check_bool "TIME_WAIT entries installed" true
    (Guard.counter (server_guard w) "tw_installed" >= 1)

let test_double_close_idempotent () =
  let w = mk_world () in
  let s, c = establish w in
  let conn =
    match Flextoe.Datapath.conn_of_flow (Flextoe.datapath w.client)
            (Tcp.Flow.v ~local_ip:ip_client ~local_port:40000
               ~remote_ip:ip_server ~remote_port:7)
    with
    | Some idx -> idx
    | None -> Alcotest.fail "client connection not installed"
  in
  c.Host.Api.close ();
  c.Host.Api.close ();  (* double close at the API *)
  (* Close again below the API while the FIN handshake is in flight
     (the close-during-retransmit shape): must be a no-op, not a
     second FIN racing the first. *)
  Flextoe.Control_plane.close (Flextoe.control w.client) ~conn;
  run_for w (Sim.Time.ms 5);
  s.Host.Api.close ();
  run_for w (Sim.Time.ms 10);
  check_int "no aborts on double close" 0 (total_aborts w);
  check_int "teardown completed" 0 (active_total w);
  (* Close on a torn-down connection: idempotent no-op. *)
  Flextoe.Control_plane.close (Flextoe.control w.client) ~conn;
  run_for w (Sim.Time.ms 1);
  check_int "post-teardown close is a no-op" 0 (total_aborts w)

let test_fin_retransmit_into_timewait () =
  let w = mk_world () in
  let s, c = establish w in
  c.Host.Api.close ();
  s.Host.Api.close ();
  run_for w (Sim.Time.ms 5);
  let g = server_guard w in
  let flow =
    Tcp.Flow.v ~local_ip:ip_server ~local_port:7 ~remote_ip:ip_client
      ~remote_port:40000
  in
  match Guard.tw_find g ~flow with
  | None -> Alcotest.fail "connection not in TIME_WAIT on server"
  | Some (snd_nxt, rcv_nxt) ->
      (* Replay the peer's FIN (its final ACK was "lost"): the guard
         must re-ACK from the stored endpoint state, not RST. *)
      let port = rogue_port w in
      inject w port ~src_ip:ip_client ~src_port:40000 ~dst_port:7
        ~flags:{ S.no_flags with S.fin = true; S.ack = true }
        ~seq:(Tcp.Seq32.add rcv_nxt (-1))
        ~ack_seq:snd_nxt ();
      check_int "FIN retransmission re-ACKed" 1 (Guard.counter g "tw_reack");
      check_int "no RST for a TIME_WAIT tuple" 0 (Guard.counter g "rst_tx")

let test_timewait_syn_disambiguation () =
  let w = mk_world () in
  let s, c = establish w in
  c.Host.Api.close ();
  s.Host.Api.close ();
  run_for w (Sim.Time.ms 5);
  let g = server_guard w in
  let flow =
    Tcp.Flow.v ~local_ip:ip_server ~local_port:7 ~remote_ip:ip_client
      ~remote_port:40000
  in
  match Guard.tw_find g ~flow with
  | None -> Alcotest.fail "connection not in TIME_WAIT on server"
  | Some (_, rcv_nxt) ->
      let port = rogue_port w in
      (* An old duplicate SYN (ISN below the dead incarnation's final
         receive point) must be refused... *)
      inject w port ~src_ip:ip_client ~src_port:40000 ~dst_port:7
        ~flags:{ S.no_flags with S.syn = true }
        ~seq:(Tcp.Seq32.add rcv_nxt (-1000))
        ~ack_seq:Tcp.Seq32.zero ();
      check_int "stale SYN refused" 1 (Guard.counter g "tw_refused_syn");
      check_bool "TIME_WAIT entry survives a stale SYN" true
        (Guard.tw_find g ~flow <> None);
      (* ...while a genuinely fresh SYN recycles the entry. *)
      inject w port ~src_ip:ip_client ~src_port:40000 ~dst_port:7
        ~flags:{ S.no_flags with S.syn = true }
        ~seq:(Tcp.Seq32.add rcv_nxt 4242)
        ~ack_seq:Tcp.Seq32.zero ();
      check_int "fresh SYN recycles TIME_WAIT" 1
        (Guard.counter g "tw_recycled_syn");
      check_bool "entry gone after recycle" true
        (Guard.tw_find g ~flow = None)

let test_rst_in_half_close () =
  let w = mk_world () in
  let s, c = establish w in
  (* Half-close: client FINs, server keeps its direction open. *)
  c.Host.Api.close ();
  run_for w (Sim.Time.ms 3);
  let flow =
    Tcp.Flow.v ~local_ip:ip_server ~local_port:7 ~remote_ip:ip_client
      ~remote_port:40000
  in
  check_bool "server connection still installed after half-close" true
    (Flextoe.Datapath.conn_of_flow (Flextoe.datapath w.server) flow <> None);
  (* RST lands during half-close: the server connection aborts. *)
  let port = rogue_port w in
  inject w port ~src_ip:ip_client ~src_port:40000 ~dst_port:7
    ~flags:{ S.no_flags with S.rst = true }
    ~seq:Tcp.Seq32.zero ~ack_seq:Tcp.Seq32.zero ();
  run_for w (Sim.Time.ms 2);
  check_bool "server connection torn down by RST" true
    (Flextoe.Datapath.conn_of_flow (Flextoe.datapath w.server) flow = None);
  check_int "server socket saw the abort" 1
    (Flextoe.Libtoe.sockets_aborted (Flextoe.libtoe w.server));
  check_int "guard counted the RST" 1
    (Guard.counter (server_guard w) "rst_rx");
  ignore s

let test_rst_to_no_connection () =
  let w = mk_world () in
  (* No listener, no connection: an ACK-bearing segment to port 9999
     draws an active refusal. *)
  let port = rogue_port w in
  inject w port ~src_ip:ip_rogue ~src_port:555 ~dst_port:9999
    ~flags:S.flags_ack ~seq:(Tcp.Seq32.of_int 77)
    ~ack_seq:(Tcp.Seq32.of_int 88) ();
  check_int "RST sent to no-such-connection" 1
    (Guard.counter (server_guard w) "rst_tx")

let test_connect_blackhole_etimedout () =
  let w = mk_world () in
  let ip_dead = 0x0A0000FD in
  (* A port owns this IP but never answers (open-loop blackhole), so
     the test sees each SYN arrive. Bounded retries must surface
     Etimedout on the guard's schedule. *)
  let syns = ref [] in
  ignore
    (Netsim.Fabric.add_port w.fabric ~mac:(mac_of_ip ip_dead) ~ip:ip_dead
       ~rx:(fun (frame : S.frame) ->
         if frame.S.seg.S.flags.S.syn then
           syns := Sim.Engine.now w.engine :: !syns)
       ());
  let result = ref None in
  (Flextoe.endpoint w.client).Host.Api.connect ~remote_ip:ip_dead
    ~remote_port:7 ~on_connected:(fun r ->
      result := Some (Sim.Engine.now w.engine, r));
  run_for w (Sim.Time.ms 80);
  (* The first SYN lands 2.794123 us after the connect. Each retry
     leaves the CP when its backoff timer fires, 1 ms after the
     connect doubling to the 8 ms ceiling (1, 3, 7, 15, 23, 31 ms), and
     lands 1.894123 us later. The sixth retry spent, one more 8 ms
     wait ends the attempt. *)
  let retry_at ms = Sim.Time.ms ms + Sim.Time.ps 1_894_123 in
  Alcotest.(check (list int))
    "SYN arrival times"
    (Sim.Time.ps 2_794_123 :: List.map retry_at [ 1; 3; 7; 15; 23; 31 ])
    (List.rev !syns);
  (match !result with
  | Some (t, Error e) ->
      check_string "connect error" "Etimedout" e;
      check_int "Etimedout time" (Sim.Time.ms 39) t
  | Some (_, Ok _) -> Alcotest.fail "connect to a blackhole succeeded"
  | None -> Alcotest.fail "connect still pending after retry budget");
  check_int "no half-open state leaked" 0
    (Flextoe.Control_plane.active_flows (Flextoe.control w.client))

let test_syn_flood_cookies_and_shed () =
  (* A 2-frame CP queue, which this flood keeps full: the ingress shed
     policy engages (at the default 64 frames it never does). *)
  let g_cfg = { Config.guard_default with Config.g_cp_queue = 2 } in
  let w = mk_world ~config:{ Config.default with Config.guard = g_cfg } () in
  let s, c = establish w in
  (* One established flow streams through the whole flood, 1 KB every
     12.5 us: its segments meet a full CP queue among the SYNs, and
     shedding must pick the SYNs only. *)
  let piece = 1000 and pieces = 400 in
  let data =
    Bytes.init (piece * pieces) (fun i -> Char.chr ((i * 7) land 0xFF))
  in
  let sent = ref 0 in
  let got = Buffer.create (Bytes.length data) in
  s.Host.Api.on_readable <-
    (fun () ->
      Buffer.add_bytes got (s.Host.Api.recv ~max:(s.Host.Api.rx_available ())));
  let rec send_piece k () =
    sent := !sent + c.Host.Api.send (Bytes.sub data (k * piece) piece);
    if k + 1 < pieces then
      Sim.Engine.schedule w.engine (Sim.Time.ns 12_500) (send_piece (k + 1))
  in
  let flood =
    F.Churn.syn_flood w.engine w.fabric ~src_ip:ip_rogue ~dst_ip:ip_server
      ~dst_port:7 ~rate_pps:4_000_000 ()
  in
  send_piece 0 ();
  run_for w (Sim.Time.ms 5);
  F.Churn.stop flood;
  run_for w (Sim.Time.ms 5);
  let g = server_guard w in
  check_bool "flood was substantial" true (F.Churn.sent flood > 1000);
  check_bool "the flood fills the CP queue" true
    (Guard.counter g "shed_queue" > 0);
  check_bool "backlog overflow answered with cookies" true
    (Guard.counter g "cookie_sent" > 0);
  check_bool "stateful backlog stayed bounded" true
    (Guard.counter g "syn_accepted" <= Guard.syn_backlog * Guard.syn_retries);
  check_int "only the established flow is installed" 1
    (Flextoe.Control_plane.active_flows (Flextoe.control w.server));
  check_int "established-flow segments never shed" 0
    (Guard.established_shed g);
  check_int "every byte was sent" (Bytes.length data) !sent;
  check_bool "the stream arrived whole" true
    (Bytes.equal data (Buffer.to_bytes got))

let test_listener_pause_backpressure () =
  let w = mk_world () in
  let accepted = ref 0 in
  (Flextoe.endpoint w.server).Host.Api.listen ~port:7
    ~on_accept:(fun _ -> incr accepted);
  let cp = Flextoe.control w.server in
  Flextoe.Control_plane.set_listener_paused cp ~port:7 true;
  check_bool "pause observable" true
    (Flextoe.Control_plane.listener_paused cp ~port:7);
  (Flextoe.endpoint w.client).Host.Api.connect ~remote_ip:ip_server
    ~remote_port:7 ~on_connected:(fun _ -> ());
  run_for w (Sim.Time.ms 3);
  check_int "no accept while paused" 0 !accepted;
  check_bool "SYNs counted as shed_paused" true
    (Guard.counter (server_guard w) "shed_paused" >= 1);
  (* Resume: the client's SYN retransmission completes the handshake. *)
  Flextoe.Control_plane.set_listener_paused cp ~port:7 false;
  run_for w (Sim.Time.ms 20);
  check_int "handshake completes after resume" 1 !accepted

(* --- Scripted admission storms ---------------------------------------- *)

(* A script of SYN / handshake-ACK / data-segment / close events, fed
   to a live guarded server from one raw peer port. Connection [id] is
   source port [peer_port id] with ISN [peer_isn id]; the peer records
   the server's SYN-ACKs and ACKs and acknowledges its FINs, as a real
   stack would. Assertions read the server's own counters. *)
type ev = Syn of int | Ack of int | Seg of int | Close of int

type peer = {
  pw : world;
  mutable port : Netsim.Fabric.port option;
  synack : (int, Tcp.Seq32.t) Hashtbl.t;  (* id -> server ISN *)
  sent : (int, int) Hashtbl.t;  (* id -> payload bytes sent *)
  acked : (int, Tcp.Seq32.t) Hashtbl.t;  (* id -> server's latest ACK *)
}

let peer_port id = 20_000 + id
let peer_isn id = Tcp.Seq32.of_int (1_000_000 * (id + 1))
let seg_bytes = 10
let step = Sim.Time.us 50

let peer_next p id =
  Tcp.Seq32.add (peer_isn id)
    (1 + Option.value ~default:0 (Hashtbl.find_opt p.sent id))

let peer_send p id ?(payload = Bytes.empty) ~flags ~seq ~ack_seq () =
  let seg =
    S.make ~flags ~payload ~window:0xFFFF ~src_ip:ip_rogue ~dst_ip:ip_server
      ~src_port:(peer_port id) ~dst_port:7 ~seq ~ack_seq ()
  in
  Option.iter
    (fun port ->
      Netsim.Fabric.transmit port
        (S.make_frame ~src_mac:(mac_of_ip ip_rogue)
           ~dst_mac:(mac_of_ip ip_server) seg))
    p.port

let peer_rx p (frame : S.frame) =
  let seg = frame.S.seg in
  let id = seg.S.dst_port - peer_port 0 in
  let fl = seg.S.flags in
  if fl.S.syn && fl.S.ack then Hashtbl.replace p.synack id seg.S.seq
  else if fl.S.ack then Hashtbl.replace p.acked id seg.S.ack_seq;
  if fl.S.fin then
    (* Scripts always close from the peer first, so our FIN is out. *)
    peer_send p id ~flags:S.flags_ack
      ~seq:(Tcp.Seq32.succ (peer_next p id))
      ~ack_seq:(Tcp.Seq32.add seg.S.seq (Bytes.length seg.S.payload + 1))
      ()

let mk_peer w =
  let p =
    {
      pw = w;
      port = None;
      synack = Hashtbl.create 64;
      sent = Hashtbl.create 64;
      acked = Hashtbl.create 64;
    }
  in
  p.port <-
    Some
      (Netsim.Fabric.add_port w.fabric ~mac:(mac_of_ip ip_rogue)
         ~ip:ip_rogue ~rx:(peer_rx p) ());
  p

let server_flow id =
  Tcp.Flow.v ~local_ip:ip_server ~local_port:7 ~remote_ip:ip_rogue
    ~remote_port:(peer_port id)

(* One event, then [step] of simulated time for the server to answer;
   [~step:Sim.Time.zero] sends the events back to back. *)
let play ?(step = step) p evs =
  List.iter
    (fun ev ->
      (match ev with
      | Syn id ->
          peer_send p id
            ~flags:{ S.no_flags with S.syn = true }
            ~seq:(peer_isn id) ~ack_seq:Tcp.Seq32.zero ()
      | Ack id | Seg id | Close id -> (
          (* A SYN the server shed drew no SYN-ACK: nothing follows it.
             A stateful and a cookie handshake complete alike. *)
          match Hashtbl.find_opt p.synack id with
          | None -> ()
          | Some isn -> (
              let seq = peer_next p id and ack_seq = Tcp.Seq32.succ isn in
              match ev with
              | Seg _ ->
                  peer_send p id ~payload:(Bytes.make seg_bytes 'x')
                    ~flags:S.flags_ack ~seq ~ack_seq ();
                  Hashtbl.replace p.sent id
                    (seg_bytes
                    + Option.value ~default:0 (Hashtbl.find_opt p.sent id))
              | Close _ -> (
                  peer_send p id
                    ~flags:{ S.flags_ack with S.fin = true }
                    ~seq ~ack_seq ();
                  run_for p.pw step;
                  let server = p.pw.server in
                  match
                    Flextoe.Datapath.conn_of_flow (Flextoe.datapath server)
                      (server_flow id)
                  with
                  | Some conn ->
                      Flextoe.Control_plane.close (Flextoe.control server)
                        ~conn
                  | None -> ())
              | _ -> peer_send p id ~flags:S.flags_ack ~seq ~ack_seq ())));
      run_for p.pw step)
    evs

(* A guarded server listening on port 7 behind a scripted peer. *)
let scripted ?limit g =
  let w = mk_world ~config:{ Config.default with Config.guard = g } () in
  (Flextoe.endpoint w.server).Host.Api.listen ~port:7
    ~on_accept:(fun _ -> ());
  Flextoe.Control_plane.set_connection_limit (Flextoe.control w.server) limit;
  (w, mk_peer w)

let test_replay_backlog_and_cookies () =
  (* 100 SYNs, none ever ACKed: the first 64 fill the backlog, the
     other 36 are answered statelessly. Nothing is shed. *)
  let w, p = scripted Config.guard_default in
  play p (List.init 100 (fun i -> Syn i));
  let gd = server_guard w in
  check_int "backlog absorbed its 64 slots" Guard.syn_backlog
    (Guard.counter gd "syn_accepted");
  check_int "36 answered with cookies" (100 - Guard.syn_backlog)
    (Guard.counter gd "cookie_sent");
  check_int "nothing shed" 0 (Guard.counter gd "shed_admission")

let test_replay_established_never_shed () =
  let g = Config.guard_default in
  (* Four established flows exchanging segments under a SYN flood that
     meets a full connection table: every established segment must
     still pass. *)
  let establish i = [ Syn i; Ack i ] in
  let flood = List.init 50 (fun i -> Syn (1000 + i)) in
  let traffic = List.init 40 (fun i -> Seg (i mod 4)) in
  let w, p = scripted ~limit:4 g in
  play p (List.concat (List.init 4 establish) @ flood @ traffic);
  let gd = server_guard w in
  check_int "four established" 4
    (Flextoe.Control_plane.active_flows (Flextoe.control w.server));
  check_int "flood shed at the cap" 50 (Guard.counter gd "shed_admission");
  for i = 0 to 3 do
    check_bool
      (Printf.sprintf "flow %d: every established segment acknowledged" i)
      true
      (match Hashtbl.find_opt p.acked i with
      | Some a -> Tcp.Seq32.diff a (peer_next p i) = 0
      | None -> false)
  done;
  check_int "all 40 segments sent" 40
    (Hashtbl.fold (fun _ n acc -> acc + n) p.sent 0 / seg_bytes);
  check_int "zero established segments shed" 0 (Guard.established_shed gd);
  (* Again with a 2-frame CP queue and the flood sent back to back,
     established segments among the SYNs: the queue fills, and only the
     SYNs are shed at it. *)
  let w, p = scripted ~limit:4 { g with Config.g_cp_queue = 2 } in
  play p (List.concat (List.init 4 establish));
  play ~step:Sim.Time.zero p
    (List.concat
       (List.init 40 (fun i -> [ Syn (1000 + i); Syn (2000 + i); Seg (i mod 4) ])));
  run_for w step;
  let gd = server_guard w in
  check_bool "the burst fills the CP queue" true
    (Guard.counter gd "shed_queue" > 0);
  check_int "zero established segments shed at a full CP queue" 0
    (Guard.established_shed gd)

let test_replay_close_and_timewait () =
  let conn i = [ Syn i; Ack i; Close i ] in
  let w, p = scripted Config.guard_default in
  play p (List.concat (List.init 5 conn));
  run_for w (Sim.Time.ms 1);
  let gd = server_guard w in
  check_int "five established over the run" 5 (Guard.counter gd "syn_accepted");
  check_int "all five torn down" 0
    (Flextoe.Control_plane.active_flows (Flextoe.control w.server));
  check_int "five TIME_WAIT entries installed" 5
    (Guard.counter gd "tw_installed");
  (* Far below the table's cap, and within the hold: every entry
     stays. "TIME_WAIT capacity recycles oldest" drives the cap. *)
  check_int "no recycles below the cap" 0
    (Guard.counter gd "tw_recycled_pressure");
  check_int "table holds all five" 5 (Guard.tw_length gd)

(* The connection limit holds through SYN cookies: cookies defer the
   table commitment to the completing ACK, so that ACK must meet the
   same cap as a SYN. 72 SYNs against a cap of 66: 64 fill the backlog
   and 8 draw cookies; then every handshake completes, and only the
   first two cookie ACKs find room. *)
let test_cap_holds_through_cookies () =
  let cap = Guard.syn_backlog + 2 in
  let n = Guard.syn_backlog + 8 in
  let w, p = scripted ~limit:cap Config.guard_default in
  play p (List.init n (fun i -> Syn i));
  play p (List.init n (fun i -> Ack i));
  let cp = Flextoe.control w.server in
  let gd = server_guard w in
  check_int "server installed exactly the cap" cap
    (Flextoe.Control_plane.active_flows cp);
  check_bool "the overflow went through cookies" true
    (Guard.counter gd "cookie_sent" > Guard.counter gd "cookie_accepted");
  check_int "every turned-away cookie completion counted"
    (Guard.counter gd "cookie_sent" - Guard.counter gd "cookie_accepted")
    (Guard.counter gd "shed_admission")

let test_guard_defaults_off () =
  (* [guard_none] (the default unless FLEXGUARD is set — pinned
     explicitly here so the churn CI job's FLEXGUARD=1 doesn't flip
     it) must leave the guard dormant: no Guard.t, no reaper events,
     unchanged close semantics. The golden-trace suite pins
     bit-identity; this pins the structural invariant. *)
  let w =
    mk_world
      ~config:{ Config.default with Config.guard = Config.guard_none }
      ()
  in
  check_bool "guard absent at defaults" true
    (Flextoe.Datapath.guard (Flextoe.datapath w.server) = None);
  let s, c = establish w in
  s.Host.Api.close ();
  c.Host.Api.close ();
  run_for w (Sim.Time.ms 10);
  check_int "unguarded teardown still clean" 0 (total_aborts w);
  check_int "unguarded tables empty" 0 (active_total w)

let suite =
  [
    Alcotest.test_case "cookie roundtrip" `Quick test_cookie_roundtrip;
    Alcotest.test_case "TIME_WAIT wraparound disambiguation" `Quick
      test_tw_wraparound;
    Alcotest.test_case "TIME_WAIT capacity recycles oldest" `Quick
      test_tw_capacity_recycles_oldest;
    Alcotest.test_case "replay: backlog and cookies" `Quick
      test_replay_backlog_and_cookies;
    Alcotest.test_case "replay: established never shed" `Quick
      test_replay_established_never_shed;
    Alcotest.test_case "replay: close and TIME_WAIT" `Quick
      test_replay_close_and_timewait;
    Alcotest.test_case "simultaneous close" `Slow test_simultaneous_close;
    Alcotest.test_case "double close idempotent" `Slow
      test_double_close_idempotent;
    Alcotest.test_case "FIN retransmit into TIME_WAIT" `Slow
      test_fin_retransmit_into_timewait;
    Alcotest.test_case "TIME_WAIT SYN disambiguation" `Slow
      test_timewait_syn_disambiguation;
    Alcotest.test_case "RST in half-close" `Slow test_rst_in_half_close;
    Alcotest.test_case "RST to no connection" `Slow
      test_rst_to_no_connection;
    Alcotest.test_case "blackholed connect times out" `Slow
      test_connect_blackhole_etimedout;
    Alcotest.test_case "SYN flood: cookies, bounded backlog" `Slow
      test_syn_flood_cookies_and_shed;
    Alcotest.test_case "listener pause backpressure" `Slow
      test_listener_pause_backpressure;
    Alcotest.test_case "connection cap holds through SYN cookies" `Slow
      test_cap_holds_through_cookies;
    Alcotest.test_case "guard dormant at defaults" `Quick
      test_guard_defaults_off;
  ]
