type pre = {
  peer_mac : int;
  peer_ip : int;
  local_ip : int;
  local_port : int;
  remote_port : int;
  flow_group : int;
}

type proto = {
  tx_isn : Tcp.Seq32.t;
  rx_isn : Tcp.Seq32.t;
  mutable tx_next_pos : int;
  mutable tx_max_pos : int;
  mutable tx_acked_pos : int;
  mutable tx_tail_pos : int;
  mutable rx_avail : int;
  mutable remote_win : int;
  reasm : Tcp.Reassembly.t;
  mutable dupack_cnt : int;
  mutable next_ts : int;
  mutable delack_segs : int;
  mutable tx_fin : bool;
  mutable fin_sent : bool;
  mutable rx_fin : bool;
  mutable rx_fin_pending : Tcp.Seq32.t option;
  mutable fin_acked : bool;
  mutable ece_pending : bool;
  mutable cwr_pending : bool;
  mutable recover_pos : int;
  mutable karn_pos : int;
  mutable last_progress : Sim.Time.t;
}

type post = {
  opaque : int;
  mutable ctx_id : int;
  rx_buf : Host.Payload_buf.t;
  tx_buf : Host.Payload_buf.t;
  mutable cnt_ackb : int;
  mutable cnt_ecnb : int;
  mutable cnt_fretx : int;
  mutable rtt_est_ns : int;
  mutable rate_bps : int;
}

type tx_fetches = {
  mutable tf_out : int;
  mutable tf_acked : int;
  mutable tf_upto : int;
  mutable tf_before : int;
  mutable tf_wait : int;
  mutable tf_high : int;
}

type rx_slot = {
  rs_queue : rx_slot Sim.Fifo.t;
  mutable rs_finish : (unit -> unit) option;
}

type t = {
  idx : int;
  flow : Tcp.Flow.t;
  pre : pre;
  proto : proto;
  post : post;
  tx_fetch : tx_fetches;
  rx_slots : rx_slot Sim.Fifo.t;
  mutable rx_notified : int;
  mutable tx_source : Netsim.Fabric.source option;
  mutable active : bool;
}

let create ~idx ~flow ~peer_mac ~flow_group ~tx_isn ~rx_isn
    ?(remote_win = 0xFFFF lsl 7) ~opaque ~ctx_id ~rx_buf_bytes ~tx_buf_bytes
    () =
  {
    idx;
    flow;
    pre =
      {
        peer_mac;
        peer_ip = flow.Tcp.Flow.remote_ip;
        local_ip = flow.Tcp.Flow.local_ip;
        local_port = flow.Tcp.Flow.local_port;
        remote_port = flow.Tcp.Flow.remote_port;
        flow_group;
      };
    proto =
      {
        tx_isn;
        rx_isn;
        tx_next_pos = 0;
        tx_max_pos = 0;
        tx_acked_pos = 0;
        tx_tail_pos = 0;
        rx_avail = rx_buf_bytes;
        remote_win;
        reasm = Tcp.Reassembly.create ~next:(Tcp.Seq32.add rx_isn 1);
        dupack_cnt = 0;
        next_ts = 0;
        delack_segs = 0;
        tx_fin = false;
        fin_sent = false;
        rx_fin = false;
        rx_fin_pending = None;
        fin_acked = false;
        ece_pending = false;
        cwr_pending = false;
        recover_pos = 0;
        karn_pos = 0;
        last_progress = Sim.Time.zero;
      };
    post =
      {
        opaque;
        ctx_id;
        rx_buf = Host.Payload_buf.create ~size:rx_buf_bytes;
        tx_buf = Host.Payload_buf.create ~size:tx_buf_bytes;
        cnt_ackb = 0;
        cnt_ecnb = 0;
        cnt_fretx = 0;
        rtt_est_ns = 0;
        rate_bps = 0;
      };
    tx_fetch =
      {
        tf_out = 0;
        tf_acked = 0;
        tf_upto = -1;
        tf_before = 0;
        tf_wait = 0;
        tf_high = 0;
      };
    rx_slots = Sim.Fifo.create ();
    rx_notified = 0;
    tx_source = None;
    active = true;
  }

(* Teardown phase, derived from the four FIN bits. The data path keeps
   no explicit TCP state enum (Table 5 has no room for one); this view
   gives the control plane's reaper and the teardown tests the classic
   state names. *)
type close_phase =
  | Established
  | Fin_wait_1  (* we closed; our FIN unacknowledged *)
  | Fin_wait_2  (* our FIN acked; peer still open *)
  | Close_wait  (* peer closed; we are still open *)
  | Closing  (* both FINs seen, ours not yet acked (incl. LAST_ACK) *)
  | Closed  (* both directions closed and acknowledged *)

let close_phase t =
  let p = t.proto in
  match (p.tx_fin, p.rx_fin) with
  | false, false -> Established
  | true, false -> if p.fin_acked then Fin_wait_2 else Fin_wait_1
  | false, true -> Close_wait
  | true, true -> if p.fin_acked then Closed else Closing

(* --- Teardown lifecycle as a pure transition table ------------------- *)

(* The control plane's teardown decisions (CP teardown poll, FlexGuard
   reaper, TIME_WAIT handling, RST abort) all consult [step] below, and
   the FlexProve FSM checker ([Prove.check_fsm]) model-checks the same
   table against the RFC-793/6191 teardown spec — a seeded mutation of
   a transition both fails the checker and changes live behavior, so
   the verified artifact is the deployed one. *)

type lifecycle =
  | Phase of close_phase  (* datapath state installed, FIN bits live *)
  | Time_wait  (* datapath state freed; 4-tuple parked in Guard's table *)
  | Reclaimed  (* everything released; absorbing *)

type close_event =
  | Ev_app_close  (* local close(): queue a FIN after the last byte *)
  | Ev_peer_fin  (* peer's FIN reached the in-order point *)
  | Ev_fin_acked  (* our FIN was cumulatively acknowledged *)
  | Ev_rst  (* RST received (guarded mode only; unguarded RSTs no-op) *)
  | Ev_abort  (* CP abort: retransmission retries exhausted *)
  | Ev_reap_idle  (* FlexGuard reaper: idle past g_idle_timeout *)
  | Ev_teardown  (* CP teardown poll found the flow fully closed *)
  | Ev_tw_fin  (* peer retransmitted its FIN into our TIME_WAIT *)
  | Ev_tw_syn  (* acceptable fresh SYN recycles the tuple (RFC 6191) *)
  | Ev_tw_expire  (* TIME_WAIT hold elapsed *)

type close_output =
  | Out_send_fin  (* push a FIN through the host-control path *)
  | Out_reack  (* re-ACK the peer's FIN from the stored endpoint state *)
  | Out_notify_err  (* x_err notification: the application must learn *)
  | Out_enter_tw  (* park the 4-tuple in the TIME_WAIT table *)
  | Out_free  (* release the data-path connection state *)

let all_lifecycles =
  [
    Phase Established; Phase Fin_wait_1; Phase Fin_wait_2;
    Phase Close_wait; Phase Closing; Phase Closed; Time_wait; Reclaimed;
  ]

let all_events =
  [
    Ev_app_close; Ev_peer_fin; Ev_fin_acked; Ev_rst; Ev_abort;
    Ev_reap_idle; Ev_teardown; Ev_tw_fin; Ev_tw_syn; Ev_tw_expire;
  ]

let lifecycle_name = function
  | Phase Established -> "ESTABLISHED"
  | Phase Fin_wait_1 -> "FIN_WAIT_1"
  | Phase Fin_wait_2 -> "FIN_WAIT_2"
  | Phase Close_wait -> "CLOSE_WAIT"
  | Phase Closing -> "CLOSING"
  | Phase Closed -> "CLOSED"
  | Time_wait -> "TIME_WAIT"
  | Reclaimed -> "RECLAIMED"

let event_name = function
  | Ev_app_close -> "app_close"
  | Ev_peer_fin -> "peer_fin"
  | Ev_fin_acked -> "fin_acked"
  | Ev_rst -> "rst"
  | Ev_abort -> "abort"
  | Ev_reap_idle -> "reap_idle"
  | Ev_teardown -> "teardown"
  | Ev_tw_fin -> "tw_fin"
  | Ev_tw_syn -> "tw_syn"
  | Ev_tw_expire -> "tw_expire"

let output_name = function
  | Out_send_fin -> "send_fin"
  | Out_reack -> "reack"
  | Out_notify_err -> "notify_err"
  | Out_enter_tw -> "enter_tw"
  | Out_free -> "free"

(* Total transition function. [guard] arms the FlexGuard-only events
   (RST handling, idle reaper); [tw] says a TIME_WAIT hold is
   configured ([g_time_wait > 0]). Events that do not apply in a state
   are no-ops: [(s, [])]. The abort path ([Ev_rst]/[Ev_abort]) always
   notifies — the application must learn the connection died — except
   in TIME_WAIT, where an RST is ignored (RFC 1337: TIME-WAIT
   assassination refused). The reaper exempts Established (the
   application's business, however idle) and Close_wait (peer closed
   but the local app still owns the socket; no TCP timer covers it);
   of the reaped states, Fin_wait_2 and Closed are orphans — our FIN
   was acked, every byte delivered — reclaimed quietly, while
   Fin_wait_1/Closing mean a vanished peer, a genuine abort. *)
let step ~guard ~tw state event =
  let abort = (Reclaimed, [ Out_notify_err; Out_free ]) in
  let stay = (state, []) in
  match (state, event) with
  | Phase Established, Ev_app_close -> (Phase Fin_wait_1, [ Out_send_fin ])
  | Phase Established, Ev_peer_fin -> (Phase Close_wait, [])
  | Phase Established, Ev_rst when guard -> abort
  | Phase Established, Ev_abort -> abort
  | Phase Fin_wait_1, Ev_fin_acked -> (Phase Fin_wait_2, [])
  | Phase Fin_wait_1, Ev_peer_fin -> (Phase Closing, [])
  | Phase Fin_wait_1, Ev_rst when guard -> abort
  | Phase Fin_wait_1, Ev_abort -> abort
  | Phase Fin_wait_1, Ev_reap_idle when guard -> abort
  | Phase Fin_wait_2, Ev_peer_fin -> (Phase Closed, [])
  | Phase Fin_wait_2, Ev_rst when guard -> abort
  | Phase Fin_wait_2, Ev_reap_idle when guard -> (Reclaimed, [ Out_free ])
  | Phase Close_wait, Ev_app_close -> (Phase Closing, [ Out_send_fin ])
  | Phase Close_wait, Ev_rst when guard -> abort
  | Phase Close_wait, Ev_abort -> abort
  | Phase Closing, Ev_fin_acked -> (Phase Closed, [])
  | Phase Closing, Ev_rst when guard -> abort
  | Phase Closing, Ev_abort -> abort
  | Phase Closing, Ev_reap_idle when guard -> abort
  | Phase Closed, Ev_teardown ->
      if tw then (Time_wait, [ Out_enter_tw; Out_free ])
      else (Reclaimed, [ Out_free ])
  | Phase Closed, Ev_rst when guard -> abort
  | Phase Closed, Ev_reap_idle when guard -> (Reclaimed, [ Out_free ])
  | Time_wait, Ev_tw_fin -> (Time_wait, [ Out_reack ])
  | Time_wait, Ev_tw_syn -> (Reclaimed, [ Out_free ])
  | Time_wait, Ev_tw_expire -> (Reclaimed, [ Out_free ])
  | Reclaimed, _ -> (Reclaimed, [])
  | _ -> stay

let tx_seq_of_pos t pos = Tcp.Seq32.add t.proto.tx_isn (1 + pos)
let tx_pos_of_seq t seq = Tcp.Seq32.diff seq (Tcp.Seq32.add t.proto.tx_isn 1)
let rx_pos_of_seq t seq = Tcp.Seq32.diff seq (Tcp.Seq32.add t.proto.rx_isn 1)
let rx_seq_of_pos t pos = Tcp.Seq32.add t.proto.rx_isn (1 + pos)
let tx_avail t = t.proto.tx_tail_pos - t.proto.tx_next_pos
let tx_unacked t = t.proto.tx_next_pos - t.proto.tx_acked_pos
let rx_next_pos t = rx_pos_of_seq t (Tcp.Reassembly.next t.proto.reasm)

(* Table 5 accounting (bits): pre 48+32+32+2 = 114 bits; the paper's
   108-byte total rounds the pre partition down (14.25 B). local_ip is
   shared NIC configuration, not per-connection state. *)
let state_bytes_pre = 14
let state_bytes_proto = 43
let state_bytes_post = 51
