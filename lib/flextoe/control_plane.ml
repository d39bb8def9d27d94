module S = Tcp.Segment

let mac_of_ip ip = 0x020000000000 lor ip

type conn_handle = {
  ch_conn : int;
  ch_ctx : int;
  ch_state : Conn_state.t;
}

type pending = {
  p_flow : Tcp.Flow.t;
  p_our_isn : Tcp.Seq32.t;
  p_peer_isn : Tcp.Seq32.t;
  p_win : int option;  (* window override for our SYN-ACK *)
  p_ctx : int;
  p_kind :
    [ `Accept of conn_handle -> unit
    | `Connect of (conn_handle, string) result -> unit ];
  mutable p_installing : bool;
}

(* Congestion-control state kept per monitored flow. *)
type cc_state = No_cc | Dctcp of Cc.Dctcp.t | Timely of Cc.Timely.t

type cc_flow = {
  cf_conn : int;
  cf_state : cc_state;
  mutable cf_rate_bps : int;  (* last programmed rate; 0 = uncongested *)
  mutable cf_limit_bps : int;  (* administrative ceiling; 0 = none *)
  (* The control loop polls every cc_interval, but each flow's
     congestion decision runs at most once per RTT (§3.4: "the
     interval ... is determined by the round-trip time of each
     flow"); statistics accumulate in between. *)
  mutable cf_acc_ackb : int;
  mutable cf_acc_ecnb : int;
  mutable cf_acc_fretx : int;
  mutable cf_last_decision : Sim.Time.t;
  mutable cf_closing : bool;
  (* Retransmission-timeout state: the current (backed-off) timeout
     and the consecutive timeouts since the acked point last moved. *)
  mutable cf_rto : Sim.Time.t;
  mutable cf_retries : int;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  dp : Datapath.t;
  core : Host.Host_cpu.core;
  rng : Sim.Rng.t;
  guard : Guard.t option;  (* shared with the data path *)
  paused : (int, unit) Hashtbl.t;  (* ports with accept backpressure *)
  listeners : (int, int option * (conn_handle -> unit)) Hashtbl.t;
  pending : pending Tcp.Flow.Tbl.t;
  flows : (int, cc_flow) Hashtbl.t;
  mutable next_port : int;
  mutable next_ctx : int;
  mutable rto_count : int;
  mutable rto_aborts : int;
  mutable conn_limit : int option;
  mutable partitions : (int * int * int) list;  (* lo, hi, app *)
  shard_installed : int array;
      (* FlexScale: installed connections per shard group (length 1
         when unsharded). Per-shard admission splits the connection
         limit across shards with this global accounting. *)
}

let active_flows t = Hashtbl.length t.flows
let shard_conns t = Array.copy t.shard_installed
let gcount t name = match t.guard with Some g -> Guard.count g name | None -> ()

(* Teardown decisions go through the shared pure transition table
   ([Conn_state.step]) that FlexProve model-checks: [lstep] fixes the
   table's mode from whether this CP's guard is armed. *)
let lstep t state ev = Conn_state.step ~guard:(t.guard <> None) state ev

let phase_of t conn =
  Option.map
    (fun cs -> Conn_state.Phase (Conn_state.close_phase cs))
    (Datapath.conn t.dp conn)
let retransmit_timeouts t = t.rto_count
let retransmit_aborts t = t.rto_aborts

let cp_cycles = 1800  (* handshake step on the CP core *)
let cc_flow_cycles = 250  (* per-flow CC iteration *)

let wire_bps = int_of_float (Nfp.Params.wire_gbps *. 1e9)

(* Retransmission timeout: the initial value, doubled on each
   consecutive timeout up to [rto_max] and reset on forward progress;
   past [max_rto_retries] consecutive timeouts the connection is
   aborted and the application notified. *)
let rto = Sim.Time.ms 2
let rto_max = Sim.Time.ms 32
let max_rto_retries = 8

(* --- Segment builders ---------------------------------------------- *)

let ctl_frame t ?win ~flow ~seq ~ack_seq ~flags ~mss () =
  let default_win =
    Int.min 0xFFFF (t.cfg.Config.rx_buf_bytes lsr Protocol.window_scale)
  in
  let seg =
    S.make ~flags
      ~options:
        {
          S.mss = (if mss then Some S.mss_with_timestamps else None);
          ts = None;
        }
      ~window:(Option.value ~default:default_win win)
      ~src_ip:flow.Tcp.Flow.local_ip ~dst_ip:flow.Tcp.Flow.remote_ip
      ~src_port:flow.Tcp.Flow.local_port
      ~dst_port:flow.Tcp.Flow.remote_port ~seq ~ack_seq ()
  in
  S.make_frame
    ~src_mac:(mac_of_ip flow.Tcp.Flow.local_ip)
    ~dst_mac:(mac_of_ip flow.Tcp.Flow.remote_ip)
    seg

(* --- Connection establishment --------------------------------------- *)

let finalize t ?remote_win (p : pending) k =
  let idx = Datapath.alloc_conn_idx t.dp in
  let flow = p.p_flow in
  let fg =
    Tcp.Flow.flow_group flow
      ~groups:t.cfg.Config.parallelism.Config.flow_groups
  in
  let cs =
    Conn_state.create ~idx ~flow
      ~peer_mac:(mac_of_ip flow.Tcp.Flow.remote_ip)
      ~flow_group:fg
      ~tx_isn:p.p_our_isn ~rx_isn:p.p_peer_isn ?remote_win ~opaque:idx
      ~ctx_id:p.p_ctx ~rx_buf_bytes:t.cfg.Config.rx_buf_bytes
      ~tx_buf_bytes:t.cfg.Config.tx_buf_bytes ()
  in
  cs.Conn_state.proto.Conn_state.last_progress <- Sim.Engine.now t.engine;
  Datapath.install_conn t.dp cs ~k:(fun () ->
      (let n = Array.length t.shard_installed in
       if n > 1 then
         t.shard_installed.(fg mod n) <- t.shard_installed.(fg mod n) + 1);
      Hashtbl.replace t.flows idx
        {
          cf_conn = idx;
          cf_state =
            (match t.cfg.Config.cc with
            | Config.Dctcp -> Dctcp (Cc.Dctcp.create ())
            | Config.Timely -> Timely (Cc.Timely.create ())
            | Config.Cc_none -> No_cc);
          cf_rate_bps = 0;
          cf_limit_bps = 0;
          cf_acc_ackb = 0;
          cf_acc_ecnb = 0;
          cf_acc_fretx = 0;
          cf_last_decision = Sim.Engine.now t.engine;
          cf_closing = false;
          cf_rto = rto;
          cf_retries = 0;
        };
      Tcp.Flow.Tbl.remove t.pending p.p_flow;
      k { ch_conn = idx; ch_ctx = p.p_ctx; ch_state = cs })

let alloc_ctx t =
  let c = t.next_ctx mod Datapath.num_ctx t.dp in
  t.next_ctx <- t.next_ctx + 1;
  c

let set_connection_limit t limit = t.conn_limit <- limit

(* The one admission predicate, consulted by every path that would
   commit a connection-table slot: a listener's SYN, a cookie's
   completing ACK, and a local [connect]. Half-open handshakes count
   toward the limit, or a burst of simultaneous SYNs would blow past
   it. Under FlexScale each shard group also gets an even slice
   (ceiling) of the limit, so one shard's flash crowd cannot consume
   the whole table and starve flows steered to the other shards.
   Returns the guard counter that names the refusal. *)
let admission_full t flow =
  match t.conn_limit with
  | None -> None
  | Some l ->
      let n = Array.length t.shard_installed in
      if Hashtbl.length t.flows + Tcp.Flow.Tbl.length t.pending >= l then
        Some "shed_admission"
      else if
        n > 1
        && t.shard_installed.(Flow_group.shard_of_config t.cfg flow)
           >= (l + n - 1) / n
      then Some "shed_admission_shard"
      else None

(* Drop an installed connection: release the datapath state and the
   CC record, and return the shard's admission slot. Every removal
   path funnels through here so [shard_installed] cannot drift. *)
let forget_flow t ~conn =
  (let n = Array.length t.shard_installed in
   if n > 1 then
     match Datapath.conn t.dp conn with
     | Some cs ->
         let s = cs.Conn_state.pre.Conn_state.flow_group mod n in
         t.shard_installed.(s) <- Int.max 0 (t.shard_installed.(s) - 1)
     | None -> ());
  Datapath.remove_conn t.dp ~conn;
  Hashtbl.remove t.flows conn

let reserve_ports t ~lo ~hi ~app =
  t.partitions <- (lo, hi, app) :: t.partitions

let port_owner t port =
  List.find_map
    (fun (lo, hi, app) -> if port >= lo && port <= hi then Some app else None)
    t.partitions

(* Handshake packets can be lost; the CP retries SYN / SYN-ACK while
   the connection is still pending. Unguarded: a fixed 5 ms period and
   10 attempts (the historical behavior, kept bit-identical). Guarded:
   [Guard.syn_retries] attempts with exponential backoff from
   [Guard.syn_retry_base] capped at [Guard.syn_retry_max], and exhaustion
   surfaces ["Etimedout"] — a connect to a blackholed peer fails in
   bounded time instead of hanging. *)
let retry_delay t attempt =
  match t.guard with
  | None -> Sim.Time.ms 5
  | Some _ ->
      let d = ref Guard.syn_retry_base in
      for _ = 1 to attempt do
        d := Int.min (2 * !d) Guard.syn_retry_max
      done;
      !d

let max_handshake_retries t =
  match t.guard with
  | None -> 10
  | Some _ -> Guard.syn_retries

let timeout_error t =
  match t.guard with None -> "connection timed out" | Some _ -> "Etimedout"

let rec handshake_retry t flow attempt =
  Sim.Engine.schedule t.engine (retry_delay t attempt) (fun () ->
      match Tcp.Flow.Tbl.find_opt t.pending flow with
      | Some p when (not p.p_installing) && attempt < max_handshake_retries t
        ->
          (match p.p_kind with
          | `Connect _ ->
              gcount t "syn_retx";
              Datapath.control_tx t.dp
                (ctl_frame t ~flow ~seq:p.p_our_isn ~ack_seq:Tcp.Seq32.zero
                   ~flags:{ S.no_flags with S.syn = true }
                   ~mss:true ())
          | `Accept _ ->
              gcount t "synack_retx";
              Datapath.control_tx t.dp
                (ctl_frame t ?win:p.p_win ~flow ~seq:p.p_our_isn
                   ~ack_seq:(Tcp.Seq32.succ p.p_peer_isn)
                   ~flags:{ S.no_flags with S.syn = true; ack = true }
                   ~mss:true ()));
          handshake_retry t flow (attempt + 1)
      | Some p when not p.p_installing -> begin
          Tcp.Flow.Tbl.remove t.pending flow;
          match p.p_kind with
          | `Connect k ->
              gcount t "connect_timeout";
              k (Error (timeout_error t))
          | `Accept _ -> gcount t "synack_expired"
        end
      | _ -> ())

(* RST in response to a segment that names no connection (guarded
   mode only). Sequence comes from the offender's ACK field so the
   peer accepts it; pure SYNs get seq 0 / ack their SYN instead. *)
let send_rst t ~flow (seg : S.t) =
  gcount t "rst_tx";
  let seq, ack_seq, ack =
    if seg.S.flags.S.ack then (seg.S.ack_seq, Tcp.Seq32.zero, false)
    else (Tcp.Seq32.zero, Tcp.Seq32.succ seg.S.seq, true)
  in
  Datapath.control_tx t.dp
    (ctl_frame t ~flow ~seq ~ack_seq
       ~flags:{ S.no_flags with S.rst = true; S.ack }
       ~mss:false ())

let handle_syn t (frame : S.frame) =
  let seg = frame.S.seg in
  gcount t "syn_rx";
  match Hashtbl.find_opt t.listeners seg.S.dst_port with
  | None ->
      (* No listener. Unguarded: silent drop (no RST modelled).
         Guarded: refuse actively so the peer fails fast instead of
         retrying into the void. *)
      let flow = Tcp.Flow.of_segment_rx seg in
      if t.guard <> None then send_rst t ~flow seg
  | Some (win, on_accept) ->
      let flow = Tcp.Flow.of_segment_rx seg in
      (* TIME_WAIT disambiguation: a fresh SYN may recycle a 4-tuple
         still in TIME_WAIT only when its ISN is strictly beyond the
         dead incarnation's final receive point (wraparound-aware);
         otherwise it could be an old duplicate and is refused. *)
      let tw_ok =
        match t.guard with
        | None -> true
        | Some g ->
            if Guard.tw_syn_acceptable g ~flow ~isn:seg.S.seq then begin
              (if Option.is_some (Guard.tw_find g ~flow) then
                 (* RFC 6191 recycle: the table confirms an acceptable
                    SYN releases the parked tuple. *)
                 match lstep t Conn_state.Time_wait Conn_state.Ev_tw_syn with
                 | Conn_state.Reclaimed, _ ->
                     Guard.tw_remove g ~flow;
                     Guard.count g "tw_recycled_syn"
                 | _ -> ());
              true
            end
            else begin
              Guard.count g "tw_refused_syn";
              false
            end
      in
      if not tw_ok then ()
      else if Hashtbl.mem t.paused seg.S.dst_port then
        (* Accept backpressure: the application stopped draining its
           accept queue; defer the handshake to the client's retry. *)
        gcount t "shed_paused"
      else begin
        let cookie_guard =
          match t.guard with
          | Some g when Tcp.Flow.Tbl.length t.pending >= Guard.syn_backlog ->
              Some g
          | _ -> None
        in
        match (admission_full t flow, cookie_guard) with
        | Some shed, _ ->
            (* Connection-table pressure: shedding the SYN (newest
               first) is the only safe move — a cookie would only
               defer the failure past the handshake. *)
            gcount t shed
        | None, Some g ->
            (* Backlog full: answer statelessly. The SYN-ACK's ISN is a
               cookie over (flow, secret, epoch); the completing ACK
               re-derives everything, so this costs zero half-open
               state and is never retransmitted. *)
            Guard.count g "cookie_sent";
            let isn = Guard.cookie_isn g ~now:(Sim.Engine.now t.engine) ~flow in
            Host.Host_cpu.exec t.core ~category:"cp" ~cycles:cp_cycles
              (fun () ->
                Datapath.control_tx t.dp
                  (ctl_frame t ?win ~flow ~seq:isn
                     ~ack_seq:(Tcp.Seq32.succ seg.S.seq)
                     ~flags:{ S.no_flags with S.syn = true; ack = true }
                     ~mss:true ()))
        | None, None when not (Tcp.Flow.Tbl.mem t.pending flow) ->
          gcount t "syn_accepted";
          let our_isn = Tcp.Seq32.of_int (Sim.Rng.int t.rng 0x3FFFFFFF) in
          let p =
            {
              p_flow = flow;
              p_our_isn = our_isn;
              p_peer_isn = seg.S.seq;
              p_win = win;
              p_ctx = alloc_ctx t;
              p_kind = `Accept on_accept;
              p_installing = false;
            }
          in
          Tcp.Flow.Tbl.replace t.pending flow p;
          Host.Host_cpu.exec t.core ~category:"cp" ~cycles:cp_cycles
            (fun () ->
              Datapath.control_tx t.dp
                (ctl_frame t ?win ~flow ~seq:our_isn
                   ~ack_seq:(Tcp.Seq32.succ seg.S.seq)
                   ~flags:{ S.no_flags with S.syn = true; ack = true }
                   ~mss:true ()));
          handshake_retry t flow 0
        | None, None -> ()
      end

let handle_synack t (p : pending) (frame : S.frame) =
  let seg = frame.S.seg in
  match p.p_kind with
  | `Connect on_connected when not p.p_installing ->
      p.p_installing <- true;
      let p = { p with p_peer_isn = seg.S.seq } in
      Tcp.Flow.Tbl.replace t.pending p.p_flow p;
      Host.Host_cpu.exec t.core ~category:"cp" ~cycles:cp_cycles (fun () ->
          finalize t
            ~remote_win:(seg.S.window lsl Protocol.window_scale)
            p
            (fun handle ->
              Datapath.control_tx t.dp
                (ctl_frame t ~flow:p.p_flow
                   ~seq:(Tcp.Seq32.succ p.p_our_isn)
                   ~ack_seq:(Tcp.Seq32.succ seg.S.seq)
                   ~flags:S.flags_ack ~mss:false ());
              on_connected (Ok handle)))
  | _ -> ()

let handle_handshake_ack t (p : pending) (frame : S.frame) =
  match p.p_kind with
  | `Accept on_accept when not p.p_installing ->
      p.p_installing <- true;
      Host.Host_cpu.exec t.core ~category:"cp" ~cycles:cp_cycles (fun () ->
          finalize t
            ~remote_win:(frame.S.seg.S.window lsl Protocol.window_scale)
            p
            (fun handle ->
              on_accept handle;
              (* The handshake ACK may already carry data. *)
              if Bytes.length frame.S.seg.S.payload > 0 then
                Sim.Engine.schedule t.engine (Sim.Time.us 3) (fun () ->
                    Datapath.reinject_rx t.dp frame)))
  | _ -> ()

(* A valid cookie ACK installs the connection statelessly: our ISN is
   re-derived from the ACK field, the peer's from the sequence number.
   The pending record exists only for the duration of [finalize]. *)
let install_from_cookie t (frame : S.frame) ~flow ~win ~on_accept =
  let seg = frame.S.seg in
  gcount t "cookie_accepted";
  let p =
    {
      p_flow = flow;
      p_our_isn = Tcp.Seq32.add seg.S.ack_seq (-1);
      p_peer_isn = Tcp.Seq32.add seg.S.seq (-1);
      p_win = win;
      p_ctx = alloc_ctx t;
      p_kind = `Accept on_accept;
      p_installing = true;
    }
  in
  Tcp.Flow.Tbl.replace t.pending flow p;
  Host.Host_cpu.exec t.core ~category:"cp" ~cycles:cp_cycles (fun () ->
      finalize t
        ~remote_win:(seg.S.window lsl Protocol.window_scale)
        p
        (fun handle ->
          on_accept handle;
          if Bytes.length seg.S.payload > 0 then
            Sim.Engine.schedule t.engine (Sim.Time.us 3) (fun () ->
                Datapath.reinject_rx t.dp frame)))

(* Abort an installed connection on an incoming RST. The transition
   table sends every phase to RECLAIMED with a notify — except that it
   cannot fire unguarded ([Ev_rst] is a no-op there), matching the
   historical RSTs-ignored semantics enforced by the caller. *)
let abort_on_rst t ~conn =
  gcount t "rst_rx";
  let outs =
    match phase_of t conn with
    | Some st -> snd (lstep t st Conn_state.Ev_rst)
    | None -> [ Conn_state.Out_notify_err; Conn_state.Out_free ]
  in
  if List.mem Conn_state.Out_notify_err outs then
    Datapath.notify_abort t.dp ~conn;
  if List.mem Conn_state.Out_free outs then forget_flow t ~conn

let control_rx t (frame : S.frame) =
  let seg = frame.S.seg in
  let flow = Tcp.Flow.of_segment_rx seg in
  match Tcp.Flow.Tbl.find_opt t.pending flow with
  | Some p ->
      if seg.S.flags.S.rst && t.guard <> None then begin
        (* RST against a half-open handshake: fail it immediately
           (connects surface "Econnreset"; accepts just forget). *)
        gcount t "rst_rx";
        if not p.p_installing then begin
          Tcp.Flow.Tbl.remove t.pending flow;
          match p.p_kind with
          | `Connect k -> k (Error "Econnreset")
          | `Accept _ -> ()
        end
      end
      else if seg.S.flags.S.syn && seg.S.flags.S.ack then
        handle_synack t p frame
      else if seg.S.flags.S.syn then () (* SYN retransmit: SYN-ACK lost;
                                           resent on CP timeout below *)
      else if p.p_installing then
        (* Data raced connection installation: requeue into the RX
           pipeline once the install DMA has settled. *)
        Sim.Engine.schedule t.engine (Sim.Time.us 3) (fun () ->
            Datapath.reinject_rx t.dp frame)
      else if seg.S.flags.S.ack then handle_handshake_ack t p frame
  | None ->
      if seg.S.flags.S.rst then begin
        (* RST to an installed connection aborts it (including during
           half-close); RST to nothing is ignored. Unguarded, RSTs
           keep their historical no-op semantics. *)
        if t.guard <> None then
          match Datapath.conn_of_flow t.dp flow with
          | Some conn -> abort_on_rst t ~conn
          | None -> ()
      end
      else if seg.S.flags.S.syn && not seg.S.flags.S.ack then
        handle_syn t frame
      else if S.data_path_flags seg.S.flags && Datapath.has_flow t.dp flow
      then
        (* The segment was in flight through the CPI forwarding path
           when the connection finished installing: hand it back to
           the data path. *)
        Sim.Engine.schedule t.engine (Sim.Time.us 1) (fun () ->
            Datapath.reinject_rx t.dp frame)
      else
        match t.guard with
        | None -> ()  (* Stale segment of a dead connection: drop. *)
        | Some g -> (
            let listener = Hashtbl.find_opt t.listeners seg.S.dst_port in
            if
              seg.S.flags.S.ack
              && (not seg.S.flags.S.syn)
              && listener <> None
              && Guard.cookie_check g
                   ~now:(Sim.Engine.now t.engine)
                   ~flow
                   ~isn:(Tcp.Seq32.add seg.S.ack_seq (-1))
            then begin
              (* Completing ACK of a stateless SYN-ACK. Admission is
                 re-checked here: cookies defer the table commitment
                 to this point. *)
              match (admission_full t flow, listener) with
              | Some shed, _ -> Guard.count g shed
              | None, Some (win, on_accept) ->
                  install_from_cookie t frame ~flow ~win ~on_accept
              | None, None -> ()
            end
            else
              match Guard.tw_find g ~flow with
              | Some (snd_nxt, rcv_nxt) when seg.S.flags.S.fin ->
                  (* The peer retransmitted its FIN into our
                     TIME_WAIT: our final ACK was lost. The re-ACK
                     edge is the transition table's — dropping it
                     there fails both the FSM checker and this path. *)
                  if
                    List.mem Conn_state.Out_reack
                      (snd (lstep t Conn_state.Time_wait Conn_state.Ev_tw_fin))
                  then begin
                    Guard.count g "tw_reack";
                    Datapath.control_tx t.dp
                      (ctl_frame t ~flow ~seq:snd_nxt ~ack_seq:rcv_nxt
                         ~flags:S.flags_ack ~mss:false ())
                  end
              | Some _ -> ()
              | None ->
                  (* No connection, no cookie, no TIME_WAIT: actively
                     refuse so the peer aborts instead of timing out. *)
                  send_rst t ~flow seg)

(* --- Public connection API ------------------------------------------ *)

let listen t ?syn_ack_window ?(app = 0) ~port ~on_accept () =
  (match port_owner t port with
  | Some owner when owner <> app ->
      invalid_arg
        (Printf.sprintf
           "Control_plane.listen: port %d is reserved for application %d"
           port owner)
  | _ -> ());
  Hashtbl.replace t.listeners port (syn_ack_window, on_accept)

let connect t ~remote_ip ~remote_port ~ctx ~on_connected =
  let flow =
    Tcp.Flow.v ~local_ip:(Datapath.ip t.dp) ~local_port:t.next_port
      ~remote_ip ~remote_port
  in
  if Option.is_some (admission_full t flow) then
    on_connected (Error "connection limit reached")
  else begin
    t.next_port <- t.next_port + 1;
    let our_isn = Tcp.Seq32.of_int (Sim.Rng.int t.rng 0x3FFFFFFF) in
    let p =
      {
        p_flow = flow;
        p_our_isn = our_isn;
        p_peer_isn = Tcp.Seq32.zero;
        p_win = None;
        p_ctx = ctx;
        p_kind = `Connect on_connected;
        p_installing = false;
      }
    in
    Tcp.Flow.Tbl.replace t.pending flow p;
    Host.Host_cpu.exec t.core ~category:"cp" ~cycles:cp_cycles (fun () ->
        Datapath.control_tx t.dp
          (ctl_frame t ~flow ~seq:our_isn ~ack_seq:Tcp.Seq32.zero
             ~flags:{ S.no_flags with S.syn = true }
             ~mss:true ()));
    handshake_retry t flow 0
  end

(* Idempotent: a second close, or a close racing teardown/abort
   (unknown conn), is a no-op — in particular no second FIN is pushed
   through the CPI, where it could overtake an in-flight Tx_avail on
   another context ring. libTOE passes [~send_fin:false] because it
   already ordered the FIN behind its pending Tx_avails on the sock's
   own ring. *)
let close ?(send_fin = true) t ~conn =
  match Hashtbl.find_opt t.flows conn with
  | None -> ()
  | Some f ->
      let first = not f.cf_closing in
      f.cf_closing <- true;
      if send_fin && first then
        (* A first close finds the flow in ESTABLISHED or CLOSE_WAIT
           (tx_fin is only ever set by this FIN), and the table emits
           [Out_send_fin] from exactly those states. *)
        let outs =
          match phase_of t conn with
          | Some st -> snd (lstep t st Conn_state.Ev_app_close)
          | None -> [ Conn_state.Out_send_fin ]
        in
        if List.mem Conn_state.Out_send_fin outs then
          Datapath.cp_push t.dp { Meta.h_conn = conn; h_op = Meta.Fin }

(* --- Congestion control ----------------------------------------------- *)

let apply_rate t (f : cc_flow) bps =
  (* The administrative ceiling composes with congestion control: the
     stricter of the two wins. *)
  let bps =
    if f.cf_limit_bps > 0 then
      if bps = 0 then f.cf_limit_bps else Int.min bps f.cf_limit_bps
    else bps
  in
  if bps <> f.cf_rate_bps then begin
    f.cf_rate_bps <- bps;
    Datapath.set_rate t.dp ~conn:f.cf_conn ~bps
  end

let apply_decision t f = function
  | Cc.Keep -> ()
  | Cc.Rate bps -> apply_rate t f bps
  | Cc.Uncongested -> apply_rate t f 0

let set_rate_limit t ~conn ~bps =
  match Hashtbl.find_opt t.flows conn with
  | Some f ->
      f.cf_limit_bps <- Int.max 0 bps;
      (* Re-apply so the limit takes effect immediately. *)
      apply_rate t f f.cf_rate_bps
  | None -> ()

let rate_limit t ~conn =
  match Hashtbl.find_opt t.flows conn with
  | Some f -> f.cf_limit_bps
  | None -> 0


let iterate_flow t now (f : cc_flow) =
  let st = Datapath.read_cc_stats t.dp ~conn:f.cf_conn in
  f.cf_acc_ackb <- f.cf_acc_ackb + st.Datapath.ackb;
  f.cf_acc_ecnb <- f.cf_acc_ecnb + st.Datapath.ecnb;
  f.cf_acc_fretx <- f.cf_acc_fretx + st.Datapath.fretx;
  (* Forward progress re-arms the timeout at its base value. *)
  if st.Datapath.ackb > 0 then begin
    f.cf_rto <- rto;
    f.cf_retries <- 0
  end;
  (* Retransmission timeout monitoring (§3.4): only data actually in
     flight can time out — a paced flow between transmissions is not
     stalled. Consecutive timeouts without progress back the timeout
     off exponentially (capped), and past [max_rto_retries] the flow
     is declared dead: the application is notified ([x_err]) and the
     connection is torn down. *)
  let aborted =
    if
      st.Datapath.tx_inflight > 0
      && now - st.Datapath.last_progress > f.cf_rto
    then
      if f.cf_retries >= max_rto_retries then begin
        t.rto_aborts <- t.rto_aborts + 1;
        Datapath.notify_abort t.dp ~conn:f.cf_conn;
        forget_flow t ~conn:f.cf_conn;
        true
      end
      else begin
        t.rto_count <- t.rto_count + 1;
        Datapath.cp_push t.dp
          { Meta.h_conn = f.cf_conn; h_op = Meta.Retransmit };
        f.cf_acc_fretx <- f.cf_acc_fretx + 1;
        f.cf_retries <- f.cf_retries + 1;
        f.cf_rto <- Int.min (2 * f.cf_rto) rto_max;
        false
      end
    else false
  in
  if aborted then ()
  else begin
  if st.Datapath.ack_pending then
    Datapath.cp_push t.dp { Meta.h_conn = f.cf_conn; h_op = Meta.Ack_flush };
  (* One congestion decision per (estimated) RTT. *)
  let decision_interval =
    Int.max t.cfg.Config.cc_interval (Sim.Time.ns st.Datapath.rtt_est_ns)
  in
  if now - f.cf_last_decision >= decision_interval then begin
    let obs =
      {
        Cc.acked_bytes = f.cf_acc_ackb;
        ecn_bytes = f.cf_acc_ecnb;
        fast_retx = f.cf_acc_fretx;
        rtt_ns = st.Datapath.rtt_est_ns;
        interval = now - f.cf_last_decision;
      }
    in
    f.cf_acc_ackb <- 0;
    f.cf_acc_ecnb <- 0;
    f.cf_acc_fretx <- 0;
    f.cf_last_decision <- now;
    match f.cf_state with
    | Dctcp d ->
        apply_decision t f (Cc.Dctcp.update d ~wire_bps obs)
    | Timely tm ->
        apply_decision t f
          (Cc.Timely.update tm ~wire_bps obs)
    | No_cc -> ()
  end;
  (* Teardown: both directions closed. Guarded, the 4-tuple parks in
     the guard's TIME_WAIT table (so late segments are re-ACKed and
     only sufficiently-new SYNs recycle it) while the data-path state
     frees immediately — TIME_WAIT costs a table entry, never a
     connection slot. *)
  if f.cf_closing then begin
    match Datapath.conn t.dp f.cf_conn with
    | Some cs -> (
        (* The table reclaims on [Ev_teardown] only from CLOSED
           (fin_acked implies tx_fin, so CLOSED is exactly the old
           fin_acked && rx_fin test), entering TIME_WAIT when the
           guard is armed. *)
        match
          lstep t
            (Conn_state.Phase (Conn_state.close_phase cs))
            Conn_state.Ev_teardown
        with
        | Conn_state.Time_wait, _ ->
            (match t.guard with
            | Some g ->
                let snd_nxt =
                  Tcp.Seq32.add
                    (Conn_state.tx_seq_of_pos cs
                       cs.Conn_state.proto.Conn_state.tx_tail_pos)
                    1
                in
                let rcv_nxt =
                  Tcp.Reassembly.next cs.Conn_state.proto.Conn_state.reasm
                in
                Guard.tw_add g ~now ~flow:cs.Conn_state.flow ~snd_nxt
                  ~rcv_nxt
            | None -> ());
            forget_flow t ~conn:f.cf_conn
        | Conn_state.Reclaimed, _ -> forget_flow t ~conn:f.cf_conn
        | _ -> ())
    | None -> ()
  end
  end

(* FlexGuard reaper: expires TIME_WAIT entries and reclaims teardown
   state that stopped making progress. Scheduled only when the guard
   is on, so the default configuration adds zero engine events.

   Which states are reapable, which are exempt (Established: the
   application's business however idle; Close_wait: the peer closed
   but the local app still owns the socket — no TCP timer covers it),
   and which reclaims are quiet orphans (Fin_wait_2/Closed: our FIN
   acked, every byte delivered) versus genuine aborts
   (Fin_wait_1/Closing: a vanished peer) is all [Conn_state.step]'s
   [Ev_reap_idle] row — the reaper just applies the table's verdict. *)
let rec guard_loop t g () =
  let now = Sim.Engine.now t.engine in
  ignore (Guard.tw_reap g ~now);
  let stale =
    Hashtbl.fold
      (fun _ f acc ->
        match Datapath.conn t.dp f.cf_conn with
        | Some cs
          when now - cs.Conn_state.proto.Conn_state.last_progress
               > Guard.idle_timeout -> (
            match
              lstep t
                (Conn_state.Phase (Conn_state.close_phase cs))
                Conn_state.Ev_reap_idle
            with
            | Conn_state.Reclaimed, outs ->
                (f, not (List.mem Conn_state.Out_notify_err outs)) :: acc
            | _ -> acc)
        | _ -> acc)
      t.flows []
  in
  List.iter
    (fun (f, orphan) ->
      if orphan then Guard.count g "reaped_orphan"
      else begin
        Guard.count g "reaped_idle";
        Datapath.notify_abort t.dp ~conn:f.cf_conn
      end;
      forget_flow t ~conn:f.cf_conn)
    stale;
  Sim.Engine.schedule t.engine Guard.reap_interval (guard_loop t g)

let set_listener_paused t ~port paused =
  if paused then Hashtbl.replace t.paused port ()
  else Hashtbl.remove t.paused port

let listener_paused t ~port = Hashtbl.mem t.paused port

let rec cc_loop t () =
  let now = Sim.Engine.now t.engine in
  let flows = Hashtbl.fold (fun _ f acc -> f :: acc) t.flows [] in
  let n = List.length flows in
  if n > 0 then
    Host.Host_cpu.exec t.core ~category:"cp" ~cycles:(n * cc_flow_cycles)
      (fun () -> List.iter (iterate_flow t now) flows);
  Sim.Engine.schedule t.engine t.cfg.Config.cc_interval (cc_loop t)

let create engine ~config ~datapath ~core () =
  let t =
    {
      engine;
      cfg = config;
      dp = datapath;
      core;
      rng = Sim.Rng.split (Sim.Engine.Local.rng engine);
      guard = Datapath.guard datapath;
      paused = Hashtbl.create 4;
      listeners = Hashtbl.create 16;
      pending = Tcp.Flow.Tbl.create 64;
      flows = Hashtbl.create 256;
      next_port = 40_000;
      next_ctx = 0;
      rto_count = 0;
      rto_aborts = 0;
      conn_limit = None;
      partitions = [];
      shard_installed =
        Array.make (Flow_group.shards_of config.Config.scale) 0;
    }
  in
  Datapath.set_control_rx datapath (control_rx t);
  Sim.Engine.schedule engine config.Config.cc_interval (cc_loop t);
  (match t.guard with
  | Some g ->
      Sim.Engine.schedule engine Guard.reap_interval (guard_loop t g)
  | None -> ());
  t
