module S = Tcp.Segment
module Seq32 = Tcp.Seq32

let mac_of_ip ip = 0x020000000000 lor ip

type conn = {
  id : int;
  flow : Tcp.Flow.t;
  tx_isn : Seq32.t;
  rx_isn : Seq32.t;
  app_core : Host.Host_cpu.core;
  stack_core : Host.Host_cpu.core;
  tx_buf : Host.Payload_buf.t;
  rx_buf : Host.Payload_buf.t;
  mutable tx_tail : int;  (* app-appended end of stream *)
  mutable tx_next : int;  (* next byte to transmit *)
  mutable tx_max : int;  (* highest byte ever transmitted *)
  mutable tx_acked : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover_pos : int;
  mutable remote_win : int;
  reasm : Tcp.Reassembly_multi.t;
  mutable rx_avail : int;  (* advertised window *)
  mutable rx_read : int;  (* app read cursor *)
  mutable rx_ready : int;  (* delivered, unread *)
  mutable next_ts : int;
  mutable ece_pending : bool;
  mutable cwr_pending : bool;
  mutable ecn_cut_until : int;  (* no second ECN cut before this pos *)
  mutable rto_handle : Sim.Engine.handle option;
  mutable rto_backoff : int;
  mutable tx_fin : bool;
  mutable fin_sent : bool;
  mutable fin_acked : bool;
  mutable rx_fin : bool;
  mutable pumping : bool;
  mutable notify_pending : int;  (* bytes delivered, wake-up queued *)
  mutable notify_armed : bool;
  mutable notify_ok_at : Sim.Time.t;  (* moderation: next allowed wake *)
  mutable wnotify_armed : bool;
  mutable wnotify_ok_at : Sim.Time.t;
  mutable sock : Host.Api.socket option;
}

type pending = {
  p_flow : Tcp.Flow.t;
  p_our_isn : Seq32.t;
  mutable p_peer_isn : Seq32.t;
  p_kind :
    [ `Accept of Host.Api.socket -> unit
    | `Connect of (Host.Api.socket, string) result -> unit ];
  mutable p_done : bool;
}

type t = {
  engine : Sim.Engine.t;
  prof : Profile.t;
  cpu : Host.Host_cpu.t;
  port : Netsim.Fabric.port;
  ip : int;
  n_app_cores : int;
  conns : conn Tcp.Flow.Tbl.t;
  by_id : (int, conn) Hashtbl.t;
  pending : pending Tcp.Flow.Tbl.t;
  listeners : (int, Host.Api.socket -> unit) Hashtbl.t;
  rng : Sim.Rng.t;
  mutable next_id : int;
  mutable next_port : int;
  mutable rr_core : int;
  mutable nic_free : Sim.Time.t;  (* Chelsio ASIC serialisation *)
  mutable retx : int;
  mutable rto_count : int;
  endpoint : Host.Api.endpoint option ref;
}

let cpu t = t.cpu
let fabric_port t = t.port
let profile t = t.prof
let active_conns t = Tcp.Flow.Tbl.length t.conns
let retransmits t = t.retx
let rto_fires t = t.rto_count

(* --- Cost helpers ----------------------------------------------------- *)

let lock_scaled t cycles =
  let cores = float_of_int t.n_app_cores in
  int_of_float
    (float_of_int cycles *. (1. +. (t.prof.Profile.lock_factor *. (cores -. 1.))))

let seg_cost t base =
  lock_scaled t (base + t.prof.Profile.conn_penalty (active_conns t))

(* Stack processing runs inline on the app core or on a dedicated
   fast-path core, per profile. *)
let stack_core_for t conn_id app_core =
  match t.prof.Profile.placement with
  | Profile.Inline -> app_core
  | Profile.Dedicated n ->
      (* Fast-path cores live beyond the app cores. *)
      Host.Host_cpu.core t.cpu (t.n_app_cores + (conn_id mod n))

(* --- Wire helpers ------------------------------------------------------ *)

let us_of_time tm = (tm / 1_000_000) land 0xFFFF_FFFF
let scaled_window t avail = min 0xFFFF (avail lsr t.prof.Profile.window_scale)

(* Chelsio-style NIC: segments pass through the ASIC at a bounded rate
   with fixed latency; host stacks pass straight through. *)
let via_nic t k =
  match t.prof.Profile.nic_seg_rate with
  | None -> k ()
  | Some rate ->
      let now = Sim.Engine.now t.engine in
      let per_seg = int_of_float (1e12 /. rate) in
      let start = max now t.nic_free in
      t.nic_free <- start + per_seg;
      let delay = start + per_seg + t.prof.Profile.nic_latency - now in
      Sim.Engine.schedule t.engine delay k

let transmit_frame t frame =
  via_nic t (fun () -> Netsim.Fabric.transmit t.port frame)

let tx_seq c pos = Seq32.add c.tx_isn (1 + pos)
let rx_pos c seq = Seq32.diff seq (Seq32.add c.rx_isn 1)

let data_frame t c ~pos ~len ~fin =
  let payload =
    if len = 0 then Bytes.empty
    else Host.Payload_buf.read c.tx_buf ~off:pos ~len
  in
  let seg =
    S.make
      ~flags:
        {
          S.no_flags with
          S.ack = true;
          psh = true;
          fin;
          ece = c.ece_pending;
          cwr =
            (if c.cwr_pending then begin
               c.cwr_pending <- false;
               true
             end
             else false);
        }
      ~window:(scaled_window t c.rx_avail)
      ~options:
        {
          S.mss = None;
          ts = Some (us_of_time (Sim.Engine.now t.engine), c.next_ts);
        }
      ~payload ~src_ip:c.flow.Tcp.Flow.local_ip
      ~dst_ip:c.flow.Tcp.Flow.remote_ip
      ~src_port:c.flow.Tcp.Flow.local_port
      ~dst_port:c.flow.Tcp.Flow.remote_port ~seq:(tx_seq c pos)
      ~ack_seq:(Tcp.Reassembly_multi.next c.reasm)
      ()
  in
  S.make_frame
    ~ecn:(if t.prof.Profile.ecn_enabled then S.Ect0 else S.Not_ect)
    ~src_mac:(mac_of_ip c.flow.Tcp.Flow.local_ip)
    ~dst_mac:(mac_of_ip c.flow.Tcp.Flow.remote_ip)
    seg

let ack_frame t c =
  let seg =
    S.make
      ~flags:{ S.flags_ack with S.ece = c.ece_pending }
      ~window:(scaled_window t c.rx_avail)
      ~options:
        {
          S.mss = None;
          ts = Some (us_of_time (Sim.Engine.now t.engine), c.next_ts);
        }
      ~src_ip:c.flow.Tcp.Flow.local_ip ~dst_ip:c.flow.Tcp.Flow.remote_ip
      ~src_port:c.flow.Tcp.Flow.local_port
      ~dst_port:c.flow.Tcp.Flow.remote_port
      ~seq:(tx_seq c c.tx_next)
      ~ack_seq:(Tcp.Reassembly_multi.next c.reasm)
      ()
  in
  S.make_frame
    ~src_mac:(mac_of_ip c.flow.Tcp.Flow.local_ip)
    ~dst_mac:(mac_of_ip c.flow.Tcp.Flow.remote_ip)
    seg

(* --- RTO timer ---------------------------------------------------------- *)

let cancel_rto t c =
  match c.rto_handle with
  | Some h ->
      Sim.Engine.cancel t.engine h;
      c.rto_handle <- None
  | None -> ()

let rec arm_rto t c =
  cancel_rto t c;
  let delay = t.prof.Profile.min_rto * c.rto_backoff in
  c.rto_handle <-
    Some (Sim.Engine.schedule_cancellable t.engine delay (fun () -> rto_fire t c))

and rto_fire t c =
  c.rto_handle <- None;
  if c.tx_next > c.tx_acked || (c.fin_sent && not c.fin_acked) then begin
    t.rto_count <- t.rto_count + 1;
    c.ssthresh <- max (2 * t.prof.Profile.mss) ((c.tx_next - c.tx_acked) / 2);
    c.cwnd <- t.prof.Profile.mss;
    c.rto_backoff <- min 16 (c.rto_backoff * 2);
    c.dupacks <- 0;
    c.in_recovery <- false;
    (* All recovery models go back to the cumulative ACK on timeout. *)
    c.tx_next <- c.tx_acked;
    c.fin_sent <- false;
    arm_rto t c;
    pump t c
  end

(* --- Transmission ------------------------------------------------------- *)

and pump t c =
  if not c.pumping then begin
    c.pumping <- true;
    pump_one t c
  end

and pump_one t c =
  let mss = t.prof.Profile.mss in
  let flight = c.tx_next - c.tx_acked in
  let allowed = min c.cwnd c.remote_win - flight in
  let len = min mss (min (c.tx_tail - c.tx_next) allowed) in
  let fin_only =
    c.tx_fin && (not c.fin_sent) && c.tx_next = c.tx_tail && allowed >= 0
  in
  if len > 0 || fin_only then begin
    let pos = c.tx_next in
    let len = max 0 len in
    let fin = c.tx_fin && pos + len = c.tx_tail in
    Host.Host_cpu.exec c.stack_core ~category:"stack"
      ~cycles:(seg_cost t t.prof.Profile.tx_seg_cycles)
      (fun () ->
        (* Re-check: an ACK may have moved the window meanwhile. *)
        if pos = c.tx_next && (len > 0 || not c.fin_sent) then begin
          c.tx_next <- pos + len;
          if c.tx_next > c.tx_max then c.tx_max <- c.tx_next;
          if fin then c.fin_sent <- true;
          transmit_frame t (data_frame t c ~pos ~len ~fin);
          if c.rto_handle = None then arm_rto t c
        end;
        pump_one t c)
  end
  else c.pumping <- false

(* Retransmit a single segment at the cumulative ACK (selective
   repeat / NewReno hole repair). *)
and retransmit_head t c =
  let mss = t.prof.Profile.mss in
  let len = min mss (c.tx_tail - c.tx_acked) in
  let fin = c.tx_fin && c.tx_acked + len = c.tx_tail in
  if len > 0 || fin then begin
    t.retx <- t.retx + 1;
    Host.Host_cpu.exec c.stack_core ~category:"stack"
      ~cycles:(seg_cost t t.prof.Profile.tx_seg_cycles)
      (fun () ->
        transmit_frame t (data_frame t c ~pos:c.tx_acked ~len ~fin);
        if c.rto_handle = None then arm_rto t c)
  end

(* --- Receive ------------------------------------------------------------- *)

let deliver t c advance =
  (* Notification latency models interrupts + scheduler wake-up.
     Back-to-back arrivals coalesce (NAPI-style interrupt moderation):
     after a wake-up, the next one is deferred by the profile's
     moderation window, so bulk flows pay the notification cost once
     per window while sparse RPC traffic is unaffected. *)
  c.notify_pending <- c.notify_pending + advance;
  if not c.notify_armed then begin
    c.notify_armed <- true;
    let now = Sim.Engine.now t.engine in
    let delay =
      max t.prof.Profile.notify_latency (c.notify_ok_at - now)
    in
    Sim.Engine.schedule t.engine delay (fun () ->
        c.notify_armed <- false;
        c.notify_ok_at <-
          Sim.Engine.now t.engine + t.prof.Profile.notify_moderation;
        let epoll =
          int_of_float (t.prof.Profile.epoll_factor *. float_of_int
                          (active_conns t))
        in
        Host.Host_cpu.exec c.app_core ~category:"notify"
          ~cycles:(lock_scaled t (t.prof.Profile.notify_cycles + epoll))
          (fun () ->
            let batch = c.notify_pending in
            c.notify_pending <- 0;
            c.rx_ready <- c.rx_ready + batch;
            match c.sock with
            | Some sock -> sock.Host.Api.on_readable ()
            | None -> ()))
  end

let deliver_fin t c =
  Sim.Engine.schedule t.engine t.prof.Profile.notify_latency (fun () ->
      match c.sock with
      | Some sock -> sock.Host.Api.on_peer_closed ()
      | None -> ())

let notify_writable t c freed =
  (* Writable wake-ups coalesce under the same moderation as readable
     ones: a bulk sender is woken once per window, not once per ACK. *)
  if freed > 0 && not c.wnotify_armed then begin
    c.wnotify_armed <- true;
    let now = Sim.Engine.now t.engine in
    let delay =
      max t.prof.Profile.notify_latency (c.wnotify_ok_at - now)
    in
    Sim.Engine.schedule t.engine delay (fun () ->
        c.wnotify_armed <- false;
        c.wnotify_ok_at <-
          Sim.Engine.now t.engine + t.prof.Profile.notify_moderation;
        match c.sock with
        | Some sock -> sock.Host.Api.on_writable ()
        | None -> ())
  end

let enter_recovery t c =
  if not c.in_recovery then begin
    c.in_recovery <- true;
    c.recover_pos <- c.tx_next;
    c.ssthresh <- max (2 * t.prof.Profile.mss) ((c.tx_next - c.tx_acked) / 2);
    c.cwnd <- c.ssthresh;
    match t.prof.Profile.recovery with
    | Profile.Go_back_n ->
        t.retx <- t.retx + 1;
        c.tx_next <- c.tx_acked;
        c.fin_sent <- false;
        pump t c
    | Profile.Selective_repeat -> retransmit_head t c
    | Profile.Rto_only -> ()
  end

let process_ack t c (seg : S.t) ~ecn_ce =
  ignore ecn_ce;
  let fin_adj = if c.fin_sent then 1 else 0 in
  let ack_pos = Seq32.diff seg.S.ack_seq (Seq32.add c.tx_isn 1) in
  (* Validity is against the highest byte ever sent: after a
     go-back-N rewind, the receiver may legitimately ack beyond
     tx_next. *)
  if ack_pos > c.tx_max + fin_adj || ack_pos < c.tx_acked then ()
  else begin
    c.remote_win <- seg.S.window lsl t.prof.Profile.window_scale;
    let acked_data = min ack_pos c.tx_tail in
    let freed = acked_data - c.tx_acked in
    if freed > 0 || (c.fin_sent && ack_pos > c.tx_tail) then begin
      if c.fin_sent && ack_pos > c.tx_tail then c.fin_acked <- true;
      c.tx_acked <- acked_data;
      if c.tx_next < c.tx_acked then c.tx_next <- c.tx_acked;
      c.dupacks <- 0;
      c.rto_backoff <- 1;
      (* Congestion window growth. *)
      if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + freed
      else
        c.cwnd <-
          c.cwnd
          + max 1 (t.prof.Profile.mss * freed / max 1 c.cwnd);
      (* ECN response: at most one cut per window. *)
      if seg.S.flags.S.ece && c.tx_acked >= c.ecn_cut_until then begin
        c.ssthresh <- max (2 * t.prof.Profile.mss) (c.cwnd / 2);
        c.cwnd <- c.ssthresh;
        c.ecn_cut_until <- c.tx_next;
        c.cwr_pending <- true
      end;
      if c.in_recovery then begin
        if c.tx_acked >= c.recover_pos then c.in_recovery <- false
        else if t.prof.Profile.recovery = Profile.Selective_repeat then
          (* Partial ack: repair the next hole. *)
          retransmit_head t c
      end;
      if c.tx_acked < c.tx_next || (c.fin_sent && not c.fin_acked) then
        arm_rto t c
      else cancel_rto t c;
      notify_writable t c freed;
      pump t c
    end
    else if
      S.payload_len seg = 0 && (not seg.S.flags.S.fin)
      && ack_pos = c.tx_acked
      && c.tx_next > c.tx_acked
    then begin
      c.dupacks <- c.dupacks + 1;
      if c.dupacks >= t.prof.Profile.dupack_threshold then begin
        c.dupacks <- 0;
        enter_recovery t c
      end
    end
    else pump t c (* window update may unblock *)
  end

let process_segment t c (frame : S.frame) =
  let seg = frame.S.seg in
  if t.prof.Profile.ecn_enabled then begin
    if frame.S.ecn = S.Ce then c.ece_pending <- true;
    if seg.S.flags.S.cwr then c.ece_pending <- false
  end;
  if seg.S.flags.S.ack then process_ack t c seg ~ecn_ce:(frame.S.ecn = S.Ce);
  let plen = S.payload_len seg in
  let need_ack = ref false in
  if plen > 0 then begin
    (match
       Tcp.Reassembly_multi.process c.reasm ~seq:seg.S.seq ~len:plen
         ~window:c.rx_avail
     with
    | Tcp.Reassembly_multi.Accept { trim; len; advance } ->
        Host.Payload_buf.write c.rx_buf
          ~off:(rx_pos c (Seq32.add seg.S.seq trim))
          ~src:seg.S.payload ~src_off:trim ~len;
        c.rx_avail <- c.rx_avail - advance;
        (match seg.S.options.S.ts with
        | Some (tsval, _) -> c.next_ts <- tsval
        | None -> ());
        deliver t c advance
    | Tcp.Reassembly_multi.Ooo_accept { trim; off; len } ->
        Host.Payload_buf.write c.rx_buf
          ~off:(rx_pos c (Seq32.add seg.S.seq trim))
          ~src:seg.S.payload ~src_off:trim ~len;
        ignore off
    | Tcp.Reassembly_multi.Duplicate
    | Tcp.Reassembly_multi.Drop_out_of_window ->
        ());
    need_ack := true
  end;
  if seg.S.flags.S.fin && not c.rx_fin then begin
    let fin_seq = Seq32.add seg.S.seq plen in
    if Seq32.diff fin_seq (Tcp.Reassembly_multi.next c.reasm) = 0 then begin
      c.rx_fin <- true;
      Tcp.Reassembly_multi.force_advance c.reasm 1;
      deliver_fin t c
    end;
    need_ack := true
  end;
  if !need_ack then begin
    (* Pure ACK costs a fraction of full segment processing. *)
    Host.Host_cpu.exec c.stack_core ~category:"stack"
      ~cycles:(seg_cost t (t.prof.Profile.tx_seg_cycles / 4))
      (fun () -> transmit_frame t (ack_frame t c))
  end

(* --- Socket plumbing ----------------------------------------------------- *)

let charge_api t (c : conn) =
  Host.Host_cpu.exec_now c.app_core ~category:"sockets"
    ~cycles:(lock_scaled t t.prof.Profile.api_cycles)
    ()

let make_socket t c =
  let sock =
    Host.Api.make_socket ~sock_id:c.id ~core:c.app_core
      ~send:(fun data ->
        charge_api t c;
        let free =
          Host.Payload_buf.size c.tx_buf - (c.tx_tail - c.tx_acked)
        in
        let n = min (Bytes.length data) free in
        if n > 0 then begin
          Host.Payload_buf.write c.tx_buf ~off:c.tx_tail ~src:data
            ~src_off:0 ~len:n;
          c.tx_tail <- c.tx_tail + n;
          pump t c
        end;
        n)
      ~recv:(fun ~max ->
        charge_api t c;
        let n = min max c.rx_ready in
        if n <= 0 then Bytes.empty
        else begin
          let out = Host.Payload_buf.read c.rx_buf ~off:c.rx_read ~len:n in
          c.rx_read <- c.rx_read + n;
          c.rx_ready <- c.rx_ready - n;
          let was_closed = c.rx_avail < t.prof.Profile.mss in
          c.rx_avail <- c.rx_avail + n;
          if was_closed && c.rx_avail >= t.prof.Profile.mss then
            Host.Host_cpu.exec c.stack_core ~category:"stack"
              ~cycles:(seg_cost t (t.prof.Profile.tx_seg_cycles / 4))
              (fun () -> transmit_frame t (ack_frame t c));
          out
        end)
      ~rx_available:(fun () -> c.rx_ready)
      ~tx_space:(fun () ->
        Host.Payload_buf.size c.tx_buf - (c.tx_tail - c.tx_acked))
      ~close:(fun () ->
        charge_api t c;
        c.tx_fin <- true;
        pump t c)
  in
  c.sock <- Some sock;
  sock

let next_app_core t =
  let core = Host.Host_cpu.core t.cpu (t.rr_core mod t.n_app_cores) in
  t.rr_core <- t.rr_core + 1;
  core

let make_conn t ~flow ~tx_isn ~rx_isn =
  let id = t.next_id in
  t.next_id <- id + 1;
  let app_core = next_app_core t in
  let c =
    {
      id;
      flow;
      tx_isn;
      rx_isn;
      app_core;
      stack_core = stack_core_for t id app_core;
      tx_buf = Host.Payload_buf.create ~size:t.prof.Profile.tx_buf_bytes;
      rx_buf = Host.Payload_buf.create ~size:t.prof.Profile.rx_buf_bytes;
      tx_tail = 0;
      tx_next = 0;
      tx_max = 0;
      tx_acked = 0;
      cwnd = 10 * t.prof.Profile.mss;
      ssthresh = max_int / 2;
      dupacks = 0;
      in_recovery = false;
      recover_pos = 0;
      remote_win = 0xFFFF lsl t.prof.Profile.window_scale;
      reasm = Tcp.Reassembly_multi.create ~next:(Seq32.add rx_isn 1);
      rx_avail = t.prof.Profile.rx_buf_bytes;
      rx_read = 0;
      rx_ready = 0;
      next_ts = 0;
      ece_pending = false;
      cwr_pending = false;
      ecn_cut_until = 0;
      rto_handle = None;
      rto_backoff = 1;
      tx_fin = false;
      fin_sent = false;
      fin_acked = false;
      rx_fin = false;
      pumping = false;
      notify_pending = 0;
      notify_armed = false;
      notify_ok_at = Sim.Time.zero;
      wnotify_armed = false;
      wnotify_ok_at = Sim.Time.zero;
      sock = None;
    }
  in
  Tcp.Flow.Tbl.replace t.conns flow c;
  Hashtbl.replace t.by_id id c;
  c

(* --- Handshake ------------------------------------------------------------ *)

let ctl_frame t ~flow ~seq ~ack_seq ~flags =
  let seg =
    S.make ~flags
      ~options:{ S.mss = Some t.prof.Profile.mss; ts = None }
      ~window:(scaled_window t t.prof.Profile.rx_buf_bytes)
      ~src_ip:flow.Tcp.Flow.local_ip ~dst_ip:flow.Tcp.Flow.remote_ip
      ~src_port:flow.Tcp.Flow.local_port
      ~dst_port:flow.Tcp.Flow.remote_port ~seq ~ack_seq ()
  in
  S.make_frame
    ~src_mac:(mac_of_ip flow.Tcp.Flow.local_ip)
    ~dst_mac:(mac_of_ip flow.Tcp.Flow.remote_ip)
    seg

let rec handshake_retry t flow attempt =
  Sim.Engine.schedule t.engine (Sim.Time.ms 5) (fun () ->
      match Tcp.Flow.Tbl.find_opt t.pending flow with
      | Some p when (not p.p_done) && attempt < 10 ->
          (match p.p_kind with
          | `Connect _ ->
              transmit_frame t
                (ctl_frame t ~flow ~seq:p.p_our_isn ~ack_seq:Seq32.zero
                   ~flags:{ S.no_flags with S.syn = true })
          | `Accept _ ->
              transmit_frame t
                (ctl_frame t ~flow ~seq:p.p_our_isn
                   ~ack_seq:(Seq32.succ p.p_peer_isn)
                   ~flags:{ S.no_flags with S.syn = true; ack = true }));
          handshake_retry t flow (attempt + 1)
      | Some p when (not p.p_done) && attempt >= 10 -> begin
          Tcp.Flow.Tbl.remove t.pending flow;
          match p.p_kind with
          | `Connect k -> k (Error "connection timed out")
          | `Accept _ -> ()
        end
      | _ -> ())

let finish_handshake t (p : pending) =
  p.p_done <- true;
  Tcp.Flow.Tbl.remove t.pending p.p_flow;
  let c =
    make_conn t ~flow:p.p_flow ~tx_isn:p.p_our_isn ~rx_isn:p.p_peer_isn
  in
  let sock = make_socket t c in
  match p.p_kind with
  | `Accept k -> k sock
  | `Connect k -> k (Ok sock)

let handle_ctl t (frame : S.frame) =
  let seg = frame.S.seg in
  let flow = Tcp.Flow.of_segment_rx seg in
  match Tcp.Flow.Tbl.find_opt t.pending flow with
  | Some p ->
      if seg.S.flags.S.syn && seg.S.flags.S.ack then begin
        match p.p_kind with
        | `Connect _ when not p.p_done ->
            p.p_peer_isn <- seg.S.seq;
            transmit_frame t
              (ctl_frame t ~flow ~seq:(Seq32.succ p.p_our_isn)
                 ~ack_seq:(Seq32.succ seg.S.seq)
                 ~flags:S.flags_ack);
            finish_handshake t p
        | _ -> ()
      end
      else if (not seg.S.flags.S.syn) && seg.S.flags.S.ack && not p.p_done
      then begin
        finish_handshake t p;
        (* The third-way ACK may carry data. *)
        if S.payload_len seg > 0 then
          match Tcp.Flow.Tbl.find_opt t.conns flow with
          | Some c -> process_segment t c frame
          | None -> ()
      end
  | None ->
      if seg.S.flags.S.syn && not seg.S.flags.S.ack then begin
        match Hashtbl.find_opt t.listeners seg.S.dst_port with
        | None -> ()
        | Some on_accept ->
            let our_isn = Seq32.of_int (Sim.Rng.int t.rng 0x3FFFFFFF) in
            let p =
              {
                p_flow = flow;
                p_our_isn = our_isn;
                p_peer_isn = seg.S.seq;
                p_kind = `Accept on_accept;
                p_done = false;
              }
            in
            Tcp.Flow.Tbl.replace t.pending flow p;
            transmit_frame t
              (ctl_frame t ~flow ~seq:our_isn
                 ~ack_seq:(Seq32.succ seg.S.seq)
                 ~flags:{ S.no_flags with S.syn = true; ack = true });
            handshake_retry t flow 0
      end

let rx_frame t (frame : S.frame) =
  via_nic t (fun () ->
      let seg = frame.S.seg in
      let flow = Tcp.Flow.of_segment_rx seg in
      match Tcp.Flow.Tbl.find_opt t.conns flow with
      | Some c when not seg.S.flags.S.syn ->
          let cost =
            if S.payload_len seg > 0 then t.prof.Profile.rx_seg_cycles
            else t.prof.Profile.rx_seg_cycles / 4
          in
          Host.Host_cpu.exec c.stack_core ~category:"stack"
            ~cycles:(seg_cost t cost)
            (fun () -> process_segment t c frame)
      | _ -> handle_ctl t frame)

(* --- Construction ----------------------------------------------------------- *)

let endpoint t = Option.get !(t.endpoint)

let create engine ~fabric ~profile:prof ~ip ?(app_cores = 1)
    ?(wire_gbps = 40.0) () =
  if Netsim.Fabric.engine fabric != engine then
    invalid_arg "Stack.create: the node's engine is not its fabric's";
  let extra =
    match prof.Profile.placement with
    | Profile.Inline -> 0
    | Profile.Dedicated n -> n
  in
  let cpu = Host.Host_cpu.create engine ~cores:(app_cores + extra) () in
  Host.Host_cpu.set_noise cpu
    ~interval_cycles:prof.Profile.noise_interval_cycles
    ~mean_cycles:prof.Profile.noise_mean_cycles;
  let endpoint_ref = ref None in
  let rec t =
    lazy
      {
        engine;
        prof;
        cpu;
        port =
          Netsim.Fabric.add_port fabric ~rate_gbps:wire_gbps
            ~mac:(mac_of_ip ip) ~ip
            ~rx:(fun frame -> rx_frame (Lazy.force t) frame)
            ();
        ip;
        n_app_cores = app_cores;
        conns = Tcp.Flow.Tbl.create 256;
        by_id = Hashtbl.create 256;
        pending = Tcp.Flow.Tbl.create 64;
        listeners = Hashtbl.create 8;
        rng = Sim.Rng.split (Sim.Engine.Local.rng engine);
        next_id = 0;
        next_port = 41_000;
        rr_core = 0;
        nic_free = Sim.Time.zero;
        retx = 0;
        rto_count = 0;
        endpoint = endpoint_ref;
      }
  in
  let t = Lazy.force t in
  endpoint_ref :=
    Some
      {
        Host.Api.listen =
          (fun ~port ~on_accept -> Hashtbl.replace t.listeners port on_accept);
        connect =
          (fun ~remote_ip ~remote_port ~on_connected ->
            let local_port = t.next_port in
            t.next_port <- local_port + 1;
            let flow =
              Tcp.Flow.v ~local_ip:ip ~local_port ~remote_ip ~remote_port
            in
            let our_isn = Seq32.of_int (Sim.Rng.int t.rng 0x3FFFFFFF) in
            let p =
              {
                p_flow = flow;
                p_our_isn = our_isn;
                p_peer_isn = Seq32.zero;
                p_kind = `Connect on_connected;
                p_done = false;
              }
            in
            Tcp.Flow.Tbl.replace t.pending flow p;
            transmit_frame t
              (ctl_frame t ~flow ~seq:our_isn ~ack_seq:Seq32.zero
                 ~flags:{ S.no_flags with S.syn = true });
            handshake_retry t flow 0);
        local_ip = ip;
        app_core = Host.Host_cpu.core cpu 0;
      };
  t
