type sock = {
  handle : Control_plane.conn_handle;
  api : Host.Api.socket;
  core : Host.Host_cpu.core;
  ctx : int;
  (* libTOE-side cursors over the shared host payload buffers. *)
  mutable tx_tail : int;  (* next stream offset the app writes *)
  mutable tx_free : int;  (* free TX-buffer space *)
  mutable rx_read : int;  (* next stream offset the app reads *)
  mutable rx_ready : int;  (* notified, unread bytes *)
  mutable rx_credit_pending : int;  (* consumed, not yet returned *)
  mutable tx_avail_pending : int;  (* appended, not yet announced *)
  mutable fin_pending : bool;
  mutable hc_retry_armed : bool;
  mutable hc_retry_delay : Sim.Time.t;  (* current backoff *)
  mutable hc_batch_armed : bool;  (* coalescing-window timer pending *)
  mutable peer_closed : bool;
  mutable closed : bool;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  dp : Datapath.t;
  control : Control_plane.t;
  cores : Host.Host_cpu.core array;
  by_opaque : sock Nfp.Conn_table.t;  (* opaque = connection index *)
  mutable next_sock : int;
  mutable next_core : int;
  mutable atx_retries : int;
  mutable aborted : int;
  endpoint : Host.Api.endpoint;
}

let atx_retries t = t.atx_retries
let sockets_aborted t = t.aborted

let charge sock cycles =
  Host.Host_cpu.exec_now sock.core ~category:"sockets" ~cycles ()

let hc_retry_base = Sim.Time.us 5
let hc_retry_max = Sim.Time.us 80

(* Post pending host-control updates. The ATX ring can be full under
   bursts (it flow-controls the host, §3.1.1): updates coalesce here
   and retry with exponential backoff instead of being lost — a lost
   Tx_avail would strand the data forever, while hammering a full
   ring every fixed interval just burns the doorbell path. *)
let rec flush_hc t sock =
  let conn = sock.handle.Control_plane.ch_conn in
  let push op = Datapath.atx_push t.dp ~ctx:sock.ctx
      { Meta.h_conn = conn; h_op = op }
  in
  if sock.tx_avail_pending > 0 then begin
    let n = sock.tx_avail_pending in
    if push (Meta.Tx_avail n) then sock.tx_avail_pending <- 0
  end;
  if sock.tx_avail_pending = 0 && sock.rx_credit_pending > 0 then begin
    let n = sock.rx_credit_pending in
    if push (Meta.Rx_credit n) then sock.rx_credit_pending <- 0
  end;
  if
    sock.tx_avail_pending = 0 && sock.rx_credit_pending = 0
    && sock.fin_pending
  then begin
    if push Meta.Fin then sock.fin_pending <- false
  end;
  let backlog =
    sock.tx_avail_pending > 0 || sock.rx_credit_pending > 0
    || sock.fin_pending
  in
  if not backlog then sock.hc_retry_delay <- hc_retry_base
  else if not sock.hc_retry_armed then begin
    sock.hc_retry_armed <- true;
    t.atx_retries <- t.atx_retries + 1;
    let delay = sock.hc_retry_delay in
    sock.hc_retry_delay <- Int.min (2 * delay) hc_retry_max;
    Sim.Engine.schedule t.engine delay (fun () ->
        sock.hc_retry_armed <- false;
        flush_hc t sock)
  end

(* --- Socket operations -------------------------------------------- *)

let do_send t sock data =
  if sock.closed then 0
  else begin
    charge sock t.cfg.Config.sockets_api_cycles;
    let n = Int.min (Bytes.length data) sock.tx_free in
    if n > 0 then begin
      let buf = sock.handle.Control_plane.ch_state.Conn_state.post
                  .Conn_state.tx_buf
      in
      Host.Payload_buf.write buf ~off:sock.tx_tail ~src:data ~src_off:0
        ~len:n;
      sock.tx_tail <- sock.tx_tail + n;
      sock.tx_free <- sock.tx_free - n;
      sock.tx_avail_pending <- sock.tx_avail_pending + n;
      (* HC-update coalescing (§3.4): above batch degree 1 small appends
         accumulate into one Tx_avail doorbell — posted as soon as a
         full segment's worth is pending, or when the batch-delay
         timer fires on a partial window. Degree 1 posts every
         append, exactly as before. *)
      if
        Config.batch_degree t.cfg <= 1
        || sock.tx_avail_pending >= t.cfg.Config.mss
      then flush_hc t sock
      else if not sock.hc_batch_armed then begin
        sock.hc_batch_armed <- true;
        Sim.Engine.schedule t.engine t.cfg.Config.batch_delay (fun () ->
            sock.hc_batch_armed <- false;
            flush_hc t sock)
      end
    end;
    n
  end

let do_recv t sock ~max =
  charge sock t.cfg.Config.sockets_api_cycles;
  let n = Int.min max sock.rx_ready in
  if n <= 0 then Bytes.empty
  else begin
    let buf =
      sock.handle.Control_plane.ch_state.Conn_state.post.Conn_state.rx_buf
    in
    let out = Host.Payload_buf.read buf ~off:sock.rx_read ~len:n in
    sock.rx_read <- sock.rx_read + n;
    Host.Payload_buf.release buf ~upto:sock.rx_read;
    sock.rx_ready <- sock.rx_ready - n;
    (* Return buffer space to the data path's receive window; credits
       are coalesced (the paper batches HC updates per doorbell) and
       flushed once an eighth of the buffer is pending. *)
    sock.rx_credit_pending <- sock.rx_credit_pending + n;
    if sock.rx_credit_pending >= t.cfg.Config.rx_buf_bytes / 8 then
      flush_hc t sock;
    out
  end

let do_close t sock =
  if not sock.closed then begin
    sock.closed <- true;
    charge sock t.cfg.Config.sockets_api_cycles;
    sock.fin_pending <- true;
    flush_hc t sock;
    (* The FIN rides the sock's own context ring, ordered behind any
       pending Tx_avails (flush_hc above). [~send_fin:false] keeps the
       control plane from pushing a second FIN on ring 0, which could
       overtake them and freeze the stream tail early. *)
    Control_plane.close ~send_fin:false t.control
      ~conn:sock.handle.Control_plane.ch_conn
  end

let make_sock t (handle : Control_plane.conn_handle) =
  let ctx = handle.Control_plane.ch_ctx mod Datapath.num_ctx t.dp in
  let core = t.cores.(ctx mod Array.length t.cores) in
  let sock_id = t.next_sock in
  t.next_sock <- sock_id + 1;
  let rec api =
    lazy
      (Host.Api.make_socket ~sock_id ~core
         ~send:(fun data -> do_send t (Lazy.force sockref) data)
         ~recv:(fun ~max -> do_recv t (Lazy.force sockref) ~max)
         ~rx_available:(fun () -> (Lazy.force sockref).rx_ready)
         ~tx_space:(fun () -> (Lazy.force sockref).tx_free)
         ~close:(fun () -> do_close t (Lazy.force sockref)))
  and sockref =
    lazy
      {
        handle;
        api = Lazy.force api;
        core;
        ctx;
        tx_tail = 0;
        tx_free = t.cfg.Config.tx_buf_bytes;
        rx_read = 0;
        rx_ready = 0;
        rx_credit_pending = 0;
        tx_avail_pending = 0;
        fin_pending = false;
        hc_retry_armed = false;
        hc_retry_delay = hc_retry_base;
        hc_batch_armed = false;
        peer_closed = false;
        closed = false;
      }
  in
  let sock = Lazy.force sockref in
  Nfp.Conn_table.replace t.by_opaque
    handle.Control_plane.ch_state.Conn_state.post.Conn_state.opaque sock;
  sock

(* --- ARX notification handling ------------------------------------- *)

let on_arx t (d : Meta.arx_desc) =
  match Nfp.Conn_table.find_opt t.by_opaque d.Meta.x_opaque with
  | None -> ()
  | Some sock ->
      Host.Host_cpu.exec sock.core ~category:"sockets"
        ~cycles:t.cfg.Config.notify_cycles (fun () ->
          if d.Meta.x_err then begin
            (* Connection aborted by the control plane: the data-path
               state is gone, so pending HC updates are moot and no
               further notifications will arrive. *)
            sock.closed <- true;
            sock.peer_closed <- true;
            sock.tx_avail_pending <- 0;
            sock.rx_credit_pending <- 0;
            sock.fin_pending <- false;
            t.aborted <- t.aborted + 1;
            Nfp.Conn_table.remove t.by_opaque d.Meta.x_opaque;
            sock.api.Host.Api.on_error ()
          end
          else begin
            if d.Meta.x_rx_bytes > 0 then
              sock.rx_ready <- sock.rx_ready + d.Meta.x_rx_bytes;
            if d.Meta.x_tx_freed > 0 then
              sock.tx_free <- sock.tx_free + d.Meta.x_tx_freed;
            if d.Meta.x_fin then sock.peer_closed <- true;
            if d.Meta.x_rx_bytes > 0 then sock.api.Host.Api.on_readable ();
            if d.Meta.x_tx_freed > 0 then sock.api.Host.Api.on_writable ();
            if d.Meta.x_fin then sock.api.Host.Api.on_peer_closed ()
          end)

(* --- Endpoint construction ------------------------------------------ *)

let create engine ~config ~datapath ~control ~cores () =
  if cores = [] then invalid_arg "Libtoe.create: needs at least one core";
  let rec t =
    lazy
      {
        engine;
        cfg = config;
        dp = datapath;
        control;
        cores = Array.of_list cores;
        by_opaque = Nfp.Conn_table.create ();
        next_sock = 0;
        next_core = 0;
        atx_retries = 0;
        aborted = 0;
        endpoint =
          {
            Host.Api.listen =
              (fun ~port ~on_accept ->
                Control_plane.listen control ~port
                  ~on_accept:(fun handle ->
                    let sock = make_sock (Lazy.force t) handle in
                    on_accept sock.api)
                  ());
            connect =
              (fun ~remote_ip ~remote_port ~on_connected ->
                let lt = Lazy.force t in
                let ctx = lt.next_core mod Datapath.num_ctx lt.dp in
                lt.next_core <- lt.next_core + 1;
                Control_plane.connect control ~remote_ip ~remote_port ~ctx
                  ~on_connected:(fun result ->
                    match result with
                    | Ok handle ->
                        let sock = make_sock lt handle in
                        on_connected (Ok sock.api)
                    | Error e -> on_connected (Error e)));
            local_ip = Datapath.ip datapath;
            app_core = List.hd cores;
          };
      }
  in
  let t = Lazy.force t in
  for ctx = 0 to Datapath.num_ctx datapath - 1 do
    Datapath.set_arx_handler datapath ~ctx (on_arx t)
  done;
  t

let endpoint t = t.endpoint
