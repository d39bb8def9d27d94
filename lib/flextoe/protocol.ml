open Conn_state

let us_of_time t = (t / 1_000_000) land 0xFFFF_FFFF

let scaled_window cfg avail =
  Int.min 0xFFFF (avail lsr cfg.Config.window_scale)

let make_ack cfg conn ~gseq =
  let p = conn.proto in
  let ack = Tcp.Reassembly.next p.reasm in
  {
    Meta.a_conn = conn.idx;
    a_gseq = gseq;
    a_seq = tx_seq_of_pos conn p.tx_next_pos;
    a_ack = ack;
    a_wnd = scaled_window cfg p.rx_avail;
    a_ts_ecr = p.next_ts;
    a_ece = p.ece_pending;
  }

(* Cumulative-ACK processing: returns (freed, ack_bytes, ecn_bytes,
   rtt_ns, wake, fast_retx). *)
let process_ack cfg ~now conn (s : Meta.rx_summary) =
  ignore cfg;
  let p = conn.proto in
  let fin_adj = if p.fin_sent || p.fin_acked then 1 else 0 in
  let ack_pos = tx_pos_of_seq conn s.Meta.ack_seq in
  (* Validity is against the highest byte ever sent: after a
     go-back-N rewind the receiver may legitimately acknowledge
     beyond [tx_next_pos]. *)
  if ack_pos > p.tx_max_pos + fin_adj || ack_pos < p.tx_acked_pos then
    (* Acks data we never sent, or ancient: ignore. *)
    (0, 0, 0, 0, false, false)
  else begin
    let old_win = p.remote_win in
    let old_usable = p.remote_win - tx_unacked conn in
    p.remote_win <- s.Meta.wnd lsl cfg.Config.window_scale;
    let acked_data = Int.min ack_pos p.tx_tail_pos in
    let freed = acked_data - p.tx_acked_pos in
    if freed > 0 || (p.fin_sent && ack_pos > p.tx_tail_pos) then begin
      if p.fin_sent && ack_pos > p.tx_tail_pos then p.fin_acked <- true;
      p.tx_acked_pos <- acked_data;
      if p.tx_next_pos < p.tx_acked_pos then p.tx_next_pos <- p.tx_acked_pos;
      p.dupack_cnt <- 0;
      p.last_progress <- now;
      let rtt =
        (* Karn: an ACK that doesn't pass the retransmission high-water
           mark may echo a timestamp from the original transmission —
           no sample. *)
        if ack_pos <= p.karn_pos then 0
        else
          match s.Meta.ts with
          | Some (_tsval, tsecr) when tsecr > 0 ->
              let sample = (us_of_time now - tsecr) land 0xFFFF_FFFF in
              if sample < 10_000_000 then sample * 1000 else 0
          | _ -> 0
      in
      let ecnb = if s.Meta.ece then freed else 0 in
      if s.Meta.ece then p.cwr_pending <- true;
      (freed, freed, ecnb, rtt, true, false)
    end
    else begin
      (* No progress: count duplicate ACKs on pure-ACK segments. A
         segment that changes the advertised window is a window
         update, not a duplicate (RFC 5681). *)
      let window_changed = p.remote_win <> old_win in
      let is_dup =
        Bytes.length s.Meta.payload = 0
        && (not s.Meta.fin)
        && (not window_changed)
        && ack_pos = p.tx_acked_pos
        && tx_unacked conn > 0
      in
      if is_dup then begin
        p.dupack_cnt <- (p.dupack_cnt + 1) land 0xF;
        if p.dupack_cnt >= 3 && p.tx_acked_pos >= p.recover_pos then begin
          (* Fast retransmit: go-back-N reset. *)
          p.recover_pos <- p.tx_next_pos;
          p.tx_next_pos <- p.tx_acked_pos;
          p.karn_pos <- p.tx_max_pos;
          p.fin_sent <- false;
          p.dupack_cnt <- 0;
          (0, 0, 0, 0, true, true)
        end
        else (0, 0, 0, 0, false, false)
      end
      else begin
        (* Window update may reopen a stalled flow. *)
        let new_usable = p.remote_win - tx_unacked conn in
        let wake = old_usable <= 0 && new_usable > 0 in
        (0, 0, 0, 0, wake, false)
      end
    end
  end

(* The accepted bytes of a payload. A whole payload is shared, not
   copied: nothing writes a frame's payload in place (XDP and eBPF see
   [Wire.encode] copies, and fault injection copies before it
   corrupts). *)
let accepted payload ~trim ~len =
  if trim = 0 && len = Bytes.length payload then payload
  else Bytes.sub payload trim len

let rx cfg ~now conn (s : Meta.rx_summary) ~alloc_gseq =
  let p = conn.proto in
  (* ECN: a CE mark on any arriving segment sets the echo state; CWR
     from the peer clears it. *)
  if s.Meta.ecn_ce then p.ece_pending <- true;
  if s.Meta.cwr then p.ece_pending <- false;
  let freed, ackb, ecnb, rtt, wake_ack, fretx =
    if s.Meta.has_ack then process_ack cfg ~now conn s
    else (0, 0, 0, 0, false, false)
  in
  let plen = Bytes.length s.Meta.payload in
  let place = ref None in
  let advance = ref 0 in
  let need_ack = ref false in
  (* In delayed-ACK mode a plain in-order segment may defer its
     acknowledgment; anything irregular acknowledges immediately. *)
  let delayable = ref false in
  if plen > 0 then begin
    match
      Tcp.Reassembly.process p.reasm ~seq:s.Meta.seq ~len:plen
        ~window:p.rx_avail
    with
    | Tcp.Reassembly.Accept { trim; len; advance = adv; filled_hole } ->
        let pos = rx_pos_of_seq conn (Tcp.Seq32.add s.Meta.seq trim) in
        place := Some (pos, accepted s.Meta.payload ~trim ~len);
        p.rx_avail <- p.rx_avail - adv;
        advance := adv;
        need_ack := true;
        delayable := (not filled_hole) && trim = 0;
        (* In-order data refreshes the timestamp echo. *)
        (match s.Meta.ts with
        | Some (tsval, _) -> p.next_ts <- tsval
        | None -> ())
    | Tcp.Reassembly.Ooo_accept { trim; off; len } ->
        let pos = rx_next_pos conn + off in
        ignore trim;
        place := Some (pos, accepted s.Meta.payload ~trim ~len);
        need_ack := true
    | Tcp.Reassembly.Duplicate | Tcp.Reassembly.Drop_merge_failed
    | Tcp.Reassembly.Drop_out_of_window ->
        (* Re-ack at the expected sequence number to prod the sender. *)
        need_ack := true
  end;
  (* FIN: only consumable once all preceding data is in order. A FIN
     ahead of the in-order point (its carrier overtook earlier data)
     is remembered, not dropped — it is consumed below when
     reassembly reaches its cut point, which may be this very segment
     filling the hole. *)
  let fin_reached = ref false in
  if s.Meta.fin && not p.rx_fin then begin
    let fin_seq = Tcp.Seq32.add s.Meta.seq plen in
    if Tcp.Seq32.diff fin_seq (Tcp.Reassembly.next p.reasm) >= 0 then
      p.rx_fin_pending <- Some fin_seq;
    need_ack := true
  end;
  (match p.rx_fin_pending with
  | Some fs
    when (not p.rx_fin)
         && Tcp.Seq32.diff fs (Tcp.Reassembly.next p.reasm) <= 0 ->
      p.rx_fin_pending <- None;
      p.rx_fin <- true;
      Tcp.Reassembly.force_advance p.reasm 1;
      fin_reached := true;
      need_ack := true
  | _ -> ());
  let ack =
    if not !need_ack then None
    else if cfg.Config.delayed_acks && !delayable && not !fin_reached then begin
      p.delack_segs <- p.delack_segs + 1;
      if p.delack_segs >= 2 then begin
        p.delack_segs <- 0;
        Some (make_ack cfg conn ~gseq:(alloc_gseq ()))
      end
      else None
    end
    else begin
      p.delack_segs <- 0;
      Some (make_ack cfg conn ~gseq:(alloc_gseq ()))
    end
  in
  {
    Meta.v_conn = conn.idx;
    v_gseq = s.Meta.rx_gseq;
    v_place = !place;
    v_rx_advance = !advance;
    v_tx_freed = freed;
    v_ack = ack;
    v_fin_reached = !fin_reached;
    v_wake_tx = wake_ack;
    v_rtt_sample_ns = rtt;
    v_ack_bytes = ackb;
    v_ecn_bytes = ecnb;
    v_fast_retx = fretx;
  }

let tx cfg ~now conn ~alloc_gseq =
  ignore now;
  let p = conn.proto in
  let usable = p.remote_win - tx_unacked conn in
  (* TSO (§3.4): one descriptor may carry up to batch-degree MSS
     units; the NBI splits it back into wire frames. At degree 1 the
     cap is exactly [mss], today's per-segment behavior. *)
  let cap = cfg.Config.mss * Config.batch_degree cfg in
  let len = Int.min cap (Int.min (tx_avail conn) usable) in
  let emit ~len ~fin =
    let pos = p.tx_next_pos in
    let seq = tx_seq_of_pos conn pos in
    p.tx_next_pos <- pos + len;
    if p.tx_next_pos > p.tx_max_pos then p.tx_max_pos <- p.tx_next_pos;
    (* A data segment carries the cumulative ACK: delayed ACKs ride
       along. *)
    p.delack_segs <- 0;
    if fin then p.fin_sent <- true;
    let more = tx_avail conn > 0 && p.remote_win - tx_unacked conn > 0 in
    Some
      {
        Meta.t_conn = conn.idx;
        t_gseq = alloc_gseq ();
        t_pos = pos;
        t_len = len;
        t_seq = seq;
        t_ack = Tcp.Reassembly.next p.reasm;
        t_wnd = scaled_window cfg p.rx_avail;
        t_fin = fin;
        t_cwr =
          (if p.cwr_pending then begin
             p.cwr_pending <- false;
             true
           end
           else false);
        t_ts_ecr = p.next_ts;
        t_more = more;
      }
  in
  if len > 0 then
    emit ~len ~fin:(p.tx_fin && p.tx_next_pos + len = p.tx_tail_pos)
  else if
    p.tx_fin && (not p.fin_sent)
    && tx_avail conn = 0
    && usable >= 0
  then emit ~len:0 ~fin:true
  else None

type hc_result = {
  hc_wake_tx : bool;
  hc_window_update : Meta.ack_info option;
}

let hc cfg ~now conn op ~alloc_gseq =
  let p = conn.proto in
  match op with
  | Meta.Tx_avail n ->
      (* Once the FIN is on the wire the stream end is committed: a
         Tx_avail that raced the Fin (cross-ring reorder, or a delayed
         descriptor DMA completing out of order) must not extend the
         tail past a sent FIN — that would emit data overlapping the
         FIN's sequence number. Before [fin_sent], extending is safe:
         the FIN simply rides after the new tail. *)
      if p.tx_fin && (p.fin_sent || p.fin_acked) then
        { hc_wake_tx = false; hc_window_update = None }
      else begin
        p.tx_tail_pos <- p.tx_tail_pos + n;
        { hc_wake_tx = true; hc_window_update = None }
      end
  | Meta.Rx_credit n ->
      let was_closed = p.rx_avail < cfg.Config.mss in
      (* Defensive: libTOE is untrusted (§3); never credit beyond the
         buffer the control plane allocated (a static per-connection
         size, so reading it does not breach stage-state separation). *)
      let buf_size = Host.Payload_buf.size conn.post.Conn_state.rx_buf in
      p.rx_avail <- Int.min (p.rx_avail + n) buf_size;
      let update =
        if was_closed && p.rx_avail >= cfg.Config.mss then
          Some (make_ack cfg conn ~gseq:(alloc_gseq ()))
        else None
      in
      { hc_wake_tx = false; hc_window_update = update }
  | Meta.Fin ->
      (* Idempotent: a second Fin (double close, or libTOE and the
         control plane both signalling) is a no-op — re-waking TX for
         an already-frozen tail would only burn scheduler credits. *)
      if p.tx_fin then { hc_wake_tx = false; hc_window_update = None }
      else begin
        p.tx_fin <- true;
        { hc_wake_tx = true; hc_window_update = None }
      end
  | Meta.Retransmit ->
      p.tx_next_pos <- p.tx_acked_pos;
      p.karn_pos <- p.tx_max_pos;
      p.fin_sent <- false;
      p.dupack_cnt <- 0;
      p.last_progress <- now;
      { hc_wake_tx = true; hc_window_update = None }
  | Meta.Ack_flush ->
      if p.delack_segs > 0 then begin
        p.delack_segs <- 0;
        {
          hc_wake_tx = false;
          hc_window_update = Some (make_ack cfg conn ~gseq:(alloc_gseq ()));
        }
      end
      else { hc_wake_tx = false; hc_window_update = None }
