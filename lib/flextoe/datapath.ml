module S = Tcp.Segment

(* libTOE's context-queue polling period: a notification reaches the
   host this long after its context-queue DMA lands. *)
let libtoe_poll = Sim.Time.us 1

type xdp_action =
  | Xdp_pass of S.frame
  | Xdp_drop
  | Xdp_tx of S.frame
  | Xdp_redirect of S.frame

type xdp_hook = { xdp_run : S.frame -> int * xdp_action }

type direction = Dir_rx | Dir_tx

type cc_stats = {
  ackb : int;
  ecnb : int;
  fretx : int;
  rtt_est_ns : int;
  tx_backlog : int;
  tx_inflight : int;
  ack_pending : bool;
  last_progress : Sim.Time.t;
}

type stats = {
  rx_segments : int;
  tx_segments : int;
  tx_acks : int;
  rx_to_control : int;
  rx_dropped : int;
  rx_dropped_csum : int;
  fast_retx : int;
  gro_reordered : int;
  egress_reordered : int;
  dma_bytes : int;
  rx_completed : int;
  tx_fetch_acked : int;
  tx_fetch_part_acked : int;
  tx_deferred : int;
  tx_copied : int;
  rx_vanished : int;
  tx_vanished : int;
}

(* What leaves through the NBI, in egress-sequencer order. A data
   segment carries its payload copied out of the host TX buffer, or
   (the first transmission of its bytes) only its descriptor: the
   fabric reads the payload through the connection's
   [Conn_state.tx_source] when it builds the frame (see [dma_stage]). *)
type egress =
  | Eg_data of Meta.tx_desc * Bytes.t
  | Eg_data_ref of Meta.tx_desc
  | Eg_ack of Meta.ack_info
  | Eg_ctl of S.frame

(* An RX verdict's place in its connection's protocol order: the
   connection's [Conn_state.rx_order] and the seq the protocol stage
   took for the verdict. Whatever finishes the verdict downstream is
   submitted there, so a torn-down connection's held work still
   drains. *)
type rx_turn = (unit -> unit) Sequencer.t * int

(* Work arriving at a post-processor. *)
type post_work =
  | Post_rx of Meta.rx_verdict * rx_turn
  | Post_tx of Meta.tx_desc * bool  (* first transmission of its bytes *)
  | Post_hc of int * Protocol.hc_result  (* conn *)

type conn_lock = { mutable busy : bool; waiters : (unit -> unit) Sim.Fifo.t }

(* A GRO coalescing window (§3.4, batch degree > 1 only): the
   adjacent in-sequence data segments of one flow accumulated since
   the last flush. Segments are newest-first; [gc_next] is the
   sequence number the next chainable segment must carry. *)
type gro_acc = {
  mutable gc_segs : Meta.rx_summary list;
  mutable gc_count : int;
  mutable gc_next : Tcp.Seq32.t;
  mutable gc_flushed : bool;
}

(* An ARX notification accumulator (batch degree > 1 only):
   per-connection deliveries coalesced into one context-queue DMA and
   host wakeup. Byte counts add; FIN sticks; the readable ranges,
   lifecycle ids and sanitizer tokens of every absorbed notification
   are kept so the single delivery can replay their effects. *)
type arx_acc = {
  aa_conn : int;
  aa_opaque : int;
  mutable aa_count : int;
  mutable aa_rx : int;
  mutable aa_txf : int;
  mutable aa_fin : bool;
  mutable aa_gseqs : int list;  (* newest first *)
  mutable aa_tokens : int list;  (* newest first *)
  mutable aa_flushed : bool;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  (* Host deliveries waiting out the fixed [libtoe_poll] delay: a
     constant delay from a growing clock, so they form one stream. *)
  poll : Sim.Engine.Stream.t;
  departing : Pipeline.t;  (* rows built otherwise than declared *)
  san : San.t option;
  scope : Sim.Scope.t option;
  guard : Guard.t option;  (* FlexGuard overload control; None = dormant *)
  mutable cp_pending : int;  (* control-path frames in flight to the CP *)
  port : Netsim.Fabric.port;
  mac : int;
  ip : int;
  n_ctx : int;
  (* Connections *)
  conns : Conn_state.t Nfp.Conn_table.t;  (* by connection index *)
  conn_db : Tcp.Flow.t Nfp.Lookup.t;
  mutable next_conn_idx : int;
  locks : conn_lock Nfp.Conn_table.t;
  (* FPCs *)
  preproc_fpcs : Nfp.Fpc.t array;
  proto_fpcs : Nfp.Fpc.t array array;  (* per flow group, sharded *)
  postproc_fpcs : Nfp.Fpc.t array array;  (* per flow group *)
  dma_fpcs : Nfp.Fpc.t array;
  ctx_fpcs : Nfp.Fpc.t array;
  sch_fpc : Nfp.Fpc.t;
  gro_fpc : Nfp.Fpc.t;
  xdp_fpcs : Nfp.Fpc.t array;
  rtc_fpc : Nfp.Fpc.t;  (* run-to-completion baseline *)
  pools : (string * int * Nfp.Fpc.t array) list;  (* all but rtc, by island *)
  mutable rr_pre : int;
  mutable rr_post : int;
  mutable rr_dma : int;
  (* Engines *)
  dma : Nfp.Dma.t;
  (* Caches *)
  pre_lookup_cache : Nfp.Direct_cache.t;
  proto_cam : unit Nfp.Cam.t array;  (* presence-only caches *)
  fg_cls : Nfp.Direct_cache.t array;
  emem_lru : Nfp.Lru.t array;  (* per shard; length 1 when unsharded *)
  (* FlexScale: shard count for the replicated protocol-stage
     pipelines ([Config.scale]; 1 = unsharded), plus the shared-EMEM
     capacity-pressure model behind the per-shard caches. *)
  shards : int;
  emem_pressure : Nfp.Memory.Pressure.t option;
  (* Ordering *)
  rx_gro : Meta.rx_summary Sequencer.t;
  tx_gro : egress Sequencer.t;
  (* Scheduling *)
  sch : Scheduler.t;
  (* Context queues *)
  atx : Meta.hc_desc Nfp.Ring.t array;
  mutable atx_scheduled : bool array;
  arx_handlers : (Meta.arx_desc -> unit) array;
  mutable hc_descs_free : int;
  (* Batching state (empty/untouched at batch degree 1) *)
  gro_pending : gro_acc Nfp.Conn_table.t;  (* conn -> window *)
  arx_pending : arx_acc Nfp.Conn_table.t;  (* conn -> accumulator *)
  mutable atx_flush_armed : bool array;  (* partial-doorbell timers *)
  mutable st_dma_work : int;  (* doorbell-amortization counter *)
  (* Control plane hooks *)
  mutable control_rx : S.frame -> unit;
  (* Flexibility *)
  mutable xdp_ingress : xdp_hook option;
  traces : Sim.Trace.t;
  mutable capture : (direction -> S.frame -> unit) option;
  (* Stats *)
  mutable st_rx : int;
  mutable st_tx : int;
  mutable st_tx_acks : int;
  mutable st_ctl : int;
  mutable st_tx_ctl : int;  (* control-plane frames the NBI sent *)
  mutable st_pre_ctl : int;  (* frames pre-processing sent to the CP *)
  mutable st_drop : int;
  mutable st_drop_csum : int;
  mutable st_fretx : int;
  mutable st_rx_done : int;  (* RX segments fully processed by the DMA stage *)
  mutable st_cross_shard : int;  (* steering self-check trips (mis-steer) *)
  mutable st_fetch_acked : int;  (* TX fetches wholly acked when read *)
  mutable st_fetch_part_acked : int;  (* ... partly acked when read *)
  mutable st_tx_deferred : int;  (* data frames sent with unread payload *)
  mutable st_tx_copied : int;  (* ... with payload read before sending *)
  mutable st_rx_vanished : int;  (* RX verdicts whose connection went *)
  mutable st_tx_vanished : int;  (* TX and HC work whose connection went *)
}

let engine t = t.engine
let config t = t.cfg
let san t = t.san
let scope t = t.scope
let guard t = t.guard
let fabric_port t = t.port

(* Sanitizer access shorthand, labelled with stage [row]: a no-op (one
   test of an immutable option) when the sanitizer is off. *)
let sa t row ~flow ?range obj kind =
  match t.san with
  | None -> ()
  | Some s -> San.access s ~stage:(Pipeline.name row) ~flow ~obj ?range kind

(* Is [row] built with departure [d] ([Pipeline.departure])? *)
let departs t row d = Pipeline.departs d (Pipeline.departure t.departing row)

(* FlexScope shorthands: like the sanitizer's, each is one test of an
   immutable option when profiling is off. *)
let sc_seg_begin t ~track ~conn ~id =
  match t.scope with
  | None -> ()
  | Some sc -> Sim.Scope.seg_begin sc ~track ~conn ~id

let sc_seg_end t ~track ~id =
  match t.scope with
  | None -> ()
  | Some sc -> Sim.Scope.seg_end sc ~track ~id

let sc_instant t row ~name ~conn ~arg =
  match t.scope with
  | None -> ()
  | Some sc -> Sim.Scope.instant sc ~track:(Pipeline.name row) ~name ~conn ~arg

let mac t = t.mac
let ip t = t.ip
let num_ctx t = t.n_ctx
let traces t = t.traces

(* Per-execution tracepoint overhead of stage [row]: each enabled
   point in the row's group costs a few cycles (instrumentation
   executes whether or not the event fires); event counters themselves
   are recorded semantically by [trace_event]. *)
let trace_cycles t row =
  if Sim.Trace.enabled_count t.traces = 0 then 0
  else
    Sim.Trace.group_enabled t.traces (Pipeline.name row)
    * Cost.tracepoint

(* Record a semantic event on one of [row]'s tracepoints (counts only
   when that point is enabled). Tracing disabled costs one branch,
   like the real thing. *)
let trace_event t row name =
  if Sim.Trace.enabled_count t.traces > 0 then
    Sim.Trace.hit (Sim.Trace.find t.traces ~group:(Pipeline.name row) name)

(* One execution of stage [row] on [fpc]: the [before] phases, then
   the stage's own [cycles] of compute plus what the row's extensions
   charge (its enabled tracepoints and, when the caller [tap]s frames
   and capture is on, [pcap_capture]), then the [after] phases. [k]
   runs on completion, inside the row's FlexScope span unless [span]
   is false. The span's wall clock runs from submission (queueing and
   memory stalls included); its [cycles] are the charged compute and
   any compute [after] it, so the per-stage histograms compare
   directly with the configured costs ([before] is the protocol
   stage's state fetch). RX-chain spans carry the segment's RX
   sequencer slot as [id] (lifecycle attribution), others [-1]. *)
let run_stage t row ?(tap = false) ?(span = true) ?(before = []) ?(after = [])
    fpc ~conn ~id cycles k =
  let cycles =
    cycles + trace_cycles t row
    +
    match t.capture with
    | Some _ when tap -> Cost.pcap_capture
    | _ -> 0
  in
  let k =
    match t.scope with
    | Some sc when span ->
        let sp = Sim.Scope.span_begin sc ~stage:(Pipeline.name row) ~conn ~id in
        let cycles =
          List.fold_left
            (fun n -> function Nfp.Fpc.Compute c -> n + c | _ -> n)
            cycles after
        in
        fun () ->
          Sim.Scope.span_end sc sp ~cycles;
          k ()
    | _ -> k
  in
  Nfp.Fpc.submit fpc (before @ (Nfp.Fpc.Compute cycles :: after)) k

(* Transport events worth counting, derived from an RX verdict: the
   bpftrace-style tracepoints of §5.1. *)
let trace_rx_verdict t (v : Meta.rx_verdict) =
  if Sim.Trace.enabled_count t.traces = 0 then ()
  else begin
  let proto = Pipeline.protocol in
  trace_event t proto "rx_seg";
  if v.Meta.v_fast_retx then trace_event t proto "fast_retx";
  if v.Meta.v_fin_reached then trace_event t proto "fin";
  (match v.Meta.v_place with
  | Some _ when v.Meta.v_rx_advance = 0 -> trace_event t proto "ooo_seg"
  | _ -> ());
  if v.Meta.v_ack <> None && v.Meta.v_rx_advance = 0 && v.Meta.v_place = None
  then trace_event t proto "dup_ack";
  if v.Meta.v_wake_tx then trace_event t proto "win_update";
  if v.Meta.v_ack <> None then trace_event t Pipeline.postproc "ack_gen"
  end

let pipelined t = t.cfg.Config.parallelism.Config.pipelined

(* --- Per-connection protocol-stage lock --------------------------- *)

let conn_lock t idx =
  match Nfp.Conn_table.find_opt t.locks idx with
  | Some l -> l
  | None ->
      (* Lazy once-per-connection lock init, amortized over the flow's
         lifetime — not a per-segment allocation. flexinfer: alloc-exempt *)
      let l = { busy = false; waiters = Sim.Fifo.create () } in
      Nfp.Conn_table.replace t.locks idx l;
      l

let acquire t idx k =
  if departs t Pipeline.protocol Pipeline.Lock_skipped then
    (* The critical section runs unserialized. No happens-before edge
       is recorded either — exactly what omitting the lock on hardware
       would mean. *)
    k ()
  else begin
    let k =
      match t.san with
      | None -> k
      | Some s ->
          fun () ->
            San.lock_acquire s ~flow:idx;
            k ()
    in
    let l = conn_lock t idx in
    if l.busy then Sim.Fifo.push k l.waiters
    else begin
      l.busy <- true;
      k ()
    end
  end

let release t idx =
  if departs t Pipeline.protocol Pipeline.Lock_skipped then ()
  else begin
    (match t.san with
    | Some s -> San.lock_release s ~flow:idx
    | None -> ());
    let l = conn_lock t idx in
    match Sim.Fifo.take_opt l.waiters with
    | Some k -> k ()
    | None -> l.busy <- false
  end

(* --- State-access cost model (§4.1 caching) ----------------------- *)

(* The flow group a protocol-stage access indexes with: the one pinned
   in the connection's pre state (the steering invariant), unless the
   protocol row has a steering function. *)
let steer_fg t ~idx ~fg =
  match Pipeline.departure t.departing Pipeline.protocol with
  | Some (Pipeline.Steer steer) ->
      steer ~conn:idx ~fg ~groups:(Array.length t.proto_cam)
  | _ -> fg

(* Steering self-check: the per-flow-group serialization argument (and
   at scale, shard disjointness) rests on every state access using the
   pinned group. A mismatch is counted and surfaced to FlexSan as an
   access from an undeclared "shard-steer" stage — a contract breach,
   exactly what touching another shard's partition means. *)
let steer_check t ~idx ~fg ~fg_eff =
  if fg_eff <> fg then begin
    t.st_cross_shard <- t.st_cross_shard + 1;
    match t.san with
    | None -> ()
    | Some s ->
        San.access s ~stage:Pipeline.shard_steer ~flow:idx
          ~obj:Effects.Conn_proto Effects.Read
  end

let proto_state_phases t conn_state =
  let open Nfp.Fpc in
  let idx = conn_state.Conn_state.idx in
  let fg = conn_state.Conn_state.pre.Conn_state.flow_group in
  let fg_eff = steer_fg t ~idx ~fg in
  steer_check t ~idx ~fg ~fg_eff;
  (* Hot-state pinning (scale mode): an Established flow's CAM/EMEM$
     entries are sticky — eviction pressure from churn takes cold
     (handshake / TIME_WAIT) entries first. *)
  let pin =
    t.cfg.Config.scale.Config.s_on
    && Conn_state.close_phase conn_state = Conn_state.Established
  in
  let cam = t.proto_cam.(fg_eff) in
  match Nfp.Cam.find cam idx with
  | Some () -> [ Mem Nfp.Memory.Local ]
  | None ->
      ignore (Nfp.Cam.insert ~pin cam idx ());
      if Nfp.Direct_cache.access t.fg_cls.(fg_eff) idx then
        [ Mem Nfp.Memory.Cls ]
      else begin
        let lru = t.emem_lru.(fg_eff mod Array.length t.emem_lru) in
        if Nfp.Lru.access ~pin lru idx then [ Mem Nfp.Memory.Emem_cached ]
        else
          (* Full miss: a DRAM walk, plus the overcommit penalty once
             resident per-flow state exceeds the EMEM cache's working
             set (zero at or below capacity). *)
          match t.emem_pressure with
          | None -> [ Mem Nfp.Memory.Emem ]
          | Some pr ->
              let extra =
                Nfp.Memory.Pressure.extra_miss_cycles pr
              in
              if extra = 0 then [ Mem Nfp.Memory.Emem ]
              else [ Mem Nfp.Memory.Emem; Compute extra ]
      end

let preproc_lookup_phases t hash =
  let open Nfp.Fpc in
  if Nfp.Direct_cache.access t.pre_lookup_cache hash then
    [ Compute Cost.preproc_lookup_hit ]
  else [ Mem Nfp.Memory.Imem; Compute Cost.preproc_lookup_hit ]

let proto_fpc_for t cs =
  let fg = cs.Conn_state.pre.Conn_state.flow_group in
  let fg_eff = steer_fg t ~idx:cs.Conn_state.idx ~fg in
  let pool = t.proto_fpcs.(fg_eff mod Array.length t.proto_fpcs) in
  pool.(cs.Conn_state.idx mod Array.length pool)

(* Round-robin pools *)

let next_preproc t =
  let f = t.preproc_fpcs.(t.rr_pre mod Array.length t.preproc_fpcs) in
  t.rr_pre <- t.rr_pre + 1;
  f

let next_postproc t fg =
  let pool = t.postproc_fpcs.(fg) in
  let f = pool.(t.rr_post mod Array.length pool) in
  t.rr_post <- t.rr_post + 1;
  f

let next_dma_fpc t =
  let f = t.dma_fpcs.(t.rr_dma mod Array.length t.dma_fpcs) in
  t.rr_dma <- t.rr_dma + 1;
  f

(* --- Connection management ---------------------------------------- *)

let alloc_conn_idx t =
  let i = t.next_conn_idx in
  t.next_conn_idx <- i + 1;
  i

let conn t idx = Nfp.Conn_table.find_opt t.conns idx

(* Row [row]'s extra entry, if it has one, run on connection [idx]. *)
let run_extra t row idx =
  match Pipeline.departure t.departing row with
  | Some (Pipeline.Extra x) ->
      Option.iter (x.Pipeline.x_run ~access:(sa t row ~flow:idx)) (conn t idx)
  | _ -> ()

let has_flow t flow =
  Nfp.Lookup.lookup t.conn_db ~hash:(Tcp.Flow.hash flow) flow <> None

let conn_of_flow t flow =
  Nfp.Lookup.lookup t.conn_db ~hash:(Tcp.Flow.hash flow) flow

let active_conns t = Nfp.Conn_table.length t.conns

let payload_held_bytes t =
  let n = ref 0 in
  for i = 0 to t.next_conn_idx - 1 do
    match conn t i with
    | Some cs ->
        let post = cs.Conn_state.post in
        n :=
          !n
          + Host.Payload_buf.held_bytes post.Conn_state.rx_buf
          + Host.Payload_buf.held_bytes post.Conn_state.tx_buf
    | None -> ()
  done;
  !n

let conn_state_bytes =
  Conn_state.state_bytes_pre + Conn_state.state_bytes_proto
  + Conn_state.state_bytes_post

let install_conn t cs ~k =
  (let pre = cs.Conn_state.pre in
   cs.Conn_state.tx_source <-
     Some
       (Netsim.Fabric.source ~src_mac:t.mac ~dst_mac:pre.Conn_state.peer_mac
          ~src_ip:pre.Conn_state.local_ip ~dst_ip:pre.Conn_state.peer_ip
          ~src_port:pre.Conn_state.local_port
          ~dst_port:pre.Conn_state.remote_port
          ~read:(Host.Payload_buf.read cs.Conn_state.post.Conn_state.tx_buf)));
  (match t.san with
  | Some s ->
      Sequencer.set_tracer cs.Conn_state.rx_order
        (Some (San.rx_order_tracer s ~flow:cs.Conn_state.idx))
  | None -> ());
  (* CP writes ~108 B of state across PCIe. *)
  Nfp.Dma.issue t.dma ~queue:1 ~bytes:128 (fun () ->
      Nfp.Conn_table.replace t.conns cs.Conn_state.idx cs;
      let flow = cs.Conn_state.flow in
      Nfp.Lookup.add t.conn_db ~hash:(Tcp.Flow.hash flow) flow
        cs.Conn_state.idx;
      (match t.emem_pressure with
      | Some pr -> Nfp.Memory.Pressure.install pr ~bytes:conn_state_bytes
      | None -> ());
      (* Fresh connection: drop any shadow state a previous occupant
         of this index left behind. *)
      (match t.san with
      | Some s -> San.flow_init s ~flow:cs.Conn_state.idx
      | None -> ());
      k ())

let remove_conn t ~conn =
  match Nfp.Conn_table.find_opt t.conns conn with
  | None -> ()
  | Some cs ->
      cs.Conn_state.active <- false;
      Nfp.Conn_table.remove t.conns conn;
      let flow = cs.Conn_state.flow in
      Nfp.Lookup.remove t.conn_db ~hash:(Tcp.Flow.hash flow) flow;
      Scheduler.forget t.sch ~conn;
      let fg = cs.Conn_state.pre.Conn_state.flow_group in
      (match t.emem_pressure with
      | Some pr ->
          Nfp.Memory.Pressure.remove pr ~bytes:conn_state_bytes;
          (* A departing flow's pins must not outlive it, or pinned
             corpses eventually force hot-state evictions. *)
          Nfp.Cam.unpin t.proto_cam.(fg) conn;
          Nfp.Lru.unpin t.emem_lru.(fg mod Array.length t.emem_lru) conn
      | None -> ());
      (* Under churn a dead connection's cache lines are pure poison:
         invalidate its CAM/CLS/EMEM entries so short-lived flows
         cannot crowd out the working set of established ones. *)
      (match t.guard with
      | Some g ->
          Nfp.Cam.remove t.proto_cam.(fg) conn;
          Nfp.Direct_cache.invalidate t.fg_cls.(fg) conn;
          Nfp.Lru.remove t.emem_lru.(fg mod Array.length t.emem_lru) conn;
          Guard.count g "evicted_cache"
      | None -> ());
      (match t.san with
      | Some s -> San.flow_forget s ~flow:conn
      | None -> ())

let set_control_rx t f = t.control_rx <- f

(* --- Notification path (ARX) -------------------------------------- *)

let set_arx_handler t ~ctx f = t.arx_handlers.(ctx) <- f

let dma_engine t = t.dma

(* The ARX delivery chain: the context-queue stage DMAs one descriptor
   into the host ring and libTOE sees it one polling period later.
   [gseqs] are the RX lifecycles the descriptor closes, one per
   notification it stands for: the fixed descriptor cost is paid once
   plus [notify_coalesce] per absorbed notification. The bytes it makes
   readable start at the connection's notified stream position: they
   are the bytes libTOE consumes next, so the sanitizer checks them
   against the payload DMA's writes. [tokens] are the happens-before
   tokens of coalesced notifications, joined before the host reads; an
   unbatched notification has none, its edge being the descriptor
   DMA's own completion. *)
let arx_deliver t cs ~id ~gseqs ~tokens (desc : Meta.arx_desc) =
  let conn_idx = cs.Conn_state.idx in
  let off = cs.Conn_state.rx_notified and len = desc.Meta.x_rx_bytes in
  cs.Conn_state.rx_notified <- off + len;
  let ctx = cs.Conn_state.post.Conn_state.ctx_id mod t.n_ctx in
  let fpc = t.ctx_fpcs.(ctx mod Array.length t.ctx_fpcs) in
  let deliver ~join () =
    List.iter
      (fun g ->
        sc_instant t Pipeline.ctx ~name:"arx_delivery" ~conn:conn_idx ~arg:g;
        if g >= 0 then sc_seg_end t ~track:"seg_rx" ~id:g)
      gseqs;
    match t.san with
    | None -> t.arx_handlers.(ctx) desc
    | Some s ->
        San.run_as s ~thread:("hostctx" ^ string_of_int ctx) ?join (fun () ->
            List.iter (fun tok -> San.token_join s tok) tokens;
            if len > 0 then
              sa t Pipeline.ctx ~flow:conn_idx ~range:(off, len)
                Effects.Rx_payload Effects.Read;
            t.arx_handlers.(ctx) desc;
            (* The app can only return RX-buffer credit for bytes it
               was notified of: publish the delivery so the Rx_credit
               doorbell (and thus the window reopening that lets the
               DMA reuse these buffer positions) is ordered after this
               read. *)
            San.chan_send s ("arx#" ^ string_of_int conn_idx))
  in
  run_stage t Pipeline.ctx fpc ~conn:conn_idx ~id
    (Cost.ctx_desc + ((List.length gseqs - 1) * Cost.notify_coalesce))
    (fun () ->
      sa t Pipeline.ctx ~flow:conn_idx Effects.Desc_ring Effects.Write;
      if departs t Pipeline.ctx Pipeline.No_dma_wait then
        (* The descriptor reaches the host without the DMA completion
           edge: the poll delay still elapses, but nothing orders the
           handler after the payload write. *)
        Sim.Engine.Stream.schedule t.poll libtoe_poll (fun () ->
            deliver ~join:None ())
      else
        Nfp.Dma.issue t.dma ~queue:1 ~bytes:32 (fun () ->
            let join =
              match t.san with
              | Some s -> Some (San.token_send s)
              | None -> None
            in
            Sim.Engine.Stream.schedule t.poll libtoe_poll
              (fun () -> deliver ~join ())))

(* Flush one connection's ARX accumulator: one context-queue descriptor,
   one 32B DMA and one host wakeup stand in for [aa_count] of each.
   Every absorbed notification's sanitizer token (captured in its
   payload-DMA completion context) is joined before the host reads, so
   the coalesced delivery keeps each payload-write -> host-read
   happens-before edge of the unbatched path. *)
let arx_flush t acc =
  if not acc.aa_flushed then begin
    acc.aa_flushed <- true;
    Nfp.Conn_table.remove t.arx_pending acc.aa_conn;
    let gseqs = List.rev acc.aa_gseqs in
    (match t.scope with
    | Some sc -> Sim.Scope.record sc "batch/arx/coalesced" acc.aa_count
    | None -> ());
    match conn t acc.aa_conn with
    | None ->
        (* Torn down with a window pending: nothing to notify, but the
           RX lifecycles must still close. *)
        List.iter
          (fun g -> if g >= 0 then sc_seg_end t ~track:"seg_rx" ~id:g)
          gseqs
    | Some cs ->
        arx_deliver t cs ~id:(-1) ~gseqs ~tokens:(List.rev acc.aa_tokens)
          {
            Meta.x_opaque = acc.aa_opaque;
            x_rx_bytes = acc.aa_rx;
            x_tx_freed = acc.aa_txf;
            x_fin = acc.aa_fin;
            x_err = false;
          }
  end

(* Notification entry point. At batch degree 1 (or for error
   notifications, which must not wait) this is exactly the unbatched
   delivery. Above 1, per-connection notifications accumulate and
   flush on FIN, a full window, or the batch-delay timer. *)
let notify_libtoe t ?(gseq = -1) cs (desc : Meta.arx_desc) =
  let b = Config.batch_degree t.cfg in
  let conn_idx = cs.Conn_state.idx in
  if b <= 1 || desc.Meta.x_err then begin
    (* An error notification overtaking coalesced data would reorder
       the host's view: drain the window first. *)
    (if desc.Meta.x_err then
       match Nfp.Conn_table.find_opt t.arx_pending conn_idx with
       | Some acc -> arx_flush t acc
       | None -> ());
    arx_deliver t cs ~id:gseq ~gseqs:[ gseq ] ~tokens:[] desc
  end
  else begin
    (* Capture the happens-before token in the issuing context (the
       payload DMA's completion), exactly where the unbatched path
       would have issued its descriptor DMA. *)
    let tok =
      match t.san with Some s -> Some (San.token_send s) | None -> None
    in
    match Nfp.Conn_table.find_opt t.arx_pending conn_idx with
    | Some acc ->
        acc.aa_count <- acc.aa_count + 1;
        acc.aa_rx <- acc.aa_rx + desc.Meta.x_rx_bytes;
        acc.aa_txf <- acc.aa_txf + desc.Meta.x_tx_freed;
        acc.aa_fin <- acc.aa_fin || desc.Meta.x_fin;
        acc.aa_gseqs <- gseq :: acc.aa_gseqs;
        (match tok with
        | Some tk -> acc.aa_tokens <- tk :: acc.aa_tokens
        | None -> ());
        if acc.aa_count >= b || acc.aa_fin then arx_flush t acc
    | None ->
        let acc =
          {
            aa_conn = conn_idx;
            aa_opaque = desc.Meta.x_opaque;
            aa_count = 1;
            aa_rx = desc.Meta.x_rx_bytes;
            aa_txf = desc.Meta.x_tx_freed;
            aa_fin = desc.Meta.x_fin;
            aa_gseqs = [ gseq ];
            aa_tokens = (match tok with Some tk -> [ tk ] | None -> []);
            aa_flushed = false;
          }
        in
        Nfp.Conn_table.replace t.arx_pending conn_idx acc;
        if acc.aa_fin then arx_flush t acc
        else
          Sim.Engine.schedule t.engine Nfp.Dma.batch_delay (fun () ->
              arx_flush t acc)
  end

(* --- NBI egress ---------------------------------------------------- *)

let now_us t = Protocol.us_of_time (Sim.Engine.now t.engine)

let tx_source cs =
  match cs.Conn_state.tx_source with
  | Some src -> src
  | None -> invalid_arg "Datapath: connection not installed"

(* A data segment's TCP flag byte: ACK and PSH, plus FIN and CWR. *)
let data_flags (d : Meta.tx_desc) =
  0x18 lor (if d.Meta.t_fin then 0x01 else 0) lor if d.Meta.t_cwr then 0x80 else 0

let build_data_frame t cs (d : Meta.tx_desc) payload =
  Netsim.Fabric.segment_frame (tx_source cs) ~seq:d.Meta.t_seq
    ~ack:d.Meta.t_ack ~flags:(data_flags d) ~window:d.Meta.t_wnd
    ~tsval:(now_us t) ~tsecr:d.Meta.t_ts_ecr ~payload

let build_ack_frame t cs (a : Meta.ack_info) =
  let pre = cs.Conn_state.pre in
  (* The frame's sequence number is [a_seq], snapshotted under the
     protocol lock — not the live [tx_next_pos], which a concurrent TX
     workflow may have advanced by NBI time (a race FlexSan flags). *)
  let seg =
    S.make
      ~flags:{ S.flags_ack with S.ece = a.Meta.a_ece }
      ~window:a.Meta.a_wnd
      ~options:{ S.mss = None; ts = Some (now_us t, a.Meta.a_ts_ecr) }
      ~src_ip:pre.Conn_state.local_ip ~dst_ip:pre.Conn_state.peer_ip
      ~src_port:pre.Conn_state.local_port ~dst_port:pre.Conn_state.remote_port
      ~seq:a.Meta.a_seq ~ack_seq:a.Meta.a_ack ()
  in
  S.make_frame ~src_mac:t.mac ~dst_mac:pre.Conn_state.peer_mac seg

(* Every frame the NBI builds leaves here: the capture tap sees it,
   then the wire. [len] is a data frame's payload, read out of the
   host buffer before sending. *)
let emit t ?(len = 0) f =
  (match t.capture with Some cap -> cap Dir_tx f | None -> ());
  if len > 0 then t.st_tx_copied <- t.st_tx_copied + 1;
  Netsim.Fabric.transmit t.port f

let count_tx_frame t (d : Meta.tx_desc) =
  t.st_tx <- t.st_tx + 1;
  sc_seg_end t ~track:"seg_tx" ~id:d.Meta.t_gseq

let nbi_emit_one t eg =
  (match eg with
  | Eg_data (d, _) | Eg_data_ref d -> (
      match conn t d.Meta.t_conn with
      | Some cs -> (
          sa t Pipeline.nbi ~flow:d.Meta.t_conn Effects.Conn_pre Effects.Read;
          count_tx_frame t d;
          match eg with
          | Eg_data (_, payload) ->
              emit t ~len:d.Meta.t_len (build_data_frame t cs d payload)
          | _ ->
              (* A first transmission waits for the wire as integers:
                 the fabric builds its frame, header, payload and
                 checksum, when it leaves the switch. *)
              if
                Netsim.Fabric.transmit_segment t.port (tx_source cs)
                  ~seq:d.Meta.t_seq ~ack:d.Meta.t_ack ~flags:(data_flags d)
                  ~window:d.Meta.t_wnd ~tsval:(now_us t)
                  ~tsecr:d.Meta.t_ts_ecr ~pos:d.Meta.t_pos ~len:d.Meta.t_len
              then t.st_tx_deferred <- t.st_tx_deferred + 1
              else t.st_tx_copied <- t.st_tx_copied + 1)
      | None ->
          (* Connection torn down before NBI: close the TX lifecycle or
             the open-span table leaks. *)
          sc_seg_end t ~track:"seg_tx" ~id:d.Meta.t_gseq)
  | Eg_ack a -> (
      match conn t a.Meta.a_conn with
      | Some cs ->
          sa t Pipeline.nbi ~flow:a.Meta.a_conn Effects.Conn_pre Effects.Read;
          t.st_tx_acks <- t.st_tx_acks + 1;
          emit t (build_ack_frame t cs a)
      | None -> ())
  | Eg_ctl f ->
      t.st_tx_ctl <- t.st_tx_ctl + 1;
      emit t f);
  (* A data segment's buffer (credit) frees on transmission. *)
  match eg with
  | Eg_data _ | Eg_data_ref _ -> Scheduler.credit_return t.sch
  | Eg_ack _ | Eg_ctl _ -> ()

(* TSO (§3.4): a descriptor wider than one MSS — only producible at
   batch degree [b > 1], where the protocol stage emits up to
   [b * mss] per descriptor — is segmented back into wire frames here
   at the NBI boundary. One egress slot, one credit, [split_count]
   frames. A captured or split segment needs its payload here. *)
let nbi_emit t eg =
  let eg =
    match eg with
    | Eg_data_ref d
      when Option.is_some t.capture || d.Meta.t_len > S.mss_with_timestamps -> (
        (* The one place a first transmission's payload is read before
           the fabric has the frame: a captured frame or a TSO
           descriptor. *)
        match conn t d.Meta.t_conn with
        | Some cs ->
            Eg_data
              ( d,
                Netsim.Fabric.source_read (tx_source cs) ~off:d.Meta.t_pos
                  ~len:d.Meta.t_len )
        | None -> eg)
    | _ -> eg
  in
  match eg with
  | Eg_data (d, payload)
    when Bytes.length payload > S.mss_with_timestamps -> begin
      match conn t d.Meta.t_conn with
      | None -> nbi_emit_one t eg  (* teardown: the one-frame path
                                      already closes the lifecycle *)
      | Some cs ->
          sa t Pipeline.nbi ~flow:d.Meta.t_conn Effects.Conn_pre Effects.Read;
          let chunks =
            Coalesce.split_desc ~mss:S.mss_with_timestamps d payload
          in
          (match t.scope with
          | Some sc ->
              Sim.Scope.record sc "batch/tso/frames" (List.length chunks)
          | None -> ());
          List.iter
            (fun (dc, chunk) ->
              t.st_tx <- t.st_tx + 1;
              emit t ~len:dc.Meta.t_len (build_data_frame t cs dc chunk))
            chunks;
          sc_seg_end t ~track:"seg_tx" ~id:d.Meta.t_gseq;
          Scheduler.credit_return t.sch
    end
  | _ -> nbi_emit_one t eg

(* --- TX buffer release ---------------------------------------------- *)

(* The data path releases TX payload bytes itself. libTOE's
   [x_tx_freed] says the peer holds them, but a fetch issued before
   that ACK (a retransmission the ACK overtook) may still be on its way
   to the DMA stage, and it must read what the host wrote. So bytes
   below an ACK point go only once every fetch issued before the ACK
   has read; a fetch issued after it starts at or above it
   ([Protocol] keeps [tx_next_pos >= tx_acked_pos]). A fetch of a
   connection torn down mid-pipeline is never read: its count dies
   with the connection. The run-to-completion path reads each fetch as
   it issues it, so nothing of it is ever outstanding. *)
let tx_release_acked t cs =
  let f = cs.Conn_state.tx_fetch in
  if f.Conn_state.tf_out = 0 then
    Host.Payload_buf.release cs.Conn_state.post.Conn_state.tx_buf
      ~upto:f.Conn_state.tf_acked
  else begin
    f.Conn_state.tf_upto <- f.Conn_state.tf_acked;
    f.Conn_state.tf_before <- Sequencer.allocated t.tx_gro;
    f.Conn_state.tf_wait <- f.Conn_state.tf_out
  end

(* After an ACK that advanced [tx_acked_pos]. *)
let tx_acked t cs =
  let f = cs.Conn_state.tx_fetch in
  f.Conn_state.tf_acked <- cs.Conn_state.proto.Conn_state.tx_acked_pos;
  if f.Conn_state.tf_upto < 0 then tx_release_acked t cs

(* The DMA stage has read fetch [d]. *)
let tx_fetch_read t cs (d : Meta.tx_desc) =
  let f = cs.Conn_state.tx_fetch in
  let acked = f.Conn_state.tf_acked in
  if d.Meta.t_pos + d.Meta.t_len <= acked then
    t.st_fetch_acked <- t.st_fetch_acked + 1
  else if d.Meta.t_pos < acked then
    t.st_fetch_part_acked <- t.st_fetch_part_acked + 1;
  f.Conn_state.tf_out <- f.Conn_state.tf_out - 1;
  if f.Conn_state.tf_upto >= 0 && d.Meta.t_gseq < f.Conn_state.tf_before
  then begin
    f.Conn_state.tf_wait <- f.Conn_state.tf_wait - 1;
    if f.Conn_state.tf_wait = 0 then begin
      let upto = f.Conn_state.tf_upto in
      f.Conn_state.tf_upto <- -1;
      Host.Payload_buf.release cs.Conn_state.post.Conn_state.tx_buf ~upto;
      if acked > upto then tx_release_acked t cs
    end
  end

(* --- DMA stage ------------------------------------------------------ *)

type dma_work = {
  dw_conn : int;
  dw_gseq : int;
      (* RX sequencer slot of the segment this work answers (-1 for
         TX/HC-originated work): FlexScope lifecycle attribution. *)
  dw_payload : (int * Bytes.t) option;  (* RX placement *)
  dw_slot : rx_turn option;
      (* The RX verdict's place in protocol order: its notification
         and ACK run only after those of every earlier verdict. *)
  dw_fetch : (Meta.tx_desc * bool) option;
      (* TX fetch, and whether it is the first transmission of its
         bytes *)
  dw_ack : Meta.ack_info option;
  dw_notify : Meta.arx_desc option;
}

let dma_stage t (w : dma_work) =
  let fpc = next_dma_fpc t in
  (* Doorbell amortization: in batched mode the MMIO ring costs
     [dma_doorbell] once per [b] descriptors instead of being
     folded into [dma_desc]. Unbatched mode leaves the counter (and
     the charge) untouched. *)
  let db =
    let b = Config.batch_degree t.cfg in
    if b <= 1 then 0
    else begin
      t.st_dma_work <- t.st_dma_work + 1;
      if t.st_dma_work mod b = 0 then Cost.dma_doorbell else 0
    end
  in
  run_stage t Pipeline.dma fpc ~conn:w.dw_conn ~id:w.dw_gseq
    (Cost.dma_desc + db) (fun () ->
      sa t Pipeline.dma ~flow:w.dw_conn Effects.Conn_db Effects.Read;
      let cs = conn t w.dw_conn in
      let finish () =
        (* An RX segment's datapath work ends here (notification and
           egress are downstream of this point): the open-loop scale
           sweep polls this counter for completion. *)
        if w.dw_gseq >= 0 then t.st_rx_done <- t.st_rx_done + 1;
        (* Notification and ACK leave only after payload DMA, and
           after those of every earlier segment of the connection
           (§3.1.3: neither host nor peer may learn of data that has
           not landed in the receive buffer). *)
        (match (w.dw_notify, cs) with
        | Some d, Some cs ->
            notify_libtoe t ~gseq:w.dw_gseq cs d
        | _ ->
            (* No notification will fire: the RX lifecycle ends here,
               with the segment fully processed by the data path. *)
            if w.dw_gseq >= 0 then sc_seg_end t ~track:"seg_rx" ~id:w.dw_gseq);
        match w.dw_ack with
        | Some a ->
            Sequencer.submit t.tx_gro ~seq:a.Meta.a_gseq (Eg_ack a)
        | None -> ()
      in
      let finish () =
        match w.dw_slot with
        | Some (order, seq) -> Sequencer.submit order ~seq finish
        | None -> finish ()
      in
      match (w.dw_payload, w.dw_fetch, cs) with
      | Some (pos, bytes), _, Some cs ->
          (* Without the wait, notification and ACK escape before the
             payload lands: host or peer can read bytes not yet written. *)
          let waits = not (departs t Pipeline.dma Pipeline.No_dma_wait) in
          if not waits then finish ();
          (* RX: payload to host receive buffer. *)
          sc_instant t Pipeline.dma ~name:"payload_rx_issue" ~conn:w.dw_conn
            ~arg:(Bytes.length bytes);
          Nfp.Dma.issue t.dma ~queue:0 ~bytes:(Bytes.length bytes)
            (fun () ->
              sc_instant t Pipeline.dma ~name:"payload_rx_complete"
                ~conn:w.dw_conn ~arg:(Bytes.length bytes);
              sa t Pipeline.dma ~flow:w.dw_conn
                ~range:(pos, Bytes.length bytes) Effects.Rx_payload
                Effects.Write;
              Host.Payload_buf.write
                cs.Conn_state.post.Conn_state.rx_buf ~off:pos ~src:bytes
                ~src_off:0 ~len:(Bytes.length bytes);
              if waits then finish ())
      | None, Some (desc, first), Some cs ->
          (* TX: fetch payload from host transmit buffer. *)
          let pos = desc.Meta.t_pos and len = desc.Meta.t_len in
          Nfp.Dma.issue t.dma ~queue:0 ~bytes:len (fun () ->
              sc_instant t Pipeline.dma ~name:"payload_tx_fetched"
                ~conn:w.dw_conn ~arg:len;
              (if len > 0 then
                 sa t Pipeline.dma ~flow:w.dw_conn ~range:(pos, len)
                   Effects.Tx_payload Effects.Read);
              let eg =
                if len = 0 then Eg_data (desc, Bytes.empty)
                else begin
                  (* A first transmission goes by reference until the
                     fabric builds its frame: the bytes of an
                     undelivered first transmission stay in the buffer
                     (DESIGN.md §7). A retransmission copies them now. *)
                  let eg =
                    if first then Eg_data_ref desc
                    else
                      Eg_data
                        ( desc,
                          Host.Payload_buf.read
                            cs.Conn_state.post.Conn_state.tx_buf ~off:pos ~len
                        )
                  in
                  tx_fetch_read t cs desc;
                  eg
                end
              in
              finish ();
              Sequencer.submit t.tx_gro ~seq:desc.Meta.t_gseq eg)
      | None, Some (desc, _), None ->
          (* The connection was torn down mid-pipeline: the egress
             sequence number must still be released or the whole TX
             reorder stream stalls, and the buffer credit must come
             back. *)
          t.st_tx_vanished <- t.st_tx_vanished + 1;
          Sequencer.skip t.tx_gro ~seq:desc.Meta.t_gseq;
          sc_seg_end t ~track:"seg_tx" ~id:desc.Meta.t_gseq;
          Scheduler.credit_return t.sch;
          finish ()
      | _ -> finish ())

(* --- Post-processing stage ----------------------------------------- *)

(* A TX slot that produced no segment: nothing was sent, and the
   scheduler's buffer credit comes back. *)
let tx_nothing_sent t ~conn =
  Scheduler.on_sent t.sch ~conn ~bytes:0 ~more:false;
  Scheduler.credit_return t.sch

let rtt_ewma old sample = if old = 0 then sample else ((7 * old) + sample) / 8

(* The RX verdict's post-processing step, shared by the pipeline's
   post-processor and the run-to-completion baseline: bump the
   congestion-control counters the control plane reads, wake the flow's
   TX side if the verdict asks, and describe the payload placement,
   host notification and ACK it calls for as DMA-stage work. *)
let rx_post_work t cs ~slot (v : Meta.rx_verdict) =
  let post = cs.Conn_state.post in
  post.Conn_state.cnt_ackb <- post.Conn_state.cnt_ackb + v.Meta.v_ack_bytes;
  post.Conn_state.cnt_ecnb <- post.Conn_state.cnt_ecnb + v.Meta.v_ecn_bytes;
  if v.Meta.v_fast_retx then begin
    post.Conn_state.cnt_fretx <- post.Conn_state.cnt_fretx + 1;
    t.st_fretx <- t.st_fretx + 1
  end;
  if v.Meta.v_rtt_sample_ns > 0 then
    post.Conn_state.rtt_est_ns <-
      rtt_ewma post.Conn_state.rtt_est_ns v.Meta.v_rtt_sample_ns;
  if v.Meta.v_wake_tx || v.Meta.v_fast_retx then
    Scheduler.wakeup t.sch ~conn:cs.Conn_state.idx;
  {
    dw_conn = cs.Conn_state.idx;
    dw_gseq = v.Meta.v_gseq;
    dw_payload = v.Meta.v_place;
    dw_slot = slot;
    dw_fetch = None;
    dw_ack = v.Meta.v_ack;
    dw_notify =
      (if
         v.Meta.v_rx_advance > 0 || v.Meta.v_tx_freed > 0
         || v.Meta.v_fin_reached
       then
         Some
           {
             Meta.x_opaque = post.Conn_state.opaque;
             x_rx_bytes = v.Meta.v_rx_advance;
             x_tx_freed = v.Meta.v_tx_freed;
             x_fin = v.Meta.v_fin_reached;
             x_err = false;
           }
       else None);
  }

let postproc_stage t fg (w : post_work) =
  let fpc = next_postproc t fg in
  let conn_idx =
    match w with
    | Post_rx (v, _) -> v.Meta.v_conn
    | Post_tx (d, _) -> d.Meta.t_conn
    | Post_hc (i, _) -> i
  in
  let cost =
    match w with
    | Post_rx _ -> Cost.postproc_rx
    | Post_tx (d, _) when d.Meta.t_len > S.mss_with_timestamps ->
        (* A TSO descriptor (batch degree > 1 only): laying out the
           per-frame DMA gather list costs [tso_split] per extra wire
           frame on top of the ordinary descriptor work. *)
        Cost.postproc_tx
        + (Coalesce.split_count ~mss:S.mss_with_timestamps d.Meta.t_len - 1)
          * Cost.tso_split
    | Post_tx _ | Post_hc _ -> Cost.postproc_tx
  in
  let gseq = match w with Post_rx (v, _) -> v.Meta.v_gseq | _ -> -1 in
  (* tcpdump on egress taps the post-processor. *)
  let tap = match w with Post_tx _ -> true | Post_rx _ | Post_hc _ -> false in
  run_stage t Pipeline.postproc ~tap ~before:[ Nfp.Fpc.Mem Nfp.Memory.Cls ]
    fpc ~conn:conn_idx ~id:gseq cost (fun () ->
      sa t Pipeline.postproc ~flow:conn_idx Effects.Conn_db Effects.Read;
      (match conn t conn_idx with
      | Some _ ->
          sa t Pipeline.postproc ~flow:conn_idx Effects.Conn_post
            Effects.Write;
          run_extra t Pipeline.postproc conn_idx
      | None -> ());
      match (w, conn t conn_idx) with
      | _, None -> begin
          (* Connection vanished mid-pipeline: drop cleanly. *)
          match w with
          | Post_tx (d, _) ->
              t.st_tx_vanished <- t.st_tx_vanished + 1;
              Sequencer.skip t.tx_gro ~seq:d.Meta.t_gseq;
              sc_seg_end t ~track:"seg_tx" ~id:d.Meta.t_gseq;
              tx_nothing_sent t ~conn:conn_idx
          | Post_rx (v, (order, seq)) ->
              t.st_rx_vanished <- t.st_rx_vanished + 1;
              Sequencer.submit order ~seq (fun () ->
                  sc_seg_end t ~track:"seg_rx" ~id:v.Meta.v_gseq;
                  match v.Meta.v_ack with
                  | Some a -> Sequencer.skip t.tx_gro ~seq:a.Meta.a_gseq
                  | None -> ())
          | Post_hc (_, r) ->
              (* Release the window-update's egress slot and the HC
                 descriptor, or both leak on teardown races. *)
              t.st_tx_vanished <- t.st_tx_vanished + 1;
              (match r.Protocol.hc_window_update with
              | Some a -> Sequencer.skip t.tx_gro ~seq:a.Meta.a_gseq
              | None -> ());
              t.hc_descs_free <- t.hc_descs_free + 1
        end
      | Post_rx (v, slot), Some cs ->
          dma_stage t (rx_post_work t cs ~slot:(Some slot) v)
      | Post_tx (d, first), Some _ ->
          (* FS step: tell the scheduler what happened. *)
          Scheduler.on_sent t.sch ~conn:conn_idx ~bytes:d.Meta.t_len
            ~more:d.Meta.t_more;
          dma_stage t
            {
              dw_conn = conn_idx;
              dw_gseq = -1;
              dw_payload = None;
              dw_slot = None;
              dw_fetch = Some (d, first);
              dw_ack = None;
              dw_notify = None;
            }
      | Post_hc (_, r), Some _ ->
          if r.Protocol.hc_wake_tx then Scheduler.wakeup t.sch ~conn:conn_idx;
          (match r.Protocol.hc_window_update with
          | Some a ->
              dma_stage t
                {
                  dw_conn = conn_idx;
                  dw_gseq = -1;
                  dw_payload = None;
                  dw_slot = None;
                  dw_fetch = None;
                  dw_ack = Some a;
                  dw_notify = None;
                }
          | None -> ());
          t.hc_descs_free <- t.hc_descs_free + 1)

(* --- Protocol stage ------------------------------------------------- *)

(* The protocol stage's critical section, as the sanitizer sees it: a
   span from lock grant (where the state fetch reads the proto
   partition) to just before lock release (after the state writeback).
   The span being multi-instant is what lets the atomicity check catch
   another stage's write landing in the middle. *)
let proto_span_begin t conn_idx =
  match t.san with
  | None -> ()
  | Some s ->
      San.span_begin s ~stage:(Pipeline.name Pipeline.protocol) ~flow:conn_idx;
      sa t Pipeline.protocol ~flow:conn_idx Effects.Conn_pre Effects.Read;
      sa t Pipeline.protocol ~flow:conn_idx Effects.Conn_proto Effects.Read

let proto_writeback t conn_idx ~reasm =
  match t.san with
  | None -> ()
  | Some s ->
      sa t Pipeline.protocol ~flow:conn_idx Effects.Conn_proto Effects.Write;
      if reasm then begin
        sa t Pipeline.protocol ~flow:conn_idx Effects.Reasm Effects.Read;
        sa t Pipeline.protocol ~flow:conn_idx Effects.Reasm Effects.Write
      end;
      San.span_end s ~stage:(Pipeline.name Pipeline.protocol) ~flow:conn_idx

(* The protocol stage's one critical section, shared by RX, TX and HC
   work: take the connection's lock, fetch its state through the cache
   hierarchy on the flow's protocol FPC, run [body] after [cost]
   compute cycles, write the state back (the reassembly buffer too
   when [reasm]) and release; [k] then continues with [body]'s result
   outside the lock. *)
let protocol_section t cs ~cost ~id ~reasm body k =
  let idx = cs.Conn_state.idx in
  acquire t idx (fun () ->
      proto_span_begin t idx;
      (* A row built to drop the lock before the critical section
         instead of after: the classic too-early unlock. *)
      let early = departs t Pipeline.protocol Pipeline.Lock_released_early in
      if early then release t idx;
      run_stage t Pipeline.protocol ~before:(proto_state_phases t cs)
        (proto_fpc_for t cs) ~conn:idx ~id cost (fun () ->
          let r = body (Sim.Engine.now t.engine) in
          proto_writeback t idx ~reasm;
          if not early then release t idx;
          k r))

let alloc_tx_gseq t () = Sequencer.next_seq t.tx_gro

let protocol_rx t (s : Meta.rx_summary) =
  match conn t s.Meta.conn with
  | None -> ()
  | Some cs ->
      let cost =
        if Bytes.length s.Meta.payload = 0 && not s.Meta.fin then
          Cost.protocol_rx_ack
        else Cost.protocol_rx
      in
      protocol_section t cs ~cost ~id:s.Meta.rx_gseq ~reasm:true
        (fun now -> Protocol.rx t.cfg ~now cs s ~alloc_gseq:(alloc_tx_gseq t))
        (fun v ->
          if v.Meta.v_tx_freed > 0 then tx_acked t cs;
          trace_rx_verdict t v;
          postproc_stage t cs.Conn_state.pre.Conn_state.flow_group
            (let order = cs.Conn_state.rx_order in
             Post_rx (v, (order, Sequencer.next_seq order))))

let protocol_tx t ~conn:conn_idx =
  match conn t conn_idx with
  | None -> tx_nothing_sent t ~conn:conn_idx
  | Some cs ->
      protocol_section t cs ~cost:Cost.protocol_tx
        ~id:(-1) ~reasm:false
        (fun now -> Protocol.tx t.cfg ~now cs ~alloc_gseq:(alloc_tx_gseq t))
        (function
          | Some d ->
              (* Fetches are counted, and first transmissions told
                 apart, in protocol order: the order of their TX gseqs
                 and so of their frames on the wire. *)
              let f = cs.Conn_state.tx_fetch in
              let first = d.Meta.t_pos >= f.Conn_state.tf_high in
              if d.Meta.t_len > 0 then begin
                f.Conn_state.tf_out <- f.Conn_state.tf_out + 1;
                if first then
                  f.Conn_state.tf_high <- d.Meta.t_pos + d.Meta.t_len
              end;
              trace_event t Pipeline.protocol "tx_seg";
              sc_seg_begin t ~track:"seg_tx" ~conn:conn_idx ~id:d.Meta.t_gseq;
              postproc_stage t cs.Conn_state.pre.Conn_state.flow_group
                (Post_tx (d, first))
          | None -> tx_nothing_sent t ~conn:conn_idx)

let protocol_hc t (d : Meta.hc_desc) =
  match conn t d.Meta.h_conn with
  | None -> t.hc_descs_free <- t.hc_descs_free + 1
  | Some cs ->
      (* A credit doorbell is the host's "I consumed those bytes"
         edge: join the deliveries it follows, so the window advance
         it enables (and any buffer-position reuse behind it) is
         ordered after the host's reads. *)
      (match (t.san, d.Meta.h_op) with
      | Some s, Meta.Rx_credit _ ->
          San.chan_recv s ("arx#" ^ string_of_int d.Meta.h_conn)
      | _ -> ());
      protocol_section t cs ~cost:Cost.protocol_hc
        ~id:(-1) ~reasm:false
        (fun now ->
          Protocol.hc ~now cs d.Meta.h_op ~alloc_gseq:(alloc_tx_gseq t))
        (fun r ->
          postproc_stage t cs.Conn_state.pre.Conn_state.flow_group
            (Post_hc (d.Meta.h_conn, r)))

(* --- GRO (RX reorder point) ----------------------------------------- *)

(* Hand one (possibly merged) summary to the protocol stage. [merged]
   is the number of wire segments it carries: the sequencer cost is
   paid once per descriptor, plus [gro_merge] per absorbed segment. *)
let gro_submit t ~merged (s : Meta.rx_summary) =
  run_stage t Pipeline.gro t.gro_fpc ~conn:s.Meta.conn ~id:s.Meta.rx_gseq
    (Cost.sequencer + ((merged - 1) * Cost.gro_merge))
    (fun () -> protocol_rx t s)

(* Flush a connection's GRO window: merge the accumulated run into one
   descriptor carrying the head's identity. Absorbed segments' RX
   lifecycles end at the merge point — from here on the head's gseq
   stands for the whole run. *)
let gro_flush t acc =
  if not acc.gc_flushed then begin
    acc.gc_flushed <- true;
    match acc.gc_segs with
    | [] -> ()
    | newest :: _ ->
        Nfp.Conn_table.remove t.gro_pending newest.Meta.conn;
        let segs = List.rev acc.gc_segs in
        let merged = Coalesce.merge segs in
        List.iter
          (fun (s : Meta.rx_summary) ->
            if s.Meta.rx_gseq <> merged.Meta.rx_gseq then
              sc_seg_end t ~track:"seg_rx" ~id:s.Meta.rx_gseq)
          segs;
        (match t.scope with
        | Some sc -> Sim.Scope.record sc "batch/gro/segments" acc.gc_count
        | None -> ());
        gro_submit t ~merged:acc.gc_count merged
  end

(* The RX sequencer's release point. At batch degree 1 every segment
   goes straight through, bit-identically to the unbatched pipeline.
   Above 1, adjacent in-sequence data segments of a flow accumulate (the
   sequencer has already put them in arrival order) and flush when the
   window fills, on FIN, on any non-chainable segment, or when the
   batch-delay timer fires. Pure ACKs never merge and never wait —
   duplicate-ACK counting must see each one — but they do flush the
   window ahead of themselves so the host's view stays ordered. *)
let gro_release t (s : Meta.rx_summary) =
  let b = Config.batch_degree t.cfg in
  if b <= 1 then gro_submit t ~merged:1 s
  else begin
    let pending = Nfp.Conn_table.find_opt t.gro_pending s.Meta.conn in
    match pending with
    | Some acc when Coalesce.chainable ~next:acc.gc_next s
                    && acc.gc_count < b ->
        acc.gc_segs <- s :: acc.gc_segs;
        acc.gc_count <- acc.gc_count + 1;
        acc.gc_next <- Coalesce.chain_next s;
        if acc.gc_count >= b || s.Meta.fin then gro_flush t acc
    | _ ->
        (match pending with Some acc -> gro_flush t acc | None -> ());
        if Bytes.length s.Meta.payload = 0 || s.Meta.fin then
          gro_submit t ~merged:1 s
        else begin
          let acc =
            {
              gc_segs = [ s ];
              gc_count = 1;
              gc_next = Coalesce.chain_next s;
              gc_flushed = false;
            }
          in
          Nfp.Conn_table.replace t.gro_pending s.Meta.conn acc;
          Sim.Engine.schedule t.engine Nfp.Dma.batch_delay (fun () ->
              gro_flush t acc)
        end
  end

(* --- Pre-processing (RX) -------------------------------------------- *)

let forward_to_control t frame =
  t.st_ctl <- t.st_ctl + 1;
  (match t.guard with
  | Some g ->
      t.cp_pending <- t.cp_pending + 1;
      Guard.note_depth g ~queue:"cp" t.cp_pending
  | None -> ());
  let fpc = t.ctx_fpcs.(0) in
  Nfp.Fpc.submit fpc
    [ Compute Cost.ctx_desc ]
    (fun () ->
      Nfp.Dma.issue t.dma ~queue:1
        ~bytes:(S.frame_wire_len frame)
        (fun () ->
          if t.guard <> None then t.cp_pending <- t.cp_pending - 1;
          t.control_rx frame))

(* Checksum verification cost: driving the CRC/checksum unit has a
   fixed overhead plus a per-16B streaming component over the frame
   (the NFP checksums at near line rate). *)
let csum_cycles frame =
  Cost.preproc_csum + (S.frame_wire_len frame / 16)

(* Whether a segment of an installed flow stays on the data path:
   control segments and VLAN-tagged frames go to the control plane. *)
let on_data_path (frame : S.frame) =
  S.data_path_flags frame.S.seg.S.flags && frame.S.vlan = None

(* The pre-processor's segment summary: the header fields the protocol
   stage consumes, for the installed connection [conn]. *)
let rx_summary t ~gseq ~conn (frame : S.frame) =
  let seg = frame.S.seg in
  {
    Meta.rx_gseq = gseq;
    conn;
    seq = seg.S.seq;
    ack_seq = seg.S.ack_seq;
    has_ack = seg.S.flags.S.ack;
    wnd = seg.S.window;
    payload = seg.S.payload;
    fin = seg.S.flags.S.fin;
    psh = seg.S.flags.S.psh;
    ece = seg.S.flags.S.ece;
    cwr = seg.S.flags.S.cwr;
    ecn_ce = frame.S.ecn = S.Ce;
    ts = seg.S.options.S.ts;
    arrival = Sim.Engine.now t.engine;
  }

let preproc_rx t gseq (frame : S.frame) =
  let seg = frame.S.seg in
  let flow = Tcp.Flow.of_segment_rx seg in
  let hash = Tcp.Flow.hash flow in
  let after =
    preproc_lookup_phases t hash @ [ Nfp.Fpc.Compute Cost.preproc_summary ]
  in
  (* tcpdump on ingress taps the pre-processor. *)
  run_stage t Pipeline.preproc ~tap:true ~after (next_preproc t) ~conn:(-1)
    ~id:gseq (Cost.preproc_validate + csum_cycles frame) (fun () ->
      sa t Pipeline.preproc ~flow:(-1) Effects.Conn_db Effects.Read;
      if not (S.csum_ok frame) then begin
        (* Corrupted in flight: drop at pre-processing so it never
           reaches GRO or the protocol stage. The sender recovers via
           retransmission (dup-ACK or RTO), exactly as for loss. *)
        t.st_drop_csum <- t.st_drop_csum + 1;
        sa t Pipeline.preproc ~flow:(-1) Effects.Global_stats Effects.Write;
        trace_event t Pipeline.preproc "seg_invalid";
        sc_seg_end t ~track:"seg_rx" ~id:gseq;
        Sequencer.skip t.rx_gro ~seq:gseq
      end
      else
      let conn_idx = Nfp.Lookup.lookup t.conn_db ~hash flow in
      (match conn_idx with
      | Some idx -> run_extra t Pipeline.preproc idx
      | None -> ());
      match conn_idx with
      | Some idx when on_data_path frame ->
          Sequencer.submit t.rx_gro ~seq:gseq
            (rx_summary t ~gseq ~conn:idx frame)
      | _ ->
          (* Control segment, VLAN-tagged, or unknown connection. *)
          t.st_pre_ctl <- t.st_pre_ctl + 1;
          sc_seg_end t ~track:"seg_rx" ~id:gseq;
          Sequencer.skip t.rx_gro ~seq:gseq;
          forward_to_control t frame)

(* --- Run-to-completion baseline (Table 3, row 1) --------------------- *)

let rtc_pcie_sleep bytes =
  let ser =
    int_of_float
      (Float.round (float_of_int (8 * bytes) *. 1000. /. Nfp.Params.pcie_gbps))
  in
  Nfp.Fpc.Sleep (Nfp.Params.pcie_base_latency + ser)

let rtc_rx t (frame : S.frame) =
  let seg = frame.S.seg in
  let flow = Tcp.Flow.of_segment_rx seg in
  let hash = Tcp.Flow.hash flow in
  let plen = Bytes.length seg.S.payload in
  let phases =
    [
      Nfp.Fpc.Compute
        (Cost.preproc_validate + csum_cycles frame
       + Cost.preproc_lookup_hit + Cost.preproc_summary
       + Cost.protocol_rx + Cost.postproc_rx + Cost.dma_desc
       + Cost.ctx_desc);
      Mem Nfp.Memory.Imem;
      Mem Nfp.Memory.Emem;
      Mem Nfp.Memory.Emem;
      Mem Nfp.Memory.Emem;
      rtc_pcie_sleep plen;
      rtc_pcie_sleep 32;
    ]
  in
  Nfp.Fpc.submit t.rtc_fpc phases (fun () ->
      if not (S.csum_ok frame) then
        t.st_drop_csum <- t.st_drop_csum + 1
      else
      match Nfp.Lookup.lookup t.conn_db ~hash flow with
      | Some idx when on_data_path frame -> begin
          match conn t idx with
          | None -> forward_to_control t frame
          | Some cs ->
              let v =
                Protocol.rx t.cfg ~now:(Sim.Engine.now t.engine) cs
                  (rx_summary t ~gseq:0 ~conn:idx frame)
                  ~alloc_gseq:(alloc_tx_gseq t)
              in
              if v.Meta.v_tx_freed > 0 then tx_acked t cs;
              (* The post-processing and DMA work, done in place. *)
              let w = rx_post_work t cs ~slot:None v in
              (match w.dw_payload with
              | Some (pos, bytes) ->
                  Host.Payload_buf.write cs.Conn_state.post.Conn_state.rx_buf
                    ~off:pos ~src:bytes ~src_off:0 ~len:(Bytes.length bytes)
              | None -> ());
              (match w.dw_notify with
              | Some d -> notify_libtoe t cs d
              | None -> ());
              match w.dw_ack with
              | Some a ->
                  Sequencer.submit t.tx_gro ~seq:a.Meta.a_gseq (Eg_ack a)
              | None -> ()
        end
      | _ -> forward_to_control t frame)

let rtc_tx t ~conn:conn_idx =
  let phases =
    [
      Nfp.Fpc.Compute
        (Cost.scheduler_pick + Cost.preproc_summary
       + Cost.protocol_tx + Cost.postproc_tx + Cost.dma_desc);
      Mem Nfp.Memory.Emem;
      Mem Nfp.Memory.Emem;
      Mem Nfp.Memory.Emem;
      rtc_pcie_sleep S.mss_with_timestamps;
    ]
  in
  Nfp.Fpc.submit t.rtc_fpc phases (fun () ->
      match conn t conn_idx with
      | None -> tx_nothing_sent t ~conn:conn_idx
      | Some cs -> begin
          match
            Protocol.tx t.cfg ~now:(Sim.Engine.now t.engine) cs
              ~alloc_gseq:(alloc_tx_gseq t)
          with
          | None -> tx_nothing_sent t ~conn:conn_idx
          | Some d ->
              Scheduler.on_sent t.sch ~conn:conn_idx ~bytes:d.Meta.t_len
                ~more:d.Meta.t_more;
              let payload =
                if d.Meta.t_len = 0 then Bytes.empty
                else
                  Host.Payload_buf.read cs.Conn_state.post.Conn_state.tx_buf
                    ~off:d.Meta.t_pos ~len:d.Meta.t_len
              in
              Sequencer.submit t.tx_gro ~seq:d.Meta.t_gseq
                (Eg_data (d, payload))
        end)

let rtc_hc t (d : Meta.hc_desc) =
  let phases =
    [
      Nfp.Fpc.Compute
        (Cost.ctx_desc + Cost.protocol_hc + Cost.postproc_tx);
      Mem Nfp.Memory.Emem;
      rtc_pcie_sleep 32;
    ]
  in
  Nfp.Fpc.submit t.rtc_fpc phases (fun () ->
      (match conn t d.Meta.h_conn with
      | None -> ()
      | Some cs ->
          let r =
            Protocol.hc ~now:(Sim.Engine.now t.engine) cs d.Meta.h_op
              ~alloc_gseq:(alloc_tx_gseq t)
          in
          if r.Protocol.hc_wake_tx then
            Scheduler.wakeup t.sch ~conn:d.Meta.h_conn;
          match r.Protocol.hc_window_update with
          | Some a -> Sequencer.submit t.tx_gro ~seq:a.Meta.a_gseq (Eg_ack a)
          | None -> ());
      t.hc_descs_free <- t.hc_descs_free + 1)

(* --- NBI ingress ------------------------------------------------------ *)

let rx_datapath t frame =
  t.st_rx <- t.st_rx + 1;
  if pipelined t then begin
    let gseq = Sequencer.next_seq t.rx_gro in
    sc_seg_begin t ~track:"seg_rx" ~conn:(-1) ~id:gseq;
    preproc_rx t gseq frame
  end
  else rtc_rx t frame

(* Ingress shed policy: when the control path is saturated ([g_cp_queue]
   frames already in flight to the CP) drop the newest pure SYNs at the
   NBI. Never anything else — established-flow segments and handshake
   completions always pass, so load shedding degrades accept rate, not
   goodput. A shed frame of an installed flow still counts as
   [established_shed], the counter the churn gate pins at 0. *)
let guard_shed_rx t frame =
  match t.guard with
  | None -> false
  | Some g ->
      let q = (Guard.config g).Config.g_cp_queue in
      let fl = frame.S.seg.S.flags in
      if q > 0 && t.cp_pending >= q && fl.S.syn && not fl.S.ack then begin
        Guard.count g "shed_queue";
        if has_flow t (Tcp.Flow.of_segment_rx frame.S.seg) then
          Guard.count g "established_shed";
        t.st_drop <- t.st_drop + 1;
        true
      end
      else false

let rx_frame t frame =
  (match t.capture with Some cap -> cap Dir_rx frame | None -> ());
  if guard_shed_rx t frame then ()
  else
  match t.xdp_ingress with
  | None -> rx_datapath t frame
  | Some hook ->
      (* XDP modules run on the islands' spare FPCs, before the
         data-path pipeline; FlexTOE re-sequences afterwards (§3.3). *)
      let cycles, action = hook.xdp_run frame in
      let fpc =
        t.xdp_fpcs.(t.st_rx mod Array.length t.xdp_fpcs)
      in
      Nfp.Fpc.submit fpc
        [ Compute (Cost.xdp_dispatch + cycles) ]
        (fun () ->
          match action with
          | Xdp_pass f -> rx_datapath t f
          | Xdp_drop -> t.st_drop <- t.st_drop + 1
          | Xdp_tx f ->
              let gseq = Sequencer.next_seq t.tx_gro in
              Sequencer.submit t.tx_gro ~seq:gseq (Eg_ctl f)
          | Xdp_redirect f -> forward_to_control t f)

(* --- TX dispatch (from the scheduler) --------------------------------- *)

let dispatch_tx t ~conn:conn_idx =
  if not (pipelined t) then rtc_tx t ~conn:conn_idx
  else begin
    run_stage t Pipeline.sched t.sch_fpc ~conn:conn_idx ~id:(-1)
      Cost.scheduler_pick (fun () ->
        sa t Pipeline.sched ~flow:conn_idx Effects.Sched_state Effects.Write;
        (* Pre-processing: segment alloc + Ethernet/IP headers. *)
        run_stage t Pipeline.preproc ~span:false (next_preproc t)
          ~conn:conn_idx ~id:(-1) Cost.preproc_summary (fun () ->
            protocol_tx t ~conn:conn_idx))
  end

(* --- Host-control path ------------------------------------------------- *)

(* The ATX consumer runs off engine timers (doorbell MMIO latency /
   flow-control retries), i.e. in no datapath context; give it a
   thread identity so the ring's push/pop edge (host doorbell →
   descriptor fetch) is the only thing ordering it after the host's
   writes. *)
let rec atx_drain t ctx =
  match t.san with
  | Some s ->
      San.run_as s ~thread:("atxq" ^ string_of_int ctx) (fun () ->
          atx_drain_body t ctx)
  | None -> atx_drain_body t ctx

and atx_drain_body t ctx =
  t.atx_scheduled.(ctx) <- false;
  let ring = t.atx.(ctx) in
  if not (Nfp.Ring.is_empty ring) then begin
    if t.hc_descs_free <= 0 then begin
      (* Descriptor pool exhausted: flow-control, retry shortly. *)
      if not t.atx_scheduled.(ctx) then begin
        t.atx_scheduled.(ctx) <- true;
        Sim.Engine.schedule t.engine (Sim.Time.us 2) (fun () ->
            atx_drain t ctx)
      end
    end
    else begin
      match Nfp.Ring.pop ring with
      | None -> ()
      | Some desc ->
          t.hc_descs_free <- t.hc_descs_free - 1;
          run_stage t Pipeline.ctx ~span:false
            t.ctx_fpcs.(ctx mod Array.length t.ctx_fpcs)
            ~conn:desc.Meta.h_conn ~id:(-1) Cost.ctx_desc (fun () ->
              (* Fetch the descriptor from the host context queue. *)
              Nfp.Dma.issue t.dma ~queue:1 ~bytes:32 (fun () ->
                  if pipelined t then begin
                    (* Steer through a pre-processor to the right
                       protocol stage. *)
                    let pre = next_preproc t in
                    Nfp.Fpc.submit pre
                      [ Compute Cost.preproc_lookup_hit ]
                      (fun () -> protocol_hc t desc)
                  end
                  else rtc_hc t desc));
          atx_drain t ctx
    end
  end

let atx_push t ~ctx (d : Meta.hc_desc) =
  let ctx = ctx mod t.n_ctx in
  let ok = Nfp.Ring.push t.atx.(ctx) d in
  (match t.guard with
  | Some g ->
      Guard.note_depth g ~queue:"atx" (Nfp.Ring.length t.atx.(ctx))
  | None -> ());
  let b = Config.batch_degree t.cfg in
  if ok && not t.atx_scheduled.(ctx) then begin
    if b <= 1 || Nfp.Ring.length t.atx.(ctx) >= b then begin
      t.atx_scheduled.(ctx) <- true;
      (* MMIO doorbell posts to the NIC. *)
      Sim.Engine.schedule t.engine
        Nfp.Params.mmio_latency (fun () ->
          atx_drain t ctx)
    end
    else if not t.atx_flush_armed.(ctx) then begin
      (* Held doorbell: ring when the batch fills (above) or when the
         hold timer expires on a partial batch, whichever is first. *)
      t.atx_flush_armed.(ctx) <- true;
      Sim.Engine.schedule t.engine Nfp.Dma.batch_delay (fun () ->
          t.atx_flush_armed.(ctx) <- false;
          if (not t.atx_scheduled.(ctx))
             && not (Nfp.Ring.is_empty t.atx.(ctx))
          then begin
            t.atx_scheduled.(ctx) <- true;
            Sim.Engine.schedule t.engine
              Nfp.Params.mmio_latency (fun () ->
                atx_drain t ctx)
          end)
    end
  end;
  ok

let cp_push t (d : Meta.hc_desc) =
  (* Control plane interface (CPI): same path, context queue 0. *)
  ignore (atx_push t ~ctx:0 d)

(* Abort notification (CP decided the flow is unrecoverable). Must be
   sent while the connection state still exists — callers remove the
   connection afterwards. *)
let notify_abort t ~conn:conn_idx =
  match conn t conn_idx with
  | None -> ()
  | Some cs ->
      (* Abort paths dump the connection's flight recorder: the last N
         lifecycle events before the control plane gave up. *)
      (match t.scope with
      | Some sc ->
          Sim.Scope.dump_flight sc ~conn:conn_idx ~reason:"abort"
            Format.err_formatter
      | None -> ());
      notify_libtoe t cs
        {
          Meta.x_opaque = cs.Conn_state.post.Conn_state.opaque;
          x_rx_bytes = 0;
          x_tx_freed = 0;
          x_fin = false;
          x_err = true;
        }

let reinject_rx t frame = rx_datapath t frame

let control_tx t frame =
  Nfp.Dma.issue t.dma ~queue:1
    ~bytes:(S.frame_wire_len frame)
    (fun () ->
      let gseq = Sequencer.next_seq t.tx_gro in
      Sequencer.submit t.tx_gro ~seq:gseq (Eg_ctl frame))

(* --- CP knobs ----------------------------------------------------------- *)

let read_cc_stats t ~conn:conn_idx =
  match conn t conn_idx with
  | None ->
      {
        ackb = 0;
        ecnb = 0;
        fretx = 0;
        rtt_est_ns = 0;
        tx_backlog = 0;
        tx_inflight = 0;
        ack_pending = false;
        last_progress = Sim.Time.zero;
      }
  | Some cs ->
      let post = cs.Conn_state.post in
      let proto = cs.Conn_state.proto in
      let r =
        {
          ackb = post.Conn_state.cnt_ackb;
          ecnb = post.Conn_state.cnt_ecnb;
          fretx = post.Conn_state.cnt_fretx;
          rtt_est_ns = post.Conn_state.rtt_est_ns;
          tx_backlog =
            proto.Conn_state.tx_tail_pos - proto.Conn_state.tx_acked_pos;
          tx_inflight =
            (* An unacked FIN is in flight too: without this, a lost
               FIN never trips the RTO and teardown hangs in
               FIN_WAIT_1. *)
            proto.Conn_state.tx_next_pos - proto.Conn_state.tx_acked_pos
            + (if proto.Conn_state.fin_sent && not proto.Conn_state.fin_acked
               then 1
               else 0);
          ack_pending = proto.Conn_state.delack_segs > 0;
          last_progress = proto.Conn_state.last_progress;
        }
      in
      post.Conn_state.cnt_ackb <- 0;
      post.Conn_state.cnt_ecnb <- 0;
      post.Conn_state.cnt_fretx <- 0;
      r

let set_rate t ~conn:conn_idx ~bps =
  (* The host does the division; the wheel multiplies (§3.5). *)
  let ps_per_byte =
    if bps <= 0 then 0
    else int_of_float (Float.round (8e12 /. float_of_int bps))
  in
  (match conn t conn_idx with
  | Some cs -> cs.Conn_state.post.Conn_state.rate_bps <- bps
  | None -> ());
  Sim.Engine.schedule t.engine Nfp.Params.mmio_latency
    (fun () -> Scheduler.set_interval t.sch ~conn:conn_idx ~ps_per_byte)

let sched_peak_ready t = Scheduler.peak_ready t.sch

let set_xdp_ingress t h = t.xdp_ingress <- h
let set_capture t c = t.capture <- c

(* --- Stats ---------------------------------------------------------------- *)

let stats t =
  {
    rx_segments = t.st_rx;
    tx_segments = t.st_tx;
    tx_acks = t.st_tx_acks;
    rx_to_control = t.st_ctl;
    rx_dropped = t.st_drop;
    rx_dropped_csum = t.st_drop_csum;
    fast_retx = t.st_fretx;
    gro_reordered = Sequencer.reordered t.rx_gro;
    egress_reordered = Sequencer.reordered t.tx_gro;
    dma_bytes = Nfp.Dma.bytes_transferred t.dma;
    rx_completed = t.st_rx_done;
    tx_fetch_acked = t.st_fetch_acked;
    tx_fetch_part_acked = t.st_fetch_part_acked;
    tx_deferred = t.st_tx_deferred;
    tx_copied = t.st_tx_copied;
    rx_vanished = t.st_rx_vanished;
    tx_vanished = t.st_tx_vanished;
  }

let cache_stats t =
  let cams =
    Array.to_list
      (Array.mapi
         (fun i cam ->
           (Printf.sprintf "cam%d" i, Nfp.Cam.hits cam, Nfp.Cam.misses cam))
         t.proto_cam)
  in
  let clss =
    Array.to_list
      (Array.mapi
         (fun i c ->
           ( Printf.sprintf "cls%d" i,
             Nfp.Direct_cache.hits c,
             Nfp.Direct_cache.misses c ))
         t.fg_cls)
  in
  let emems =
    if Array.length t.emem_lru = 1 then
      [ ("emem$", Nfp.Lru.hits t.emem_lru.(0), Nfp.Lru.misses t.emem_lru.(0)) ]
    else
      Array.to_list
        (Array.mapi
           (fun i l ->
             (Printf.sprintf "emem$%d" i, Nfp.Lru.hits l, Nfp.Lru.misses l))
           t.emem_lru)
  in
  (("pre-lookup", Nfp.Direct_cache.hits t.pre_lookup_cache,
    Nfp.Direct_cache.misses t.pre_lookup_cache)
   :: cams)
  @ clss
  @ emems

(* --- FlexScale observability ------------------------------------------ *)

let shards t = t.shards
let cross_shard_accesses t = t.st_cross_shard

let emem_bytes_per_flow t =
  match t.emem_pressure with
  | None -> 0
  | Some pr -> Nfp.Memory.Pressure.bytes_per_flow pr

let pinned_evictions t =
  Array.fold_left (fun n c -> n + Nfp.Cam.pinned_evictions c) 0 t.proto_cam
  + Array.fold_left (fun n l -> n + Nfp.Lru.pinned_evictions l) 0 t.emem_lru

let fpc_busy t =
  List.concat_map (fun (_, _, a) -> Array.to_list a) t.pools @ [ t.rtc_fpc ]
  |> List.map (fun f -> (Nfp.Fpc.name f, Nfp.Fpc.busy_time f))

(* Pools with their island assignment, for the FlexScope utilization
   sampler: per-flow-group pools carry their island index, service
   island pools carry -1. *)
let fpc_pools t = t.pools

let atx_rings t = t.atx

(* --- Construction ----------------------------------------------------------- *)

let create engine ~config:cfg ~fabric ~mac ~ip ?(ctx_queues = 4)
    ?(pipeline = Pipeline.builtin) () =
  if Netsim.Fabric.engine fabric != engine then
    invalid_arg "Datapath.create: the node's engine is not its fabric's";
  let par = cfg.Config.parallelism in
  Pipeline.check pipeline;
  let contracts = Pipeline.contracts pipeline in
  (* The node's one static check: FlexProve over the graph of its
     declared rows — whole-graph interference, deadlock freedom of the
     credit/backpressure loops, worst-case queue occupancy. Rows built
     otherwise than declared are FlexSan's and [flexlint graph
     --classify]'s business, so an unsound declaration (an
     unserialized write/write or write/read overlap on a non-atomic,
     non-partitioned region, a capacity that no longer covers a
     reorder buffer, a credit loop without a drain) fails construction
     before any FPC exists, at zero per-segment cost. *)
  (match
     Prove.check_graph
       (Graph_ir.builtin ~pipeline:(Pipeline.declared pipeline) ~config:cfg ())
   with
  | Ok _ -> ()
  | Error fs -> raise (Prove.Graph_rejected fs));
  (* Layer 2 only makes sense for the parallel pipeline: the
     run-to-completion baseline serializes everything on one FPC, so
     whole-region accesses would be reported against replicas that
     cannot exist. *)
  let san =
    if cfg.Config.san && par.Config.pipelined then
      Some (San.create ~engine ~contracts)
    else None
  in
  let groups = Pipeline.groups cfg in
  let scale = cfg.Config.scale in
  let shards = Flow_group.shards_of scale in
  let mk ?(threads = Pipeline.threads cfg) name =
    Nfp.Fpc.create engine ~threads ~name ()
  in
  (* Every row's FPC pool, island by island, keyed by stage. FlexSan
     keys its threads by FPC name, so two FPCs of a pool may not share
     one (a non-striped pool numbers group g's FPCs from 10g). *)
  let build pool place =
    let islands = Pipeline.fpc_names cfg pool place in
    let names = List.concat_map (fun (_, a) -> Array.to_list a) islands in
    if List.length (List.sort_uniq String.compare names) < List.length names
    then
      invalid_arg
        ("Datapath.create: two FPCs of pool " ^ pool.Pipeline.p_name
       ^ " share a name");
    List.map
      (fun (island, names) ->
        (pool.Pipeline.p_name, island, Array.map mk names))
      islands
  in
  let built =
    List.map
      (fun s ->
        ( Pipeline.name s,
          match s.Pipeline.s_exec with
          | Pipeline.Fpcs pool -> build pool s.Pipeline.s_place
          | Pipeline.Units _ -> [] ))
      pipeline
  in
  let xdp = build Pipeline.xdp Pipeline.Islands in
  let fpcs s =
    Array.of_list
      (List.map (fun (_, _, a) -> a) (List.assoc (Pipeline.name s) built))
  in
  let flat arrays = Array.concat (Array.to_list arrays) in
  let traces = Sim.Trace.create () in
  List.iter
    (fun (group, names) ->
      List.iter (fun n -> ignore (Sim.Trace.register traces ~group n)) names)
    (Pipeline.trace_points pipeline);
  (* FlexScope (host-side observation, like FlexSan): constructed once
     here so every data-path hook is a single branch on an immutable
     option when profiling is off. *)
  let scope =
    match cfg.Config.scope with
    | Config.Scope_off -> None
    | Config.Scope_metrics ->
        Some (Sim.Scope.create ~mode:Sim.Scope.Metrics_only engine)
    | Config.Scope_full ->
        Some (Sim.Scope.create ~mode:Sim.Scope.Full engine)
  in
  (* FlexGuard: constructed here (off by default) so every data-path
     hook is a single branch on an immutable option, like FlexSan and
     FlexScope. The cookie secret is derived from the node identity —
     deterministic per node, different across nodes. *)
  let guard =
    if cfg.Config.guard.Config.g_on then
      Some
        (Guard.create ~g:cfg.Config.guard
           ~secret:(((mac * 0x9E3779B1) lxor (ip * 0x85EBCA6B)) land max_int)
           ())
    else None
  in
  let rec t =
    lazy
      {
        engine;
        cfg;
        poll = Sim.Engine.Stream.create engine;
        departing =
          List.filter (fun s -> Option.is_some s.Pipeline.s_departure) pipeline;
        san;
        scope;
        guard;
        cp_pending = 0;
        port =
          Netsim.Fabric.add_port fabric
            ~rate_gbps:Nfp.Params.wire_gbps ~mac ~ip
            ~rx:(fun frame -> rx_frame (Lazy.force t) frame)
            ();
        mac;
        ip;
        n_ctx = ctx_queues;
        conns = Nfp.Conn_table.create ();
        conn_db = Nfp.Lookup.create ~equal:Tcp.Flow.equal;
        next_conn_idx = 0;
        locks = Nfp.Conn_table.create ();
        preproc_fpcs = flat (fpcs Pipeline.preproc);
        proto_fpcs = fpcs Pipeline.protocol;
        postproc_fpcs = fpcs Pipeline.postproc;
        dma_fpcs = (fpcs Pipeline.dma).(0);
        ctx_fpcs = (fpcs Pipeline.ctx).(0);
        sch_fpc = (fpcs Pipeline.sched).(0).(0);
        gro_fpc = (fpcs Pipeline.gro).(0).(0);
        xdp_fpcs = flat (Array.of_list (List.map (fun (_, _, a) -> a) xdp));
        rtc_fpc = mk ~threads:1 "rtc0";
        pools = List.concat_map snd built @ xdp;
        rr_pre = 0;
        rr_post = 0;
        rr_dma = 0;
        dma = Nfp.Dma.create engine;
        pre_lookup_cache =
          Nfp.Direct_cache.create
            ~entries:Nfp.Params.preproc_cache_entries;
        proto_cam =
          Array.init groups (fun _ ->
              Nfp.Cam.create ~entries:Nfp.Params.cam_entries);
        fg_cls =
          Array.init groups (fun _ ->
              Nfp.Direct_cache.create
                ~entries:Nfp.Params.cls_cache_entries);
        emem_lru =
          (* Shards split the shared EMEM cache's working set; at
             shards = 1 this is the single full-size LRU of the
             unsharded hierarchy. *)
          Array.init shards (fun _ ->
              Nfp.Lru.create
                ~entries:
                  (Int.max 1 (Nfp.Params.emem_cache_entries / shards)));
        shards;
        emem_pressure =
          (if scale.Config.s_on then
             Some
               (Nfp.Memory.Pressure.create
                  ~capacity_flows:scale.Config.s_emem_flows)
           else None);
        rx_gro =
          Sequencer.create ~name:"rx-gro" ~release:(fun s ->
              gro_release (Lazy.force t) s);
        tx_gro =
          Sequencer.create ~name:"tx-gro" ~release:(fun e ->
              nbi_emit (Lazy.force t) e);
        sch =
          Scheduler.create ~shards
            ~shard_of:(fun ~conn ->
              match Nfp.Conn_table.find_opt (Lazy.force t).conns conn with
              | Some cs ->
                  Flow_group.shard_of_group
                    cs.Conn_state.pre.Conn_state.flow_group ~shards
              | None -> 0)
            engine ~slot:Scheduler.wheel_slot ~slots:Scheduler.wheel_slots
            ~credits:Pipeline.seg_credits
            ~dispatch:(fun ~conn -> dispatch_tx (Lazy.force t) ~conn);
        atx =
          Array.init ctx_queues (fun i ->
              Nfp.Ring.create ~capacity:Pipeline.atx_slots
                ~name:(Printf.sprintf "atx%d" i)
                ());
        atx_scheduled = Array.make ctx_queues false;
        arx_handlers = Array.make ctx_queues (fun _ -> ());
        hc_descs_free = Pipeline.hc_descs;
        gro_pending = Nfp.Conn_table.create ();
        arx_pending = Nfp.Conn_table.create ();
        atx_flush_armed = Array.make ctx_queues false;
        st_dma_work = 0;
        control_rx = (fun _ -> ());
        xdp_ingress = None;
        traces;
        capture = None;
        st_rx = 0;
        st_tx = 0;
        st_tx_acks = 0;
        st_ctl = 0;
        st_tx_ctl = 0;
        st_pre_ctl = 0;
        st_drop = 0;
        st_drop_csum = 0;
        st_fretx = 0;
        st_rx_done = 0;
        st_cross_shard = 0;
        st_fetch_acked = 0;
        st_fetch_part_acked = 0;
        st_tx_deferred = 0;
        st_tx_copied = 0;
        st_rx_vanished = 0;
        st_tx_vanished = 0;
      }
  in
  let t = Lazy.force t in
  (* The FlexScope snapshot reads the data path's counters, and
     FlexGuard's under "guard/<name>", from their owners. *)
  (match t.scope with
  | Some sc ->
      Sim.Scope.add_counters sc (fun () ->
          [
            ("nbi/rx_frames", t.st_rx);
            ("nbi/tx_frames", t.st_tx);
            ("nbi/tx_acks", t.st_tx_acks);
            ("nbi/tx_ctl", t.st_tx_ctl);
            ("preproc/drop_csum", t.st_drop_csum);
            ("preproc/to_control", t.st_pre_ctl);
          ]
          @
          match t.guard with
          | Some g ->
              List.map (fun (name, n) -> ("guard/" ^ name, n))
                (Guard.counters g)
          | None -> [])
  | None -> ());
  (* Doorbell/completion batching on the PCIe engine ([set_batch] at
     degree 1 is a no-op, but skipping the call keeps the unbatched
     engine provably untouched). *)
  let b = Config.batch_degree cfg in
  if b > 1 then Nfp.Dma.set_batch t.dma b;
  (* Layer 2 wiring: give every execution context an identity and
     every ordering mechanism a happens-before edge. The RTC baseline
     FPC is deliberately left untraced (san is None for it anyway). *)
  (match san with
  | None -> ()
  | Some s ->
      let fpc f =
        Nfp.Fpc.set_tracer f (Some (San.fpc_tracer s ~name:(Nfp.Fpc.name f)))
      in
      List.iter (fun (_, _, a) -> Array.iter fpc a) t.pools;
      Nfp.Dma.set_tracer t.dma (Some (San.dma_tracer s));
      Sequencer.set_tracer t.rx_gro (Some (San.seq_tracer s ~name:"rx-gro"));
      Sequencer.set_tracer t.tx_gro (Some (San.seq_tracer s ~name:"tx-gro"));
      Scheduler.set_tracer t.sch (Some (San.sch_tracer s));
      Array.iter
        (fun ring ->
          Nfp.Ring.set_tracer ring
            (Some (San.ring_tracer s ~name:(Nfp.Ring.name ring))))
        t.atx);
  (* When both layers are on, a sanitizer report dumps the offending
     connection's flight-recorder ring: the last N lifecycle events
     leading up to the race, alongside FlexSan's own access trace. *)
  (match (san, scope) with
  | Some s, Some sc ->
      San.set_on_report s
        (Some
           (fun r ->
             Sim.Scope.dump_flight sc ~conn:(San.report_flow r)
               ~reason:"flexsan" Format.err_formatter))
  | _ -> ());
  t
