(** Per-connection data-path state, partitioned by pipeline stage.

    Mirrors the paper's Table 5 (Appendix A): the pre-processor holds
    connection identifiers (15 B), the protocol stage holds the TCP
    machine (43 B), the post-processor holds application-interface
    parameters and congestion statistics (51 B); DMA and context-queue
    stages are stateless. The partitioning is what makes stages
    independently replicable: only the protocol partition is mutated
    atomically per connection.

    Stream positions are absolute byte offsets from the start of each
    direction's stream; sequence-number mapping keeps the initial
    sequence numbers per side ([seq = isn + 1 + pos], the +1 for the
    SYN). *)

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
  mutable tx_next_pos : int;  (** Next stream byte to transmit. *)
  mutable tx_max_pos : int;  (** Highest stream byte ever transmitted. *)
  mutable tx_acked_pos : int;  (** Cumulatively acknowledged. *)
  mutable tx_tail_pos : int;  (** End of app-supplied data. *)
  mutable rx_avail : int;  (** Advertised receive window. *)
  mutable remote_win : int;  (** Peer's advertised window. *)
  reasm : Tcp.Reassembly.t;
  mutable dupack_cnt : int;
  mutable next_ts : int;  (** Peer timestamp to echo. *)
  mutable delack_segs : int;
      (** In-order data segments received but not yet acknowledged
          (delayed-ACK mode only). *)
  mutable tx_fin : bool;  (** App closed; FIN after last byte. *)
  mutable fin_sent : bool;
  mutable rx_fin : bool;  (** Peer's FIN reached the in-order point. *)
  mutable rx_fin_pending : Tcp.Seq32.t option;
      (** Peer's FIN arrived out of order: its sequence, held until
          reassembly reaches it. *)
  mutable fin_acked : bool;  (** Our FIN was acknowledged. *)
  mutable ece_pending : bool;
      (** CE observed; echo ECE until the peer CWRs. *)
  mutable cwr_pending : bool;
      (** ECE received; set CWR on the next data segment. *)
  mutable recover_pos : int;
      (** Fast-retransmit gate: no second fast retransmit until the
          acked point passes this position (go-back-N recovery). *)
  mutable karn_pos : int;
      (** Karn's algorithm: positions at or below this were (go-back-N)
          retransmitted, so an ACK covering them is ambiguous — the
          timestamp echo may stem from the original transmission — and
          yields no RTT sample. Set to [tx_max_pos] at every
          retransmission. *)
  mutable last_progress : Sim.Time.t;
      (** Last time the acked point advanced (control-plane RTO). *)
}

type post = {
  opaque : int;  (** Application-level connection id. *)
  mutable ctx_id : int;  (** Owning context queue. *)
  rx_buf : Host.Payload_buf.t;
  tx_buf : Host.Payload_buf.t;
  mutable cnt_ackb : int;  (** Acked bytes since last CP read. *)
  mutable cnt_ecnb : int;  (** ECN-marked bytes since last CP read. *)
  mutable cnt_fretx : int;  (** Fast retransmits since last CP read. *)
  mutable rtt_est_ns : int;
  mutable rate_bps : int;  (** 0 = uncongested (unpaced). *)
}

(** The data path's record of its TX payload fetches, which decides
    when TX buffer bytes may be released ([Datapath] keeps it).
    Simulator bookkeeping for the host buffer, not NIC state: it has
    no place in Table 5's partitions. A fetch counts from the
    protocol stage's descriptor to the DMA stage's read. An ACK may
    overtake a fetch issued before it (a retransmission), so bytes
    below the ACK point are released only once every fetch issued
    before that ACK has read. *)
type tx_fetches = {
  mutable tf_out : int;  (** Fetches issued and not yet read. *)
  mutable tf_acked : int;  (** [tx_acked_pos] as of the last ACK. *)
  mutable tf_upto : int;
      (** A release waiting for earlier fetches, or -1 for none. *)
  mutable tf_before : int;
      (** The TX gseq allocated next when [tf_upto] was set: the
          fetches it waits for are those with a smaller gseq. *)
  mutable tf_wait : int;  (** How many of those are still out. *)
  mutable tf_high : int;
      (** The end of the furthest fetch issued so far: a fetch that
          starts at or above it is the first transmission of its
          bytes, which the data path may send by reference. *)
}

type t = {
  idx : int;
  flow : Tcp.Flow.t;
  pre : pre;
  proto : proto;
  post : post;
  tx_fetch : tx_fetches;
  rx_order : (unit -> unit) Sequencer.t;
      (** The connection's RX verdicts in protocol order (simulator
          bookkeeping like {!tx_fetches}). Replicated post-processors
          and DMA FPCs can issue one connection's payload DMAs out of
          protocol order, so the protocol stage takes a seq per
          verdict and whatever finishes the verdict downstream (its
          notification and ACK) is submitted as a closure that runs
          once every earlier verdict has finished: the host never
          learns of bytes whose payload DMA has not landed
          (§3.1.3). *)
  mutable rx_notified : int;
      (** Stream bytes notified to the host so far: the next
          notification makes the bytes from here on readable. *)
  mutable tx_source : Netsim.Fabric.source option;
      (** The fabric's description of this connection's data frames
          (the {!pre} identifiers and a reader of [tx_buf]), made when
          the data path installs the connection: a first transmission
          waits for the wire as integers naming it. Simulator
          bookkeeping like {!tx_fetches}. *)
  mutable active : bool;
}

val create :
  idx:int ->
  flow:Tcp.Flow.t ->
  peer_mac:int ->
  flow_group:int ->
  tx_isn:Tcp.Seq32.t ->
  rx_isn:Tcp.Seq32.t ->
  ?remote_win:int ->
  opaque:int ->
  ctx_id:int ->
  rx_buf_bytes:int ->
  tx_buf_bytes:int ->
  unit ->
  t

(** Teardown phase, derived from the four FIN bits ([tx_fin],
    [fin_acked], [rx_fin]; [fin_sent] distinguishes retransmission
    states only). The data path keeps no explicit TCP state enum —
    this view gives the control plane's idle reaper and the teardown
    tests the classic state names. [Closing] covers both simultaneous
    close and LAST_ACK (the bits cannot distinguish who closed
    first). *)
type close_phase =
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Closed

val close_phase : t -> close_phase

(** {1 Teardown lifecycle (shared transition table)}

    The full connection teardown lifecycle as a pure Mealy machine:
    the {!close_phase} states while data-path state is installed, plus
    [Time_wait] (state freed, 4-tuple parked in FlexGuard's table) and
    [Reclaimed] (everything released; absorbing). {!step} is the
    single source of truth for teardown decisions: the control plane's
    teardown poll, idle reaper, TIME_WAIT re-ACK/recycle and RST-abort
    paths all consult it, and the FlexProve FSM checker
    ([Prove.check_fsm]) model-checks the same table against an
    RFC-793/6191 spec — so a mutated transition both fails the checker
    and changes live behavior. *)

type lifecycle = Phase of close_phase | Time_wait | Reclaimed

type close_event =
  | Ev_app_close  (** Local close(): queue a FIN after the last byte. *)
  | Ev_peer_fin  (** Peer's FIN reached the in-order point. *)
  | Ev_fin_acked  (** Our FIN was cumulatively acknowledged. *)
  | Ev_rst  (** RST received (guarded mode; unguarded RSTs no-op). *)
  | Ev_abort  (** CP abort: retransmission retries exhausted. *)
  | Ev_reap_idle  (** FlexGuard reaper: idle past {!Guard.idle_timeout}. *)
  | Ev_teardown  (** CP teardown poll found the flow fully closed. *)
  | Ev_tw_fin  (** Peer retransmitted its FIN into our TIME_WAIT. *)
  | Ev_tw_syn  (** Acceptable fresh SYN recycles the tuple (RFC 6191). *)
  | Ev_tw_expire  (** TIME_WAIT hold elapsed. *)

type close_output =
  | Out_send_fin  (** Push a FIN through the host-control path. *)
  | Out_reack  (** Re-ACK the peer's FIN from stored endpoint state. *)
  | Out_notify_err  (** x_err notification: the app must learn. *)
  | Out_enter_tw  (** Park the 4-tuple in the TIME_WAIT table. *)
  | Out_free  (** Release the data-path connection state. *)

val all_lifecycles : lifecycle list
val all_events : close_event list
val lifecycle_name : lifecycle -> string
val event_name : close_event -> string
val output_name : close_output -> string

val step :
  guard:bool -> lifecycle -> close_event -> lifecycle * close_output list
(** Total: events that do not apply in a state are no-ops [(s, [])].
    [guard] arms the FlexGuard-only events (RST handling, idle
    reaper) and the TIME_WAIT hold: guarded, [Ev_teardown] from
    [Phase Closed] enters [Time_wait] instead of reclaiming at
    once. *)

val tx_seq_of_pos : t -> int -> Tcp.Seq32.t
(** Sequence number of a transmit-stream position. *)

val tx_pos_of_seq : t -> Tcp.Seq32.t -> int
val rx_pos_of_seq : t -> Tcp.Seq32.t -> int
val rx_seq_of_pos : t -> int -> Tcp.Seq32.t

val tx_avail : t -> int
(** Bytes ready for transmission ([tx_tail_pos - tx_next_pos]). *)

val tx_unacked : t -> int
val rx_next_pos : t -> int
(** In-order receive point as a stream position. *)

val state_bytes_pre : int
val state_bytes_proto : int
val state_bytes_post : int
(** The Table 5 partition sizes (14/43/51 bytes, 108 B total; the
    paper's pre-processor partition is 114 bits), asserted by tests. *)
