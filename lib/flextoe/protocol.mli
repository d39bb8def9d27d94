(** Protocol-stage logic: the TCP data-path state machine (§3.1).

    This is the one pipeline stage that must execute atomically per
    connection; these functions are pure transition logic over the
    {!Conn_state.proto} partition — the data path ({!Datapath})
    supplies atomicity (per-connection locking on the protocol FPC)
    and charges the cycle costs.

    Time is passed as [now_us] where 32-bit TCP timestamps are
    involved. *)

val window_scale : int
(** Fixed window-scale shift assumed on both ends: 7 (no SYN
    negotiation is modelled); data-center defaults need windows larger
    than 64 KB. *)

val rx :
  Config.t ->
  now:Sim.Time.t ->
  Conn_state.t ->
  Meta.rx_summary ->
  alloc_gseq:(unit -> int) ->
  Meta.rx_verdict
(** Receive processing (Win step): cumulative-ACK handling with
    duplicate-ACK counting and go-back-N fast retransmit, window
    update, reassembly via the single out-of-order interval, FIN,
    ECN-echo bookkeeping, RTT sampling from the timestamp option, and
    acknowledgment generation. FlexTOE acknowledges every received
    data segment (§5.2). [alloc_gseq] allocates the egress reorder
    sequence for a generated ACK. *)

val tx :
  Config.t ->
  now:Sim.Time.t ->
  Conn_state.t ->
  alloc_gseq:(unit -> int) ->
  Meta.tx_desc option
(** Transmission (Seq step): emit the next segment if the send window
    (peer window minus in-flight) and the TX buffer allow, assigning
    the TCP sequence number and buffer position; piggybacks FIN on the
    last segment. [None] when nothing can be sent. *)

type hc_result = {
  hc_wake_tx : bool;
  hc_window_update : Meta.ack_info option;
      (** Window-update ACK when an RX credit re-opens a closed
          window. *)
}

val hc :
  now:Sim.Time.t ->
  Conn_state.t ->
  Meta.hc_op ->
  alloc_gseq:(unit -> int) ->
  hc_result
(** Host-control processing (Win/Fin/Reset steps): transmit-window
    extension, receive credits, connection close, and control-plane
    triggered go-back-N retransmission. *)

val us_of_time : Sim.Time.t -> int
(** 32-bit microsecond timestamp clock used in the TCP timestamp
    option. *)
