(** The POSIX-sockets-shaped interface applications program against.

    Applications (echo, key-value store, RPC generators) are written
    once against this interface and run unmodified over every stack in
    the repository — FlexTOE's libTOE, and the Linux/TAS/Chelsio
    baseline models — mirroring the paper's "identical application
    binaries across all baselines" methodology (§5).

    Because the whole system is event-driven, blocking calls are
    replaced by callbacks: [on_readable]/[on_writable] fire when a
    blocked direction becomes actionable. Socket operations execute
    immediately; their CPU cost is charged to the caller's core by the
    stack implementation. *)

type socket = {
  send : Bytes.t -> int;
      (** Append to the socket's transmit stream; returns bytes
          accepted (0 when the buffer is full). *)
  recv : max:int -> Bytes.t;
      (** Consume up to [max] readable bytes (may be empty). *)
  rx_available : unit -> int;
  tx_space : unit -> int;
  close : unit -> unit;
  sock_id : int;  (** Unique per endpoint, for stats. *)
  core : Host_cpu.core;
      (** The core this socket's events are delivered on; server
          handlers charge their application work here. *)
  mutable on_readable : unit -> unit;
  mutable on_writable : unit -> unit;
  mutable on_peer_closed : unit -> unit;
  mutable on_error : unit -> unit;
      (** The stack aborted the connection (e.g. retransmission
          retries exhausted): the socket is dead, unread data is lost,
          and no further callbacks will fire. *)
}

type endpoint = {
  listen : port:int -> on_accept:(socket -> unit) -> unit;
  connect :
    remote_ip:int ->
    remote_port:int ->
    on_connected:((socket, string) result -> unit) ->
    unit;
  local_ip : int;
  app_core : Host_cpu.core;
      (** The core application handlers should charge their work to. *)
}

val make_socket :
  sock_id:int ->
  core:Host_cpu.core ->
  send:(Bytes.t -> int) ->
  recv:(max:int -> Bytes.t) ->
  rx_available:(unit -> int) ->
  tx_space:(unit -> int) ->
  close:(unit -> unit) ->
  socket
(** Build a socket with all callbacks initialised to no-ops. *)
