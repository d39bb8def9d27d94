type socket = {
  send : Bytes.t -> int;
  recv : max:int -> Bytes.t;
  rx_available : unit -> int;
  tx_space : unit -> int;
  close : unit -> unit;
  sock_id : int;
  core : Host_cpu.core;
  mutable on_readable : unit -> unit;
  mutable on_writable : unit -> unit;
  mutable on_peer_closed : unit -> unit;
  mutable on_error : unit -> unit;
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
}

let make_socket ~sock_id ~core ~send ~recv ~rx_available ~tx_space ~close =
  {
    send;
    recv;
    rx_available;
    tx_space;
    close;
    sock_id;
    core;
    on_readable = ignore;
    on_writable = ignore;
    on_peer_closed = ignore;
    on_error = ignore;
  }
