(** A memcached-style key-value store over the socket API.

    The paper's headline application (§2.1, §5.1): a KV server driven
    by closed-loop clients issuing transactions on persistent
    connections with 32 B keys and values, generated memtier-style.

    Protocol (binary, framed with {!Framing}):
    - request: [op:1] [klen:2 BE] [vlen:4 BE] [key] [value]
      where op 0 = GET (vlen 0), 1 = SET.
    - response: [status:1] [vlen:4 BE] [value]
      where status 0 = ok, 1 = miss, 2 = bad request. *)

type request = Get of Bytes.t | Set of Bytes.t * Bytes.t
type response = Value of Bytes.t | Stored | Miss | Bad_request

val encode_request : request -> Bytes.t
(** Unframed request body (callers frame it). *)

val decode_request : Bytes.t -> request option
val encode_response : response -> Bytes.t
val decode_response : Bytes.t -> response option

type server

val server :
  endpoint:Api.endpoint -> port:int -> app_cycles:int -> unit -> server
(** Start a KV server. Request handlers run on each accepted socket's
    delivery core (the stack distributes sockets over its configured
    cores), modelling a multi-threaded memcached; [app_cycles] is the
    per-request application work (hash + store lookup). *)

val entries : server -> int

val client :
  endpoint:Api.endpoint ->
  engine:Sim.Engine.t ->
  server_ip:int ->
  server_port:int ->
  conns:int ->
  pipeline:int ->
  key_bytes:int ->
  value_bytes:int ->
  set_ratio:float ->
  stats:Rpc.Stats.t ->
  unit ->
  unit
(** memtier-style closed-loop transaction generator: each connection
    keeps [pipeline] transactions outstanding, each SET with
    probability [set_ratio] else GET, over a small keyspace so GETs
    hit. Generating and parsing each transaction costs the client's
    core 200 cycles, which also spreads requests so they are not
    artificially batched into single segments. *)
