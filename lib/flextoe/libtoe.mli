(** libTOE: the POSIX-sockets library linked into applications.

    Interposes on socket calls and talks to the data path through
    per-context queues in host shared memory: sends append payload to
    the per-socket TX buffer and post an HC descriptor (with an MMIO
    doorbell); receives consume the RX buffer at positions the data
    path announced via ARX notifications, returning credits so the
    protocol stage can re-open the receive window. Connection
    establishment is delegated to the control plane.

    Each libTOE instance is one application process; sockets are
    spread round-robin over the instance's cores, with one context
    queue per core (the paper's per-thread CTX-Qs, §3). Socket-call
    CPU cost is charged to the socket's core in the "sockets"
    accounting category. *)

type t

val create :
  Sim.Engine.t ->
  config:Config.t ->
  datapath:Datapath.t ->
  control:Control_plane.t ->
  cores:Host.Host_cpu.core list ->
  unit ->
  t
(** [cores] must be non-empty; context queue [i] maps to core
    [i mod length cores]. *)

val endpoint : t -> Host.Api.endpoint
(** The application-facing socket interface. *)

val atx_retries : t -> int
(** Times a full ATX ring forced HC updates to be re-posted later.
    Retries back off exponentially (5 us doubling to 80 us) and reset
    once the backlog drains. *)

val sockets_aborted : t -> int
(** Sockets killed by a stack-side abort notification ([x_err]);
    their [on_error] callback has fired. *)
