(** FlexGuard: the overload-control mechanism state (DESIGN.md §13).

    Holds the state consulted by the control plane and the data path
    under connection churn: the SYN-cookie secret, the TIME_WAIT
    table, the accept/shed/evict/reap counters, and the per-stage
    queue-depth high-water marks. Created by the data path when
    {!Config.guard} has [g_on] set; absent (a [None] option, one
    branch per hook) otherwise.

    The admission policy has one implementation, the live one in the
    control plane ({!Control_plane.set_connection_limit}); it counts
    every decision here, and tests assert on these counters. Cookie
    and TIME_WAIT checks take explicit [now] arguments. *)

(** {1 Limits}

    Fixed whenever the guard is armed; [Config.guard] has no knob for
    them. *)

val syn_backlog : int
(** Half-open handshakes held statefully (64); beyond them a SYN is
    answered with a cookie. *)

val syn_retries : int
(** SYN / SYN-ACK retransmissions before a [connect] surfaces
    ["Etimedout"] (6). *)

val syn_retry_base : Sim.Time.t
(** First handshake retry delay (1 ms); it doubles per attempt. *)

val syn_retry_max : Sim.Time.t
(** Handshake backoff ceiling (8 ms). *)

val time_wait : Sim.Time.t
(** TIME_WAIT hold after both directions close (10 ms); also the SYN
    cookie's time epoch. A fresh SYN for a TIME_WAIT 4-tuple recycles
    the entry only when its ISN is strictly beyond the old
    connection's final receive point (Seq32 wraparound-aware), as in
    RFC 6191. *)

val time_wait_max : int
(** TIME_WAIT table cap (4096); under pressure the oldest entry is
    recycled. *)

val idle_timeout : Sim.Time.t
(** Closing connections (FIN_WAIT / half-closed) that made no progress
    for this long are reaped (20 ms). *)

val reap_interval : Sim.Time.t
(** Reaper loop period (1 ms). *)

type t

val create : g:Config.guard -> secret:int -> unit -> t
val config : t -> Config.guard

(** {1 Counters}

    Every guard event increments a named counter. With FlexScope
    enabled, the metrics snapshot reads {!counters} under
    ["guard/<name>"]. *)

val count : t -> string -> unit
val counter : t -> string -> int
val counters : t -> (string * int) list
(** Sorted by name. *)

val established_shed : t -> int
(** The one counter that must stay 0: established-flow segments
    dropped by the shed policy. *)

(** {1 Queue-depth high-water marks} *)

val note_depth : t -> queue:string -> int -> unit
val peak_depth : t -> queue:string -> int

(** {1 SYN cookies}

    A cookie ISN folds the 4-tuple, a per-node secret and a coarse
    time epoch; validation accepts the current and previous epoch. *)

val cookie_isn : t -> now:Sim.Time.t -> flow:Tcp.Flow.t -> Tcp.Seq32.t
val cookie_check :
  t -> now:Sim.Time.t -> flow:Tcp.Flow.t -> isn:Tcp.Seq32.t -> bool

(** {1 TIME_WAIT table} *)

val tw_add :
  t ->
  now:Sim.Time.t ->
  flow:Tcp.Flow.t ->
  snd_nxt:Tcp.Seq32.t ->
  rcv_nxt:Tcp.Seq32.t ->
  unit
(** Install a TIME_WAIT entry, due to expire at [now + time_wait];
    at {!time_wait_max} capacity the oldest entry is recycled
    (counted). [now] must not decrease from one call to the next (it
    is the engine clock): entries are kept in insertion order, which
    is then also deadline order. Neither this nor {!tw_reap} passes
    over the table: each entry costs amortized O(1) to add and to
    remove. *)

val tw_find : t -> flow:Tcp.Flow.t -> (Tcp.Seq32.t * Tcp.Seq32.t) option
(** [(snd_nxt, rcv_nxt)] of the dead incarnation, if any. *)

val tw_remove : t -> flow:Tcp.Flow.t -> unit

val tw_syn_acceptable : t -> flow:Tcp.Flow.t -> isn:Tcp.Seq32.t -> bool
(** May a fresh SYN with this ISN take over the 4-tuple? True when no
    TIME_WAIT entry exists or the ISN is strictly beyond the old
    incarnation's final receive point (Seq32 wraparound-aware). *)

val tw_reap : t -> now:Sim.Time.t -> int
(** Expire entries past their deadline; returns how many. *)

val tw_length : t -> int
