(** Congestion-control algorithms for the control-plane loop (§3.4).

    The control plane periodically reads per-flow statistics from the
    data path (acked bytes, ECN-marked bytes, fast retransmits, RTT
    estimate) and computes a new transmission rate, which the flow
    scheduler enforces. Both of the paper's policies are implemented:
    DCTCP (ECN-fraction driven) and TIMELY (RTT-gradient driven).

    The functions here are pure: state in, observation in, decision
    out — so each algorithm is unit-testable without a data path. *)

type observation = {
  acked_bytes : int;  (** Bytes newly acknowledged this interval. *)
  ecn_bytes : int;  (** ...of which acknowledged with ECE set. *)
  fast_retx : int;  (** Fast retransmits this interval. *)
  rtt_ns : int;  (** Smoothed RTT estimate; 0 = no sample. *)
  interval : Sim.Time.t;  (** Time since the last iteration. *)
}

type decision =
  | Keep  (** No change. *)
  | Rate of int  (** Pace at this many bits per second. *)
  | Uncongested  (** Remove pacing (round-robin bypass). *)

val min_rate_bps : int

val throughput_estimate : observation -> int
(** Achieved bits per second over the interval (used to initialise
    the rate of a previously unpaced flow entering congestion). *)

module Dctcp : sig
  type t
  (** Per-flow DCTCP state: the EWMA marking fraction [alpha]
      (gain 1/16) and the current rate. *)

  val create : unit -> t
  val alpha : t -> float
  val rate_bps : t -> int
  (** 0 when uncongested. *)

  val update : t -> wire_bps:int -> observation -> decision
  (** One control iteration: update alpha from the ECN fraction;
      multiplicative decrease by [alpha/2] on marks (or halve on
      retransmissions), additive increase otherwise; return to
      uncongested once the rate reaches the wire rate. *)
end

module Timely : sig
  type t

  val create : unit -> t
  val rate_bps : t -> int

  val update : t -> wire_bps:int -> observation -> decision
  (** RTT-gradient control: additive increase below [t_low], fixed
      multiplicative decrease above [t_high], gradient-proportional
      decrease in between (β = 0.8). *)

  val t_low_ns : int
  val t_high_ns : int
end
