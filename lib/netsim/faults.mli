(** Composable fault injection for the fabric's forwarding path.

    A fault chain is an ordered list of stages; every frame crossing
    the port boundary it is attached to runs through the stages in
    order, and each stage may drop, hold, duplicate, delay or corrupt
    it. Chains attach per port and per direction
    ({!Fabric.set_tx_fault} / {!Fabric.set_rx_fault}), so asymmetric
    faults (e.g. loss only towards the server) are expressed by
    attaching different chains to different ports.

    All randomness comes from a dedicated deterministic {!Sim.Rng}
    seeded at {!create}: the same seed and traffic produce the same
    faults, so chaos experiments are exactly reproducible. Each stage
    gets its own {!Sim.Rng.split} stream, keeping one stage's draw
    count from perturbing another's.

    Corruption keeps the frame's original checksum while mutating a
    copy of the segment, so receivers observe exactly what a real NIC
    observes: a frame whose TCP checksum no longer matches its
    contents ({!Tcp.Segment.csum_ok}). *)

type spec =
  | Uniform_loss of float  (** Independent drop probability. *)
  | Gilbert_loss of {
      p_good_bad : float;  (** Per-frame P(good → bad). *)
      p_bad_good : float;  (** Per-frame P(bad → good). *)
      loss_good : float;  (** Drop probability in the good state. *)
      loss_bad : float;  (** Drop probability in the bad state. *)
    }
      (** Two-state Markov (Gilbert-Elliott) bursty loss. Average loss
          is [loss_bad * p_good_bad / (p_good_bad + p_bad_good)] (for
          [loss_good = 0]); mean burst length is [1 / p_bad_good]
          frames. *)
  | Reorder of {
      prob : float;  (** Probability a frame is held back. *)
      window : int;  (** Maximum positions a frame arrives late. *)
      max_hold : Sim.Time.t;
          (** Failsafe: release a held frame after this long even if
              no later frames arrive to displace it. *)
    }  (** Count-based bounded reordering. *)
  | Duplicate of float  (** Probability a frame is delivered twice. *)
  | Corrupt of {
      prob : float;
      header_prob : float;
          (** Fraction of corruptions hitting the TCP header (the
              sequence number) rather than the payload. Empty-payload
              frames always corrupt the header. *)
    }  (** Single-bit flip with stale checksum. *)
  | Jitter of { max_delay : Sim.Time.t }
      (** Uniform extra delay in [\[0, max_delay]] per frame (may
          itself reorder). *)
  | Blackout of {
      start : Sim.Time.t;
      duration : Sim.Time.t;
      period : Sim.Time.t option;
          (** [None]: a single window; [Some p]: repeats every [p]. *)
    }  (** Total loss during scheduled link-down windows. *)

type t

val create : Sim.Engine.t -> ?seed:int64 -> spec list -> t
(** Build a fault chain. Stages apply in list order (e.g. a
    [Blackout] before a [Corrupt] means frames dropped by the
    blackout are never corrupted). *)

val hook : t -> Fabric.fault_hook
(** The chain as a raw hook (for attaching outside the fabric, e.g.
    in tests that drive frames directly). *)

val attach_rx : t -> Fabric.port -> unit
(** Attach to a port's receive side. *)

(** {1 Counters}

    All monotonically increasing; deterministic for a given seed and
    workload. *)

val seen : t -> int
(** Frames entering the chain. *)

val passed : t -> int
(** Frames leaving the chain (includes duplicates, so it can exceed
    [seen - drops]). *)

val dropped_loss : t -> int
val duplicated : t -> int
val reordered : t -> int
val corrupted : t -> int
val delayed : t -> int

val counters : t -> (string * int) list
(** All counters as name-value pairs (for digests and reports). *)

(** {1 Named schedules}

    Shared vocabulary between the chaos benchmarks and the fault
    tests, matching the acceptance scenarios: ["none"],
    ["bursty-loss"] (Gilbert-Elliott, ~1.9% average), ["reorder-heavy"]
    (5% held back, window 8, plus 1% duplication), ["corruption"]
    (0.01% bit flips), ["blackout"] (one 5 ms window starting at
    t = 8 ms), ["jitter"] (up to 50 us). *)

val named : string -> spec list
(** Raises [Invalid_argument] on an unknown name. *)

(** {1 Connection-churn load generators}

    Open-loop adversarial traffic for the FlexGuard churn scenarios:
    unlike the frame-transform stages above, these are sources — they
    get their own fabric port and inject fresh frames. *)

module Churn : sig
  type flood

  val syn_flood :
    Sim.Engine.t ->
    Fabric.t ->
    src_ip:int ->
    dst_ip:int ->
    dst_port:int ->
    rate_pps:int ->
    ?src_ports:int ->
    unit ->
    flood
  (** Start an open-loop SYN flood at [rate_pps] SYNs/s toward
      [dst_ip:dst_port], rotating over [src_ports] (default 4096)
      ephemeral source ports with monotone ISNs — every SYN a distinct
      4-tuple, never completing a handshake, ignoring all responses.
      Raises [Invalid_argument] when [rate_pps <= 0]. *)

  val stop : flood -> unit
  val sent : flood -> int
end
