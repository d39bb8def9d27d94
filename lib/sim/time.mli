(** Simulated time.

    All simulation timestamps are integer picoseconds. Picosecond
    resolution keeps clock-cycle arithmetic exact for every frequency
    used in the model (an 800 MHz FPC cycle is exactly 1250 ps, a
    2 GHz host cycle is exactly 500 ps) while an OCaml [int] still
    covers more than a month of simulated time. *)

type t = int
(** A point in (or span of) simulated time, in picoseconds. *)

val zero : t

val ps : int -> t
(** [ps n] is [n] picoseconds. *)

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : float -> t
(** [sec s] is [s] seconds, rounded to the nearest picosecond. *)

val to_ns : t -> float
(** [to_ns t] is [t] expressed in nanoseconds. *)

val to_us : t -> float
(** [to_us t] is [t] expressed in microseconds. *)

val to_ms : t -> float
(** [to_ms t] is [t] expressed in milliseconds. *)

val to_sec : t -> float
(** [to_sec t] is [t] expressed in seconds. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print with an auto-selected unit (ps/ns/us/ms/s). *)

module Freq : sig
  type time = t

  type t
  (** A clock frequency, represented exactly as picoseconds per cycle. *)

  val of_mhz : int -> t
  (** [of_mhz f] is a clock of [f] MHz. Raises [Invalid_argument] if
      the period is not a whole number of picoseconds. *)

  val of_ghz : float -> t

  val ps_per_cycle : t -> int

  val cycles : t -> int -> time
  (** [cycles f n] is the duration of [n] cycles of clock [f]. *)

  val to_cycles : t -> time -> int
  (** [to_cycles f t] is [t] expressed in whole cycles of [f],
      rounding up (a partial cycle still occupies the core). *)
end
