(** The NFP memory hierarchy as access-latency levels. *)

type level =
  | Local  (** FPC-local memory and registers. *)
  | Cls  (** Island-local scratch (64 KB). *)
  | Ctm  (** Island target memory (256 KB). *)
  | Imem  (** Internal SRAM (4 MB). *)
  | Emem_cached  (** EMEM access hitting the 3 MB SRAM cache. *)
  | Emem  (** External DRAM (2 GB). *)

val latency_cycles : Params.t -> level -> int
val pp_level : Format.formatter -> level -> unit

(** FlexScale capacity-pressure accounting for the shared EMEM
    (DESIGN.md §17): tracks resident per-flow state (flows and bytes,
    with peaks for the bytes/flow bench gate) and derives a
    deterministic extra miss cost once the working set overcommits
    the EMEM cache. Zero extra cost at or below capacity, so
    configurations inside the working set are bit-identical to the
    unmodelled hierarchy. *)
module Pressure : sig
  type t

  val create : capacity_flows:int -> t
  (** [capacity_flows <= 0] means unbounded (never any pressure). *)

  val install : t -> bytes:int -> unit
  (** Account one installed connection's state. *)

  val remove : t -> bytes:int -> unit
  (** Release one connection's state (clamped at zero). *)

  val bytes_per_flow : t -> int
  (** Peak resident bytes per peak resident flow, rounded up — the
      footprint number the "scale" bench gate pins. 0 before any
      install. *)

  val extra_miss_cycles : t -> Params.t -> int
  (** Extra cycles an EMEM miss pays beyond [emem_cycles]: 0 at or
      under capacity, growing linearly with overcommit and clamped at
      [4 * emem_cycles]. Deterministic (a pure function of the
      resident-flow count), so it cannot perturb golden traces below
      capacity. *)
end
