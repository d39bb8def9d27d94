(** Segment sequencing and reordering (§3.2).

    Parallel pipeline stages (replicated pre/post-processors, DMA
    managers) can reorder segments. Because TCP receivers treat
    reordering as loss, FlexTOE assigns every segment entering the
    pipeline a sequence number and re-establishes that order at two
    choke points: before the protocol stage (the GRO FPC) and before
    the NBI (the TX reorderer). A dropped segment must {e skip} its
    sequence number or the stream would stall. *)

type 'a t

(** Observation hooks (used by the FlexSan sanitizer). [sq_submit]
    runs in the submitting context on every {!submit} and {!skip};
    [sq_release] wraps each in-order release — together they expose
    the sequencer's ordering guarantee as a happens-before edge. *)
type tracer = {
  sq_submit : unit -> unit;
  sq_release : (unit -> unit) -> unit;
}

val create : name:string -> release:('a -> unit) -> 'a t
(** [release] is called, in sequence order, for every submitted item.
    The reorder ring is made by the first {!submit} or {!skip}. *)

val set_tracer : 'a t -> tracer option -> unit
(** Install (or clear) the tracer. Zero cost when unset. *)

val next_seq : 'a t -> int
(** Allocate the next pipeline sequence number (at pipeline entry). *)

val allocated : 'a t -> int
(** How many sequence numbers [next_seq] has handed out: every number
    allocated from here on is at least this. *)

val submit : 'a t -> seq:int -> 'a -> unit
(** Hand an item (back) to the sequencer; it is released once all
    earlier sequence numbers have been submitted or skipped. Raises
    [Invalid_argument] on duplicate or never-allocated sequence
    numbers. *)

val skip : 'a t -> seq:int -> unit
(** Declare a sequence number dead (segment dropped mid-pipeline). *)

val pending : 'a t -> int
(** Items buffered waiting for a predecessor. *)

val released : 'a t -> int
val reordered : 'a t -> int
(** Items that arrived out of pipeline order (a measure of how much
    reordering the parallel stages introduced). *)
