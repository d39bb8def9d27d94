(** FlexProve graph IR: an explicit typed model of the datapath.

    The datapath's safety argument lives in its wiring — which stages
    exist, what serializes them, which queues sit between them, which
    credits gate them. This module states it as data so the FlexProve
    passes ({!Prove}) can check an arbitrary stage graph, not just the
    built-in one. {!builtin} projects the pipeline table
    ({!Pipeline}) as one node per row, parameterized by {!Config.t}
    (slots, batch degree, guard bounds; the FlexScale shard count
    changes nothing), with each row as the table builds it, so
    `flexlint graph` can classify each seeded variant
    ({!Defect.pipeline}) as caught or dynamic-only. *)

type capacity = Bounded of int | Unbounded

(** What happens when a queue is offered more than it can hold.
    [Backpressure] blocks the producer (occupancy-safe, feeds the
    deadlock pass); [Drop] sheds by a named policy (safe by design);
    [Reject] means overflow would be a bug — the bounds pass must
    prove worst-case occupancy fits the capacity. *)
type overflow = Backpressure | Drop of string | Reject

(** Worst-case-occupancy expressions, evaluated by the bounds pass
    against the graph itself: [Tokens l] / [Cap l] is the token count
    / capacity of the edge labelled [l]. [Unbounded_by s] declares
    open-loop inflow limited only by [s] — never acceptable on a
    [Reject] queue. *)
type bound =
  | Const of int
  | Tokens of string
  | Cap of string
  | Sum of bound list
  | Unbounded_by of string

type node = {
  n_name : string;
  n_contract : Effects.contract;
  n_slots : int;  (** Concurrent execution slots (replicas × threads). *)
  n_serialized_writes : bool;
      (** Writes happen inside the serialization domain's critical
          section; [false] models an early-release defect. *)
}

type edge_kind =
  | Dataflow of { df_ordered : bool }
      (** Work handed downstream; [df_ordered] = the hand-off
          preserves completion order (FIFO / sequencer / waits for
          DMA completion). *)
  | Queue of {
      q_capacity : capacity;
      q_overflow : overflow;
      q_batch : int;  (** Units coalesced per hand-off. *)
      q_bound : bound;  (** Worst-case occupancy. *)
    }
  | Credit of { cr_tokens : int }
      (** Backpressure loop: [src]'s execution is gated on tokens
          that only [dst]'s progress returns. *)

type edge = {
  e_src : string;
  e_dst : string;
  e_label : string;
  e_kind : edge_kind;
  e_drain : string option;
      (** For blocking edges: why the block always clears without
          help from the blocked side (timer flush, unconditional
          completion). [None] = clearing needs the far side to make
          progress — such an edge cannot break a deadlock cycle. *)
}

type t = { g_name : string; g_nodes : node list; g_edges : edge list }

val find_edge : t -> string -> edge option
val edge_capacity : edge -> capacity option
val edge_tokens : edge -> int option

val is_dataflow : edge -> bool
(** Edges a unit of work actually travels (queues and dataflow, not
    credit returns), used for ordering-path searches. *)

val is_ordered : edge -> bool
(** Does the edge preserve per-flow completion order? Queues are FIFO
    by construction; dataflow edges declare it. *)

val is_blocking : edge -> bool
(** Blocking edges: the source can stall until the far side clears
    them. These form the wait-for graph of the deadlock pass. *)

val builtin : ?pipeline:Pipeline.t -> config:Config.t -> unit -> t
(** The graph of [pipeline] (default {!Pipeline.builtin}) as built for
    [config]: one node per row plus the host pseudo-node, with the
    row's contract and slots; queue capacities from [Nfp.Params]
    and the table's edge constants, the batch degree from
    [Config.batch_degree], the CP-queue bound from [Config.guard].
    [config.scale] is not read: FlexScale shards add no FPC, lock
    table or sequencer, so the graph is the same at every shard count.
    A row's departure ({!Pipeline.departure}) is built in: a skipped
    lock drops the row's [Serial_conn] domain, an early release lets
    its writes escape the critical section, an extra entry adds its
    accesses to the row's footprint, and a [dma] or [ctx] row that
    does not wait for its DMA leaves its notify edge ([dma]→[ctx] or
    [ctx]→[host]) unordered. [Datapath.create] checks the graph of
    {!Pipeline.declared}, which has none. *)

val bound_to_string : bound -> string

val to_dot : t -> string
(** Graphviz rendering: queues bold (capacity/batch), credits dashed,
    draining edges dark green, early-release stages flagged. *)
