(** FlexScope core recorder: segment-lifecycle spans, per-stage cycle
    histograms, counter time series, and a bounded per-connection
    flight recorder, exportable as Chrome [trace_event] JSONL plus a
    JSON metrics snapshot.

    This module is deliberately generic (it knows nothing about the
    FlexTOE pipeline); [Flextoe.Flexscope] wires it to the datapath.
    The datapath holds a [Scope.t option] and every hook costs one
    branch when profiling is disabled. *)

type mode =
  | Metrics_only
      (** Histograms, counters, series aggregates and the flight
          recorder only — no per-event Chrome trace records. *)
  | Full  (** Everything, including Chrome [trace_event] records. *)

type t

type span
(** An open per-stage span (started at {!span_begin}). *)

type flight_entry = {
  fl_time : Time.t;
  fl_kind : string;  (** ["span"], ["begin"], ["end"] or ["instant"] *)
  fl_name : string;
  fl_arg : int;
}

val create :
  ?mode:mode -> ?max_events:int -> ?flight_capacity:int -> Engine.t -> t
(** [max_events] bounds the in-memory Chrome event buffer (excess
    events are counted in [dropped_events], never silently lost);
    [flight_capacity] is the per-connection flight-recorder ring
    size. Defaults: [Full], 200_000 events, 32 flight entries. *)

val mode : t -> mode

(** {1 Stage spans}

    [span_end] records [cycles] — the compute cycles the pipeline
    model charged for the stage — into the ["stage/<stage>"]
    histogram, so histogram means are directly comparable to the
    model's configured costs. Wall-clock start/end timestamps are
    kept separately for the Chrome trace. *)

val span_begin : t -> stage:string -> conn:int -> id:int -> span
val span_end : t -> span -> cycles:int -> unit

(** {1 Segment lifecycle (async) spans}

    Keyed by [(track, id)]; the elapsed wall time is recorded into
    the ["lifecycle_ns/<track>"] histogram at [seg_end]. Ends without
    a matching begin are ignored. *)

val seg_begin : t -> track:string -> conn:int -> id:int -> unit
val seg_end : t -> track:string -> id:int -> unit

val instant : t -> track:string -> name:string -> conn:int -> arg:int -> unit

(** {1 Metrics primitives} *)

val record : t -> string -> int -> unit
(** [record t name v] adds [v] to histogram [name] (created on first
    use). *)

val count : t -> name:string -> ?n:int -> unit -> unit

val sample : t -> series:string -> value:float -> unit
(** Append a point to a named time series. Aggregates (last, min,
    max, mean, sample count) always appear in the metrics snapshot;
    in [Full] mode each point is also a Chrome ["C"] counter event. *)

(** {1 Flight recorder} *)

val flight : t -> conn:int -> flight_entry list
(** Retained entries for [conn], oldest first (at most
    [flight_capacity]). *)

val flight_total : t -> conn:int -> int
(** Total events ever recorded for [conn], including overwritten
    ones. *)

val dump_flight : t -> conn:int -> reason:string -> Format.formatter -> unit
val flight_dumps : t -> int

(** {1 Export} *)

val write_trace : t -> out_channel -> unit
(** Chrome [trace_event] JSONL: one JSON object per line — ["M"]
    thread-name metadata first, then ["X"]/["b"]/["e"]/["i"]/["C"]
    events in chronological recording order. Timestamps are
    microseconds; stage/track names map to small integer [tid]s. *)

val validate_trace_line : Json.t -> (unit, string) result
(** Schema check for one line of {!write_trace} output (the subset of
    the Chrome [trace_event] format the exporter emits): required
    [name]/[ph]/[pid]/[tid] on every record, numeric [ts] on
    non-metadata records, non-negative [dur] on ["X"], [cat]+[id] on
    ["b"]/["e"]. Used by [flexlint trace-check] and the tests. *)

val metrics : t -> Json.t
(** Snapshot: counters, histograms (count/mean/min/max/p50/p90/p99/
    p999 via the [_opt] queries — empty reads as [null], not 0),
    series aggregates, and event/drop/dump totals. *)

val write_metrics : t -> out_channel -> unit

val events_recorded : t -> int
val dropped_events : t -> int

val histograms : t -> (string * Stats.Histogram.t) list
(** Name/histogram pairs in creation order. *)

(** {1 Domain-safe shards}

    A parallel run must not funnel every LP's instrumentation through
    one shared recorder — the [t] above is single-domain state. A
    {!Shard.t} is a per-domain bounded buffer of recorder operations
    (histogram adds, counter bumps, series samples, instants), each
    stamped with the recording LP's virtual time and a per-shard
    monotone sequence number (gseq). At a sync point — between
    {!Engine.Cluster.run} phases, or at the end of a run — the
    coordinator calls {!Shard.merge}, which applies all buffered
    operations to a target recorder in (timestamp, gseq, shard id)
    order. That order is fixed by the LPs' deterministic executions,
    not by domain interleaving, so merged metrics are bit-identical
    at any domain count. *)

module Shard : sig
  type scope = t

  type t
  (** A per-domain bounded operation buffer. Only the owning LP's
      domain may record into it; only the coordinator (with all
      workers stopped) may merge it. *)

  val create : ?capacity:int -> id:int -> unit -> t
  (** [capacity] (default 65536) bounds buffered operations; excess
      operations are counted in {!dropped}, never silently lost. *)

  val id : t -> int

  val record : t -> now:Time.t -> string -> int -> unit
  (** Buffered {!val-record}. [now] is the owning LP's clock — shards
      never read the merge target's engine. *)

  val count : t -> now:Time.t -> name:string -> ?n:int -> unit -> unit
  val sample : t -> now:Time.t -> series:string -> value:float -> unit

  val instant :
    t -> now:Time.t -> track:string -> name:string -> conn:int -> arg:int ->
    unit

  val pending : t -> int
  (** Operations currently buffered. *)

  val dropped : t -> int
  (** Operations discarded because the buffer was full. *)

  val merge : scope -> t list -> unit
  (** Apply every shard's buffered operations to the target recorder
      in (timestamp, gseq, shard id) order, emptying the shards.
      Dropped-operation counts are per-shard and survive the
      merge. *)
end
