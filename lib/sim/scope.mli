(** FlexScope core recorder: segment-lifecycle spans, per-stage cycle
    histograms, counter time series, and a bounded per-connection
    flight recorder, exportable as Chrome [trace_event] JSONL plus a
    JSON metrics snapshot.

    This module is deliberately generic (it knows nothing about the
    FlexTOE pipeline); [Flextoe.Flexscope] wires it to the datapath.
    The datapath holds a [Scope.t option] and every hook costs one
    branch when profiling is disabled. Scope keeps no event counters
    of its own: the snapshot reads them from the layers that own them
    ({!add_counters}).

    A recorder is single-domain state. Under the parallel engine each
    node's recorder lives on its own world's LP, so no recorder is
    shared across domains and none needs merging. *)

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
    a matching begin are ignored. At most 65536 spans are open at
    once, across tracks: a begin beyond that is not tracked. *)

val seg_begin : t -> track:string -> conn:int -> id:int -> unit
val seg_end : t -> track:string -> id:int -> unit

val instant : t -> track:string -> name:string -> conn:int -> arg:int -> unit

(** {1 Metrics primitives} *)

val record : t -> string -> int -> unit
(** [record t name v] adds [v] to histogram [name] (created on first
    use). *)

val add_counters : t -> (unit -> (string * int) list) -> unit
(** [add_counters t source] registers a counter source. {!metrics}
    calls every source at snapshot time and reports the counters
    whose value is positive, sorted by name. Names must be distinct
    across sources. *)

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
(** Snapshot: counters (read from the registered sources),
    histograms (count/mean/min/max/p50/p90/p99/p999 via the [_opt]
    queries — empty reads as [null], not 0), series aggregates, and
    event/drop/dump totals. *)

val write_metrics : t -> out_channel -> unit

val events_recorded : t -> int
val dropped_events : t -> int

val histograms : t -> (string * Stats.Histogram.t) list
(** Name/histogram pairs in creation order. *)
