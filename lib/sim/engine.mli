(** The discrete-event simulation engine.

    An engine is one {e logical process} (LP): a private event wheel,
    a private virtual clock and a private deterministic RNG stream.

    Used solo ({!create}), it is the single-threaded event loop: all
    actors in the model schedule continuation callbacks on one engine
    and execution is sequential and deterministic.

    Under {!Cluster}, several independent LPs run to a common horizon
    on a pool of OCaml 5 domains. LPs never exchange events: each one
    is a whole world (its nodes and their fabric), and {!Cluster.run}
    advances each exactly as a solo {!run} [~until] would. Results
    are therefore bit-identical for any number of domains.

    Stage and actor code should confine itself to the top-level
    scheduling functions and {!Local}; building LPs and running them
    belong to the coordinator via {!Cluster}. *)

type t

type handle
(** A cancellable scheduled callback. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] is a fresh solo engine at time zero whose
    {!Local.rng} stream is seeded with [seed] (default [1L]). It also
    stops the parked workers of past {!Cluster.run}s, which would
    otherwise slow every minor collection of the solo run. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_at t time k] runs [k] at absolute [time]. Scheduling in
    the past raises [Invalid_argument]. *)

val schedule : t -> Time.t -> (unit -> unit) -> unit
(** [schedule t delay k] runs [k] after [delay] (relative). A
    non-positive delay runs [k] at the current time, after events
    already queued for this instant. *)

val schedule_cancellable : t -> Time.t -> (unit -> unit) -> handle
(** Like {!schedule} (relative delay) but cancellable. *)

val cancel : t -> handle -> unit

(** {2 Handlers}

    A callback built once that lives as long as its LP, such as an FPC
    hardware thread's "next phase" and "compute burst done"
    continuations or a {!Stream}'s delivery, is registered once and
    then scheduled by id ([Event_queue.push_handler]). Such an event
    runs exactly where {!schedule} of the same callback would run it,
    but scheduling and dispatching it store no pointer into the wheel,
    so neither runs the GC's write barrier. The contract:
    - register a handler once, when its owner is built, never per
      event: the LP keeps every registered callback reachable for its
      whole life;
    - a handler is bound to the LP that registered it: scheduling it
      on another raises [Invalid_argument]. *)

type handler

val register : t -> (unit -> unit) -> handler
(** [register t k] registers [k] on [t] for [t]'s life. *)

val set_handler : handler -> (unit -> unit) -> unit
(** [set_handler h k] makes [h] run [k] from now on: register a
    placeholder, build the record that holds [h], then set the
    callback that captures that record. *)

val schedule_handler : t -> Time.t -> handler -> unit
(** [schedule_handler t delay h] is {!schedule} [t delay] of [h]'s
    callback, by id. Raises [Invalid_argument] if [h] was registered
    on another LP. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run the event loop until the queue empties, [until] is reached
    (events at later times stay queued), or [max_events] callbacks
    have run in this call. The clock then moves to [until] if no event
    due at or before [until] is left; a run that stops on its
    [max_events] budget leaves the clock at its last event, so a later
    run dispatches the rest at their own times. Each dispatch decides
    once whether the same-instant lane or the heap goes next
    ([Event_queue.pop_due]). Solo engines only; driving a cluster LP
    directly raises [Invalid_argument] — use {!Cluster.run}. *)

val step : t -> bool
(** Run a single event; [false] if the queue was empty. Solo engines
    only, like {!run}. *)

val events_processed : t -> int

val pending : t -> int
(** Number of events currently queued, counting every entry of every
    {!Stream}, not only the heads that sit in the wheel. *)

(** Monotone event streams: FIFO servers' completions without a wheel
    entry each.

    A stream belongs to one LP and holds events whose times never
    decrease, such as the deliveries of a serialized link or the
    completions of an in-order DMA engine. Only its earliest entry sits
    in the LP's wheel; the rest wait in the stream's ring, so a link
    with a thousand frames in flight costs the wheel one entry.

    {b Ordering.} {!Stream.schedule_at} takes the entry's wheel key at
    once, exactly as {!val:schedule_at} would ([Event_queue.reserve]).
    When an entry pops, the next one is pushed under its own key before
    the popped callback runs. Every entry therefore runs where
    {!val:schedule_at} at the same moment would have run it: the
    pop order, the clock and {!events_processed} are identical, and the
    stream changes what an event costs, never when it runs.

    Like {!Local}, a stream acts on its LP's private state: schedule on
    it only from that LP's own events, or before the run starts.
    Streams cannot be cancelled. A stream's delivery is a {!handler}
    of its LP, so create a stream once per owner that lives as long as
    the LP, never per event. *)
module Stream : sig
  type engine := t
  type t

  val create : engine -> t
  (** An empty stream on the given LP. *)

  val schedule_at : t -> Time.t -> (unit -> unit) -> unit
  (** [schedule_at s time k] runs [k] at absolute [time], after every
      entry already in [s]. Raises [Invalid_argument] if [time] is
      before the LP's clock or before the time of the stream's last
      entry. *)

  val schedule : t -> Time.t -> (unit -> unit) -> unit
  (** [schedule s delay k] is [schedule_at s (now + max 0 delay) k]. *)
end

(** An LP's name and private random stream. Stage and actor code
    schedule on their own LP with the top-level functions above; like
    those, everything here acts on the calling LP's private state,
    which only the domain currently running that LP ever touches. *)
module Local : sig
  val name : t -> string

  val rng : t -> Rng.t
  (** This LP's deterministic stream. For a solo engine this is the
      root stream seeded at {!create} (so existing worlds reproduce
      their traces bit-for-bit); for a cluster LP created without an
      explicit seed it is {!Rng.stream} keyed by (cluster seed, the
      LP's creation index), independent of domain interleaving. Actors needing
      their own streams should {!Rng.split} it at construction
      time. *)
end

(** The coordinator surface: a set of independent LPs and the
    parallel run loop. *)
module Cluster : sig
  type lp = t
  (** A logical process is just an engine. *)

  type t
  (** A set of LPs plus the worker configuration. *)

  val create : ?seed:int64 -> ?domains:int -> unit -> t
  (** [create ~seed ~domains ()] is an empty cluster. [domains]
      (default 1) bounds the workers used by {!run}; the actual
      worker count is [min domains (number of LPs)], further capped
      at {!worker_cap} of the [FLEXPAR_WORKERS] environment variable
      ([Domain.recommended_domain_count ()] when it is unset:
      oversubscribing cores only buys GC-barrier stalls). Results
      never depend on [domains]. *)

  val domains : t -> int
  val set_domains : t -> int -> unit

  val add_lp : ?name:string -> ?seed:int64 -> t -> lp
  (** Add an LP. With an explicit [seed] its stream is exactly the
      stream of a solo engine created with that seed (the golden
      worlds rely on this); by default the stream is {!Rng.stream}
      derived from the cluster seed and the LP's creation index.
      Raises [Invalid_argument] while the cluster is running. *)

  val lps : t -> lp list
  (** In creation order. *)

  val run : until:Time.t -> t -> unit
  (** Advance every LP to [until], each exactly as the solo {!run}
      [~until] would (events at exactly [until] included). Uses up to
      [domains] workers (see {!create}); with one worker (or one LP)
      the LPs run one after another on the calling domain.
      Re-runnable with a larger [until] to continue — warmup /
      measurement-window phasing works as it does on a solo engine.

      Worker 0 is the calling domain; workers 1 and up are domains of
      one process-wide pool, which parks them on condition variables
      between runs. The pool holds exactly the workers the last run
      used: a run with more workers spawns the missing ones, and a
      run with fewer, a new solo engine ({!val:create}) or the
      process's exit ([at_exit]) stops and joins the spares, because
      every live domain, parked or not, takes part in every
      stop-the-world collection. Runs with an unchanged worker count
      spawn and join nothing. The LP created [i]-th runs on worker
      [i mod n] of an [n]-worker run: the same domain on every such
      run, of any cluster.

      An exception raised by an event is re-raised here after all
      workers have stopped (a worker starts no further LP once one
      has raised); the pool stays usable. Only one run may be in
      progress in the process: a run entered while another is (from
      another thread, or from inside an LP event) raises
      [Invalid_argument], as does an invalid [FLEXPAR_WORKERS]. *)

  val max_workers : int
  (** The most workers [FLEXPAR_WORKERS] can ask for: 8. *)

  val worker_cap : string option -> int
  (** [worker_cap v] is the cap on a run's workers for the value [v]
      of [FLEXPAR_WORKERS]: [Domain.recommended_domain_count ()] when
      unset, else [v] clamped to {!max_workers}. Setting it
      oversubscribes a small host, so that a 1-core runner still
      exercises real parallel workers. Raises [Invalid_argument] on a
      value that is not a positive decimal integer. *)

  val workers_used : t -> int
  (** Workers used by the last {!run}, the calling domain included. *)

  val gvt : t -> Time.t
  (** Global virtual time: the minimum LP clock ([until] after a
      completed {!run}). *)

  val events_processed : t -> int
  (** Total over all LPs. *)
end
