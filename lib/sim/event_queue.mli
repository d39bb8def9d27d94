(** Priority queue of timed events.

    Two sorted sources, merged at pop time. The main one is a binary
    min-heap stored as a structure of arrays: flat [int] arrays hold
    each entry's time, its seq and where its value is, and per-slot
    arrays hold the values and cancellation tags. The
    other is the {e same-instant lane}, a FIFO ring for plain pushes
    due at the time of the last pop, the "start on the next tick"
    events a cycle-level model issues in bulk. Its entries share one
    time and arrive in seq order, so it is sorted as it stands and
    costs O(1) per push and pop. Pushing and popping allocate nothing
    (beyond doubling an array when it fills; {!push_cancellable}
    allocates its handle), and a slot or ring cell vacated by a pop
    never keeps the popped value reachable.

    {b Handlers.} A value that is built once and lives as long as the
    wheel, such as a hardware thread's "next phase" continuation, is
    {!register}ed once and then pushed as a {!handler}: the wheel
    stores the handler's int id, so such a push or pop writes no
    pointer into the wheel and never runs the write barrier. A
    registered value stays reachable from the wheel for the wheel's
    life; register only values that live that long, never one per
    event. A handler is bound to the wheel that registered it: pushing
    it on another raises [Invalid_argument]. Any other value takes the
    ordinary path, and its slot is cleared when it pops.

    {b Ordering.} Entries pop in increasing (time, seq) order, where
    seq is the wheel's insertion counter, so events with equal
    timestamps pop in insertion order. Seq is unique, so this is a
    total order: the pop sequence depends only on the pushes (and
    cancellations), never on heap tie-breaking accidents, on which
    source an entry sat in or on whether it was a handler, which is
    what makes simulations deterministic. A pop compares the lane's
    head with the heap's top under that order, once. Only plain and
    handler pushes take the lane; cancellable and reserved ones always
    go to the heap. {!reserve} takes a seq ahead of its
    {!push_reserved}.

    {b Cancellation.} {!cancel} marks a {!push_cancellable} event dead
    at once ({!length} drops); its slot is reclaimed when it reaches
    the top, and it is never returned. A handle names its entry's slot
    and seq, and a slot forgets the seq when it is freed, so
    cancelling an event that has already popped, or was already
    cancelled, is a no-op even after its slot holds another entry. The
    wheel counts the cancelled entries still queued; while that count
    is 0, a pop does not look for them. *)

type 'a t

type handle
(** Identifies a cancellable event. *)

type 'a handler
(** A value registered once with one wheel, pushed by id. *)

val create : unit -> 'a t

val register : 'a t -> 'a -> 'a handler
(** [register q v] adds [v] to [q]'s handler table for [q]'s life and
    returns its handler. *)

val set_handler : 'a handler -> 'a -> unit
(** [set_handler h v] makes [v] the value [h] stands for, from its
    next pop on. This closes a cycle at construction: register a
    placeholder, build the record that holds the handler, then set
    the value that captures that record. *)

val push : 'a t -> Time.t -> 'a -> unit
(** [push q time v] schedules [v] at [time]. *)

val push_handler : 'a t -> Time.t -> 'a handler -> unit
(** [push_handler q time h] schedules [h]'s value at [time], exactly as
    {!push} of that value would, without storing a pointer. Raises
    [Invalid_argument] if [h] was registered on another wheel. *)

val reserve : 'a t -> int
(** [reserve q] takes, now, the key a {!push} made now would get: a
    fresh seq. Nothing is queued. The key is for one later
    {!push_reserved}, which places its entry exactly where a {!push}
    at the time of [reserve] would have placed it. This is what lets
    a FIFO of entries with non-decreasing times keep only its head
    in the wheel (see [Engine.Stream]): each entry's key is taken when
    it is scheduled, and its push waits until the entry before it pops.
    Entries of one FIFO then pop in FIFO order, since their keys and
    times both grow, and the pop sequence is the one that pushing them
    all up front would give. *)

val push_reserved : 'a t -> Time.t -> key:int -> 'a handler -> unit
(** [push_reserved q time ~key h] schedules [h]'s value at [time] under
    a key from {!reserve}. The entry always takes the heap: its key may
    precede those of later pushes already in the same-instant lane. The
    caller must push each reserved key at most once, and before the
    wheel pops past ([time], [key]). Raises [Invalid_argument] for an
    int that no {!reserve} on [q] returned, or for a handler registered
    on another wheel. *)

val push_cancellable : 'a t -> Time.t -> 'a -> handle
(** Like {!push} but returns a handle for {!cancel}. *)

val cancel : 'a t -> handle -> unit
(** Cancel a previously pushed event. Cancelling an event that has
    already popped (or was already cancelled) is a no-op. *)

val next_time : 'a t -> Time.t
(** Timestamp of the earliest live event, or [max_int] when there is
    none. Drops cancelled entries that have reached the top; allocates
    nothing. *)

val pop_next : 'a t -> 'a
(** Remove the earliest live event — the one {!next_time} reports —
    and return its value without allocating. Raises [Invalid_argument]
    when no live event is queued. *)

val pop_due : 'a t -> limit:Time.t -> none:'a -> 'a
(** [pop_due q ~limit ~none] is {!pop_next} when the earliest live
    event is due at or before [limit], and [none] otherwise (also when
    nothing is queued). It decides once which source goes next, where
    {!next_time} followed by {!pop_next} decides twice; {!last_pop}
    then gives the popped event's time. Pass a [none] that is never
    pushed, so that the caller can tell it apart with [==]. *)

val last_pop : 'a t -> Time.t
(** Time of the last event popped, or [min_int] before the first. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)
