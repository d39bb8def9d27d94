(** First-in first-out queue with the shape of [Stdlib.Queue], on a
    growable power-of-two array ring.

    The difference is what a pop leaves behind. [Stdlib.Queue] keeps
    the popped cell linked to the rest of the chain, so in a queue that
    lives in the major heap every push adds an old-to-young pointer,
    and each minor collection promotes everything pushed since the
    last one, popped or not. Here a pop resets its cell to an
    immediate filler: a value popped before the next minor collection
    is never promoted, and a value that has left the queue is never
    kept reachable by it. Pushing and popping allocate nothing beyond
    doubling the ring when it fills; a fresh queue holds no array
    until its first push. *)

type 'a t

exception Empty
(** Raised by {!pop} and {!peek} on an empty queue. *)

val create : unit -> 'a t
val push : 'a -> 'a t -> unit
(** Add a value at the tail. *)

val pop : 'a t -> 'a
(** Remove and return the head. Raises {!Empty}. *)

val take_opt : 'a t -> 'a option
(** Remove and return the head, or [None] when empty. *)

val peek : 'a t -> 'a
(** The head, left in place. Raises {!Empty}. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val iter : ('a -> unit) -> 'a t -> unit
(** Head to tail. The function must not push to or pop from the
    queue. *)

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Head to tail, like {!iter}. *)

val clear : 'a t -> unit
(** Drop every value; the ring keeps its capacity. *)
