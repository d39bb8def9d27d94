(** Direct-indexed table keyed by a dense connection index.

    FlexTOE addresses per-connection state by a small dense index
    (§4): the data path's state arrays, the scheduler's flow entries
    and the host's socket table are all indexed by it. This is that
    table: a growable array of cells, so a lookup is a bounds check and
    a load, with no hashing and no polymorphic compare. It grows to
    cover the largest key ever stored, so it suits keys that are
    allocated densely from zero, not arbitrary integers.

    There is no iteration: callers that need an order keep their own. *)

type 'a t

val create : unit -> 'a t
(** An empty table. *)

val find_opt : 'a t -> int -> 'a option
(** [find_opt t key] is the value stored under [key], if any. Never
    allocates. Negative keys are simply absent. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** [replace t key v] stores [v] under [key], replacing any previous
    value and growing the table if [key] is beyond it. Raises
    [Invalid_argument] on a negative key. *)

val remove : 'a t -> int -> unit
(** Forget [key]; a no-op when it is absent. *)

val length : 'a t -> int
(** Number of keys stored. *)
