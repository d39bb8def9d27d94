(** Deterministic pseudo-random number generation.

    A splitmix64 generator: fast, statistically adequate for workload
    generation and loss injection, and fully deterministic given a
    seed, so every experiment in the repository is reproducible. Its
    state is stored unboxed, so a draw allocates nothing. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] is a new generator whose stream is independent of
    subsequent draws from [t] (seeded from [t]'s next output). *)

val stream : seed:int64 -> key:int -> t
(** [stream ~seed ~key] is a generator derived purely from the
    [(seed, key)] pair — unlike {!split} it consumes no state, so the
    resulting stream does not depend on how many draws (or splits)
    happened before it was created. The parallel engine keys each
    logical process's stream by its creation index this way, making RNG draws
    independent of domain interleaving. Raises [Invalid_argument] on
    a negative [key]. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with
    the given mean (used for open-loop Poisson arrival processes). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
