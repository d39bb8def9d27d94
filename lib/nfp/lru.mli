(** O(1) LRU set over connection indices, modelling the EMEM SRAM
    cache. Keys are non-negative and dense (they index a
    {!Conn_table}); {!access} raises [Invalid_argument] on a negative
    key.

    The 2 GB EMEM DRAM is fronted by a 3 MB SRAM cache (§2.3); with
    108 B of connection state the paper reports ~16 K connections
    resident (§A). This structure answers "does this access hit the
    SRAM cache?" for arbitrarily many connections with constant-time
    updates (unlike {!Cam}, which is a deliberately tiny linear-scan
    structure).

    FlexScale adds {e pinning}: an access with [~pin:true] marks the
    key hot (an Established flow's state), and eviction prefers the
    LRU {e unpinned} key. A fully-pinned cache still evicts — the
    model never deadlocks — but the forced eviction is counted in
    {!pinned_evictions} rather than happening silently. *)

type t

val create : entries:int -> t

val access : ?pin:bool -> t -> int -> bool
(** [true] on hit; either way the key becomes most-recently-used
    (installed on miss, evicting the LRU {e unpinned} key if full;
    see {!pinned_evictions} for the fully-pinned fallback).
    [~pin:true] (default false) marks the key pinned. *)

val mem : t -> int -> bool

val unpin : t -> int -> unit
(** Clear a key's pinned mark (the flow left Established), making it
    an ordinary eviction candidate again; no-op when absent. *)

val remove : t -> int -> unit
(** Invalidate a key (teardown-driven cache eviction); counts toward
    {!invalidations} when present. *)

val length : t -> int
val capacity : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Capacity evictions performed by {!access} on a miss when full
    (pressure — distinct from explicit {!remove} invalidations). *)

val invalidations : t -> int

val pinned_evictions : t -> int
(** Evictions that were forced to take a pinned (hot) key because
    every resident key was pinned. Zero on a healthy configuration:
    the regression gate pins this. *)
