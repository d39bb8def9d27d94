(** Per-socket payload buffers in host memory.

    FlexTOE keeps per-socket RX/TX payload buffers in per-process host
    memory (allocated from hugepages by the control plane); the NIC
    data-path DMAs payloads directly to/from them at positions
    computed by the protocol stage. The buffer is addressed by
    {e absolute stream offset}: offset [o] maps to ring index
    [o mod size]. Range accounting (what is valid, acked, readable) is
    the caller's responsibility, exactly as in FlexTOE where the
    protocol stage owns the positions (§3, Table 5).

    The ring is stored as fixed {!chunk}-byte pieces (one piece of
    [size] bytes when [size < chunk]). A chunk is mapped by the first
    write into it and returns to the buffer's own spare list once
    every byte written into it lies below the owner's {!release}
    point, so steady streaming allocates nothing and a buffer holds
    its bytes in flight, rounded up to chunks, rather than [size]
    bytes. Nothing else changes with chunking: [size], the
    offset-to-ring mapping and so every window are those of a flat
    ring.

    Offsets are non-negative stream positions; ranges may wrap. *)

type t

val chunk : int
(** Bytes per chunk: 4096, a power of two. *)

val create : size:int -> t
(** [size] must be positive (FlexTOE would also require a power of
    two; we only require positivity). Maps no chunk. *)

val size : t -> int

val write : t -> off:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Copy [len] bytes of [src] starting at [src_off] into the ring at
    stream offset [off] (wrapping), mapping chunks as needed. A later
    lap simply overwrites, as in a flat ring. Raises
    [Invalid_argument] if [len > size] or if [len > 0] and
    [off < released t]. *)

val read : t -> off:int -> len:int -> Bytes.t
(** Copy out [len] bytes at stream offset [off]. Raises
    [Invalid_argument] if [len > size], or if [len > 0] and the range
    starts below [released t] or touches an unmapped chunk: a released
    range is never read back as stale bytes. *)

val read_into : t -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** [read] into [dst] at [dst_off]; raises as [read] does. *)

val release : t -> upto:int -> unit
(** The owner is done with every byte below stream offset [upto]: no
    later read or write touches them. Unmaps each chunk whose written
    bytes all lie below [upto]; the work is proportional to the chunks
    spanned since the last release. The owner is whoever consumes the
    bytes last: the reader of an RX buffer, and for a TX buffer the
    data path, once its fetches of those bytes are done. A buffer that
    is never released behaves as a flat ring. [upto] at or below
    [released t] is a no-op. *)

val released : t -> int
(** The highest [upto] released so far (0 initially). *)

val mapped_chunks : t -> int
(** Chunks currently mapped: those holding unreleased bytes. *)

val held_bytes : t -> int
(** Memory the buffer holds: mapped and spare chunks. *)
