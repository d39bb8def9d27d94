(** BPF maps: array and hash maps over fixed-size byte keys/values.

    XDP modules store state in BPF maps that the control plane can
    also read and update (§3.3) — e.g. a firewall's blacklist or the
    splicing table. Value storage is a flat byte arena so the VM can
    hand out stable "pointers" (arena offsets) from
    [map_lookup_elem], with in-place value mutation, matching eBPF
    semantics. *)

type kind = Array_map | Hash_map

type t

val create :
  kind -> key_size:int -> value_size:int -> max_entries:int -> t

val kind : t -> kind
val key_size : t -> int
val value_size : t -> int
val max_entries : t -> int
val length : t -> int

val update : t -> key:Bytes.t -> value:Bytes.t -> (unit, string) result
(** Insert or overwrite. For [Array_map], the key is a little-endian
    u32 index. Fails when full or on size mismatch. *)

val lookup : t -> key:Bytes.t -> Bytes.t option
(** Copy of the current value. *)

val delete : t -> key:Bytes.t -> bool
(** [false] if absent. [Array_map] entries cannot be deleted. *)

(** {1 VM internals} *)

val lookup_slot : t -> key:Bytes.t -> int option
(** Arena byte offset of the value (stable until delete). *)

val arena : t -> Bytes.t
(** The value arena; the VM reads and writes values through it. *)

val iter : (Bytes.t -> Bytes.t -> unit) -> t -> unit
(** Iterate (key, value copy) pairs. *)
