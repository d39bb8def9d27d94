(** FlexScale flow-group steering (DESIGN.md §17).

    Sharding assigns every connection to one of [shards] shards: a
    slice of the CAM/CLS caches, scheduler rings and admission
    budget; the FPCs are the node's. The assignment is a pure function
    of the 4-tuple: [shard = (crc32 of the 4-tuple) mod groups mod
    shards]. No load, time or table state enters the computation, so
    the same flow always lands on the same shard — the property the
    datapath's steering self-check and the FlexSan cross-shard audit
    both rest on. *)

val group_of_flow : Tcp.Flow.t -> groups:int -> int
(** The flow-group hash ([Tcp.Flow.flow_group]); raises
    [Invalid_argument] on [groups <= 0]. *)

val shard_of_group : int -> shards:int -> int
(** [shard_of_group fg ~shards = fg mod shards]. *)

val shard_of_flow : Tcp.Flow.t -> groups:int -> shards:int -> int
(** Composition of the two: the shard a flow steers to. *)

val shards_of : Config.scale -> int
(** Effective shard count: 1 when sharding is off. *)

val shard_of_config : Config.t -> Tcp.Flow.t -> int
(** Steering under a full configuration (its flow-group count and
    effective shard count). *)
