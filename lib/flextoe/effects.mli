(** Stage-effect contracts for the parallel datapath.

    FlexTOE's one-touch parallelism claim (§3.2) is that every stage
    except the serialized protocol stage touches disjoint per-flow
    state, so replicating stages and pipelining segments is safe
    without locks. This module is the vocabulary that makes that
    argument a checkable artifact: each datapath stage declares the
    memory regions it may read and write — keyed by logical object and
    annotated with the {!Nfp.Memory.level} the object lives at — plus
    the serialization domain its executions are ordered under.
    {!Prove} checks the contracts over the whole stage graph;
    {!Infer} checks the declarations against the stage sources; {!San}
    checks the actual accesses at runtime. *)

(** Logical objects of the datapath memory map. *)
type obj =
  | Conn_pre  (** Steering partition of connection state (read-only
                  on the datapath after CP install). *)
  | Conn_proto  (** Protocol partition: seq/ack state machine. *)
  | Reasm  (** Out-of-order reassembly metadata. *)
  | Conn_post  (** Post partition: stats counters, rate, buffers ids. *)
  | Rx_payload  (** Host receive payload buffer (per flow). *)
  | Tx_payload  (** Host transmit payload buffer (per flow). *)
  | Desc_ring  (** Context-queue descriptor rings. *)
  | Conn_db  (** Flow lookup table. *)
  | Sched_state  (** Scheduler wheel / round-robin state. *)
  | Global_stats  (** Global per-datapath counters. *)

val all_objs : obj list
val obj_name : obj -> string

val obj_tag : obj -> int
(** Stable small-int identity (indexing, set membership). *)

(** A region: where the object lives and which concurrency discipline
    its accesses follow. [r_atomic] regions are only touched with
    hardware atomics (CLS/EMEM atomic engines, CAM-assisted tables),
    so concurrent access is safe by construction. [r_disjoint]
    regions are address-partitioned: concurrent accesses are claimed
    to target disjoint byte ranges — a claim the static layer cannot
    discharge, so layer 2 checks the actual ranges dynamically. *)
type region = {
  r_obj : obj;
  r_level : Nfp.Memory.level;
  r_atomic : bool;
  r_disjoint : bool;
}

val region : obj -> region
(** The datapath memory map (Table 5 / §4.1). *)

(** Serialization domain: which executions of a stage (and of other
    stages sharing the domain) are mutually ordered.

    - [Serial_none]: replicated, no ordering — any two executions may
      run concurrently, including two for the same flow.
    - [Serial_conn]: per-connection mutual exclusion (the protocol
      stage's seq/ack critical section).
    - [Serial_flow_group name]: executions for the same flow group
      are ordered by the named sequencer.
    - [Serial_queue name]: executions are ordered by the named FIFO
      queue (DMA completion queues, context queues). *)
type domain =
  | Serial_none
  | Serial_conn
  | Serial_flow_group of string
  | Serial_queue of string

val domain_name : domain -> string

type contract = {
  c_stage : string;
  c_reads : obj list;
  c_writes : obj list;
  c_domain : domain;
}

type kind = Read | Write

(** A static conflict: two (stage, region) accesses that may run
    concurrently for the same flow and overlap unsafely ({!Prove}'s
    interference pass). *)
type conflict = {
  k_stage1 : string;
  k_kind1 : kind;
  k_stage2 : string;
  k_kind2 : kind;
  k_obj : obj;
}

val conflict_to_string : conflict -> string

val mem : obj -> obj list -> bool
