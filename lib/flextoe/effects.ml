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

let all_objs =
  [ Conn_pre; Conn_proto; Reasm; Conn_post; Rx_payload; Tx_payload;
    Desc_ring; Conn_db; Sched_state; Global_stats ]

let obj_name = function
  | Conn_pre -> "conn.pre"
  | Conn_proto -> "conn.proto"
  | Reasm -> "conn.reasm"
  | Conn_post -> "conn.post"
  | Rx_payload -> "rx-payload"
  | Tx_payload -> "tx-payload"
  | Desc_ring -> "desc-ring"
  | Conn_db -> "conn-db"
  | Sched_state -> "sched"
  | Global_stats -> "stats"

let obj_tag = function
  | Conn_pre -> 0
  | Conn_proto -> 1
  | Reasm -> 2
  | Conn_post -> 3
  | Rx_payload -> 4
  | Tx_payload -> 5
  | Desc_ring -> 6
  | Conn_db -> 7
  | Sched_state -> 8
  | Global_stats -> 9

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

(* The datapath memory map (Table 5 / §4.1): pre partition cached in
   CLS, proto in the local-memory..EMEM hierarchy, post in CLS,
   payload buffers in host memory behind PCIe (modelled as EMEM
   distance), rings in CTM, lookup and stats on atomic engines. *)
let region obj =
  let v level ?(atomic = false) ?(disjoint = false) () =
    { r_obj = obj; r_level = level; r_atomic = atomic;
      r_disjoint = disjoint }
  in
  match obj with
  | Conn_pre -> v Nfp.Memory.Cls ()
  | Conn_proto -> v Nfp.Memory.Local ()
  | Reasm -> v Nfp.Memory.Emem ()
  | Conn_post -> v Nfp.Memory.Cls ~atomic:true ()
  | Rx_payload -> v Nfp.Memory.Emem ~disjoint:true ()
  | Tx_payload -> v Nfp.Memory.Emem ~disjoint:true ()
  | Desc_ring -> v Nfp.Memory.Ctm ~atomic:true ()
  | Conn_db -> v Nfp.Memory.Imem ~atomic:true ()
  | Sched_state -> v Nfp.Memory.Ctm ~atomic:true ()
  | Global_stats -> v Nfp.Memory.Cls ~atomic:true ()

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

let domain_name = function
  | Serial_none -> "none"
  | Serial_conn -> "per-conn"
  | Serial_flow_group s -> "flow-group:" ^ s
  | Serial_queue s -> "queue:" ^ s

type contract = {
  c_stage : string;
  c_reads : obj list;
  c_writes : obj list;
  c_domain : domain;
}

type kind = Read | Write

let kind_name = function Read -> "R" | Write -> "W"

(** A static conflict: two (stage, region) accesses that may run
    concurrently for the same flow and overlap unsafely. *)
type conflict = {
  k_stage1 : string;
  k_kind1 : kind;
  k_stage2 : string;
  k_kind2 : kind;
  k_obj : obj;
}

let conflict_to_string c =
  let r = region c.k_obj in
  Format.asprintf "%s:%s(%s) conflicts with %s:%s(%s) at %a"
    c.k_stage1 (kind_name c.k_kind1) (obj_name c.k_obj) c.k_stage2
    (kind_name c.k_kind2) (obj_name c.k_obj) Nfp.Memory.pp_level r.r_level

let mem o l = List.exists (fun x -> obj_tag x = obj_tag o) l
