(** Per-stage instruction budgets, in FPC cycles. They calibrate the
    simulation (DESIGN.md §6 says how they were chosen); the data path
    charges them for every stage execution. *)

let preproc_validate = 50

(** TCP checksum verification: the fixed overhead of driving the CRC
    unit. The per-byte part comes from the frame length. *)
let preproc_csum = 30

(** Local lookup-cache hit. *)
let preproc_lookup_hit = 25

let preproc_summary = 55

(** Data-bearing segment. *)
let protocol_rx = 90

(** Pure-ACK segment. *)
let protocol_rx_ack = 45

let protocol_tx = 60
let protocol_hc = 40
let postproc_rx = 100
let postproc_tx = 70
let dma_desc = 50
let ctx_desc = 50
let sequencer = 15
let scheduler_pick = 25

(** Fixed overhead of an enabled XDP hook. *)
let xdp_dispatch = 45

(** Per enabled tracepoint, per segment. *)
let tracepoint = 6

(** Per captured packet. *)
let pcap_capture = 650

(* Batching cost model: one fixed cost per batch (the stage's usual
   cost) plus a per-unit variable cost below for each extra unit the
   batch carries. Charged only on batch>1 paths. *)

(** Per absorbed segment when GRO coalesces adjacent in-order segments
    into one descriptor. *)
let gro_merge = 20

(** Per extra wire frame split out of a TSO descriptor at the NBI
    boundary. *)
let tso_split = 15

(** Fixed cost per doorbell-batch flush. *)
let dma_doorbell = 30

(** Per absorbed ARX notification when coalescing. *)
let notify_coalesce = 25
