(** NFP-4000 model parameters (§2.3, §4 of the paper).

    All latencies are in FPC cycles unless stated otherwise. The
    defaults describe the Netronome Agilio CX40's NFP-4000:
    60 FPCs at 800 MHz in five general-purpose islands, CLS/CTM
    island-local memories, 4 MB IMEM SRAM, 2 GB EMEM DRAM behind a
    3 MB SRAM cache, PCIe Gen3 x8, and two 40 Gbps MACs. *)

type t = {
  fpc_freq : Sim.Time.Freq.t;  (** 800 MHz. *)
  local_mem_cycles : int;  (** FPC local memory / registers. *)
  cls_cycles : int;  (** Island-local scratch, up to 100 cycles. *)
  ctm_cycles : int;  (** Island target memory, up to 100 cycles. *)
  imem_cycles : int;  (** 4 MB SRAM, up to 250 cycles. *)
  emem_cycles : int;  (** 2 GB DRAM (+3MB cache), up to 500 cycles. *)
  emem_cache_cycles : int;  (** EMEM SRAM-cache hit. *)
  emem_cache_entries : int;
      (** Connection-state entries fitting the 3 MB EMEM cache; the
          paper reports 16K connections in the EMEM cache (§A). *)
  cam_entries : int;  (** Per-FPC CAM cache: 16 entries, LRU. *)
  cls_cache_entries : int;
      (** Protocol-stage second-level cache in CLS: 512 per island. *)
  preproc_cache_entries : int;  (** Pre-processor lookup cache: 128. *)
  pcie_base_latency : Sim.Time.t;
      (** One-way PCIe transaction latency (DMA setup + completion). *)
  pcie_gbps : float;  (** PCIe Gen3 x8 usable bandwidth, ~52 Gb/s. *)
  dma_queues : int;  (** DMA transaction queue pairs. *)
  dma_inflight : int;  (** Async ops outstanding per queue: 128. *)
  mmio_latency : Sim.Time.t;  (** Posted MMIO doorbell write. *)
  wire_gbps : float;  (** MAC line rate: 40 Gb/s. *)
  seg_buffers : int;
      (** NIC-internal segment descriptor/buffer pool (BLM). TX and
          internal descriptors flow-control on this pool. *)
}

val default : t
