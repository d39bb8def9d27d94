type t = {
  fpc_freq : Sim.Time.Freq.t;
  local_mem_cycles : int;
  cls_cycles : int;
  ctm_cycles : int;
  imem_cycles : int;
  emem_cycles : int;
  emem_cache_cycles : int;
  emem_cache_entries : int;
  cam_entries : int;
  cls_cache_entries : int;
  preproc_cache_entries : int;
  pcie_base_latency : Sim.Time.t;
  pcie_gbps : float;
  dma_queues : int;
  dma_inflight : int;
  mmio_latency : Sim.Time.t;
  wire_gbps : float;
  seg_buffers : int;
}

let default =
  {
    fpc_freq = Sim.Time.Freq.of_mhz 800;
    local_mem_cycles = 2;
    cls_cycles = 100;
    ctm_cycles = 100;
    imem_cycles = 250;
    emem_cycles = 500;
    emem_cache_cycles = 150;
    emem_cache_entries = 16_384;
    cam_entries = 16;
    cls_cache_entries = 512;
    preproc_cache_entries = 128;
    pcie_base_latency = Sim.Time.ns 850;
    pcie_gbps = 52.0;
    dma_queues = 2;
    dma_inflight = 128;
    mmio_latency = Sim.Time.ns 300;
    wire_gbps = 40.0;
    seg_buffers = 1024;
  }
