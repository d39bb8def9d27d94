type level = Local | Cls | Ctm | Imem | Emem_cached | Emem

let latency_cycles = function
  | Local -> Params.local_mem_cycles
  | Cls -> Params.cls_cycles
  | Ctm -> Params.ctm_cycles
  | Imem -> Params.imem_cycles
  | Emem_cached -> Params.emem_cache_cycles
  | Emem -> Params.emem_cycles

let pp_level fmt l =
  Format.pp_print_string fmt
    (match l with
    | Local -> "local"
    | Cls -> "CLS"
    | Ctm -> "CTM"
    | Imem -> "IMEM"
    | Emem_cached -> "EMEM$"
    | Emem -> "EMEM")

(* FlexScale capacity-pressure accounting for the shared EMEM. The
   SRAM cache in front of the EMEM DRAM holds a fixed working set
   (~16 K connections at 108 B of state); once resident per-flow
   state overcommits it, the marginal miss stops being an SRAM-cache
   refill and becomes a DRAM walk whose cost grows with the
   overcommit ratio (row-buffer and bank conflicts between flows).
   The model is deterministic and integer-only so golden traces stay
   bit-identical: the penalty is a pure function of (flows, capacity),
   and zero at or below capacity. *)
module Pressure = struct
  type t = {
    capacity_flows : int;  (* working-set ceiling; <= 0 = unbounded *)
    mutable flows : int;
    mutable bytes : int;
    mutable peak_flows : int;
    mutable peak_bytes : int;
  }

  let create ~capacity_flows =
    { capacity_flows; flows = 0; bytes = 0; peak_flows = 0; peak_bytes = 0 }

  let install t ~bytes =
    t.flows <- t.flows + 1;
    t.bytes <- t.bytes + bytes;
    if t.flows > t.peak_flows then t.peak_flows <- t.flows;
    if t.bytes > t.peak_bytes then t.peak_bytes <- t.bytes

  let remove t ~bytes =
    t.flows <- Int.max 0 (t.flows - 1);
    t.bytes <- Int.max 0 (t.bytes - bytes)

  let bytes_per_flow t =
    if t.peak_flows = 0 then 0
    else (t.peak_bytes + t.peak_flows - 1) / t.peak_flows

  (* Extra cycles an EMEM miss pays beyond [emem_cycles] under
     overcommit. Linear in the overcommit ratio, clamped at 4x the
     base DRAM latency: at 1x capacity the penalty is 0, at 2x it is
     one extra emem_cycles, saturating at 5x total. *)
  let extra_miss_cycles t =
    if t.capacity_flows <= 0 || t.flows <= t.capacity_flows then 0
    else
      let over = t.flows - t.capacity_flows in
      Int.min (4 * Params.emem_cycles)
        (Params.emem_cycles * over / t.capacity_flows)
end
