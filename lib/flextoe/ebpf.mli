(** The eBPF virtual machine.

    Interprets {!Bpf_insn} programs against a packet, a 512-byte
    stack, and a set of {!Bpf_map}s, with the XDP calling convention:
    r1 points to a context holding [data]/[data_end] pointers, and r0
    at [Exit] is the XDP action. Memory is a segmented address space
    (context, packet, stack, map value arenas); every access is
    bounds-checked and a bad access aborts the program (XDP_ABORTED),
    like the hardware offload would.

    The instruction count of each run is reported so the data path can
    charge FPC cycles (eBPF compiles roughly 1:1 to NFP instructions). *)

type program

val load :
  ?max_insns:int ->
  ?maps:Bpf_map.t array ->
  Bpf_insn.t array ->
  (program, Verifier.violation) result
(** The one way onto the data path: {!Verifier.verify} the program
    against the shapes of [maps], the maps it will run with, so map
    ids and key/value buffers are checked exactly ([~maps:[||]]
    refuses every map helper). Without [maps] the verifier's weaker
    map checks apply (DESIGN.md §9). Every XDP attach point and
    extension constructor loads through here. *)

val load_unverified :
  ?max_insns:int -> Bpf_insn.t array -> (program, Verifier.violation) result
(** Load after only {!Verifier.check_syntax}, the shape checks the
    interpreter relies on. For tests and benchmarks of the VM's
    {e dynamic} defenses (runtime bounds faults, the instruction
    budget) with programs the static verifier would refuse; nothing
    in the library calls it. *)

val map_specs : Bpf_map.t array -> Verifier.map_spec array
(** The verifier's view (key/value sizes) of a concrete map set, as
    {!load} computes it. *)

val instructions : program -> Bpf_insn.t array

type outcome = {
  ret : int;  (** r0 at exit (an XDP action code), or
                  {!Bpf_insn.xdp_aborted} on fault. *)
  insns_executed : int;
  packet : Bytes.t;  (** Final packet view (head adjustments and
                          stores applied). *)
}

val run :
  program ->
  maps:Bpf_map.t array ->
  now_ns:int64 ->
  packet:Bytes.t ->
  outcome
(** Execute over (a copy of) [packet]. Runaway programs are cut off
    at 65536 instructions and abort. *)
